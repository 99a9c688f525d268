"""End-to-end tests for the ``explore`` CLI subcommand."""

import pytest

from repro.cli import main


class TestExploreSchedule:
    def test_matches_serial_map_answer(self, capsys, tmp_path):
        rc = main([
            "explore", "-a", "matmul", "--mu", "4", "-s", "1,1,-1",
            "--jobs", "2", "--cache-dir", str(tmp_path),
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "optimal Pi     : [1, 2, 3]" in out
        assert "total time     : 25" in out
        assert "shards" in out

    def test_warm_replay_reports_cache_hit(self, capsys, tmp_path):
        args = [
            "explore", "-a", "matmul", "--mu", "4", "-s", "1,1,-1",
            "--jobs", "1", "--cache-dir", str(tmp_path),
        ]
        assert main(args) == 0
        capsys.readouterr()
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "1 hits / 0 misses" in out

    def test_no_cache_flag(self, capsys, tmp_path):
        rc = main([
            "explore", "-a", "matmul", "--mu", "3", "-s", "1,1,-1",
            "--jobs", "1", "--cache-dir", str(tmp_path), "--no-cache",
        ])
        assert rc == 0
        assert len(list(tmp_path.glob("*.json"))) == 0

    def test_jobs_1_and_2_print_same_answer(self, capsys, tmp_path):
        base_args = [
            "explore", "-a", "matmul", "--mu", "6", "-s", "1,1,-1",
            "--no-cache", "--cache-dir", str(tmp_path),
        ]
        outputs = []
        for jobs in ("1", "2"):
            assert main(base_args + ["--jobs", jobs]) == 0
            outputs.append(capsys.readouterr().out)

        def answer(text):
            return [
                line for line in text.splitlines()
                if line.startswith((
                    "optimal Pi", "total time", "enumerated", "pruned",
                    "checked", "conflicted", "rings expanded",
                ))
            ]

        assert len(answer(outputs[0])) == 7
        assert answer(outputs[0]) == answer(outputs[1])

    @pytest.mark.parametrize(
        "flag",
        ["--no-batch", "--no-symmetry", "--no-ring-bound", "--batch-size 64"],
    )
    def test_removed_switches_are_rejected(self, flag, tmp_path):
        with pytest.raises(SystemExit):
            main([
                "explore", "-a", "matmul", "--mu", "3", "-s", "1,1,-1",
                "--cache-dir", str(tmp_path), *flag.split(),
            ])


class TestExploreSpaceAndJoint:
    def test_space_mode(self, capsys, tmp_path):
        rc = main([
            "explore", "-a", "matmul", "--mu", "3", "-p", "1,3,1",
            "--jobs", "1", "--cache-dir", str(tmp_path),
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "space search (Problem 6.1)" in out
        assert "#1: S =" in out

    def test_joint_mode(self, capsys, tmp_path):
        rc = main([
            "explore", "-a", "matmul", "--mu", "3",
            "--jobs", "1", "--cache-dir", str(tmp_path),
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "joint search (Problem 6.2)" in out
        assert "Pi =" in out

    @pytest.mark.parametrize("mode", [["-p", "1,3,1"], []], ids=["space", "joint"])
    def test_array_dim_zero_is_an_invalid_specification(self, mode, tmp_path):
        with pytest.raises(SystemExit, match="invalid specification: array_dim"):
            main([
                "explore", "-a", "matmul", "--mu", "3", *mode,
                "--array-dim", "0", "--cache-dir", str(tmp_path),
            ])
        assert not any(tmp_path.rglob("*.json"))

    def test_space_and_schedule_together_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main([
                "explore", "-a", "matmul", "--mu", "3",
                "-s", "1,1,-1", "-p", "1,3,1",
                "--cache-dir", str(tmp_path),
            ])


class TestExploreCacheMaintenance:
    def _populate(self, tmp_path):
        assert main([
            "explore", "-a", "matmul", "--mu", "3", "-s", "1,1,-1",
            "--jobs", "1", "--cache-dir", str(tmp_path),
        ]) == 0

    def test_reports_counters_and_disk_state(self, capsys, tmp_path):
        self._populate(tmp_path)
        capsys.readouterr()
        rc = main(["explore", "cache", "--cache-dir", str(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert f"cache dir      : {tmp_path}" in out
        assert "entries        : 1" in out
        assert "corrupt files  : 0" in out
        assert "hits / " in out and "misses" in out

    def test_sweep_removes_temp_files(self, capsys, tmp_path):
        self._populate(tmp_path)
        (tmp_path / ".tmp-leak.json").write_text("{}")
        capsys.readouterr()
        rc = main(["explore", "cache", "--cache-dir", str(tmp_path),
                   "--sweep"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "swept          : 1 temp file(s)" in out
        assert "temp files     : 0" in out
        assert not (tmp_path / ".tmp-leak.json").exists()

    def test_clear_empties_the_cache(self, capsys, tmp_path):
        self._populate(tmp_path)
        capsys.readouterr()
        rc = main(["explore", "cache", "--cache-dir", str(tmp_path),
                   "--clear"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "cleared        : 1 entry" in out
        assert "entries        : 0" in out
        assert not list(tmp_path.glob("*.json"))

    def test_sweep_without_cache_subcommand_is_rejected(self, tmp_path):
        with pytest.raises(SystemExit, match="cache"):
            main(["explore", "-a", "matmul", "--mu", "3", "-s", "1,1,-1",
                  "--cache-dir", str(tmp_path), "--sweep"])
