"""Unit tests for the command-line interface (repro.cli)."""

import fcntl
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main

_CLI_ENV = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[2] / "src")}


def _run_cli(*argv: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "repro", *argv], env=_CLI_ENV,
                          capture_output=True, text=True, timeout=120)


class TestParsing:
    def test_vector_parsing(self):
        from repro.cli import _parse_vector

        assert _parse_vector("1,4,1") == (1, 4, 1)
        assert _parse_vector("1, -2, 3") == (1, -2, 3)

    def test_bad_vector(self):
        import argparse

        from repro.cli import _parse_vector

        with pytest.raises(argparse.ArgumentTypeError):
            _parse_vector("1,x,3")

    def test_matrix_parsing(self):
        from repro.cli import _parse_matrix

        assert _parse_matrix("1,0;0,1") == ((1, 0), (0, 1))
        assert _parse_matrix("1,1,-1") == ((1, 1, -1),)

    def test_ragged_matrix_rejected(self):
        import argparse

        from repro.cli import _parse_matrix

        with pytest.raises(argparse.ArgumentTypeError):
            _parse_matrix("1,0;0,1,2")

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestMapCommand:
    def test_matmul(self, capsys):
        rc = main(["map", "-a", "matmul", "--mu", "4", "-s", "1,1,-1"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "optimal Pi     : [1, 4, 1]" in out
        assert "total time     : 25" in out

    def test_transitive_closure(self, capsys):
        rc = main(["map", "-a", "transitive-closure", "--mu", "4", "-s", "0,0,1"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "[5, 1, 1]" in out

    def test_unknown_algorithm(self):
        with pytest.raises(SystemExit, match="unknown algorithm"):
            main(["map", "-a", "quicksort", "-s", "1,1,-1"])


class TestCheckCommand:
    def test_conflicted_mapping_exit_code(self, capsys):
        rc = main(["check", "--rows", "1,7,1,1;1,7,1,0", "--mu", "6,6,6,6"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "conflict-free  : False" in out
        assert "witness" in out

    def test_clean_mapping(self, capsys):
        rc = main(["check", "--rows", "1,1,-1;1,4,1", "--mu", "4,4,4"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "conflict-free  : True" in out

    def test_paper_method_selectable(self, capsys):
        rc = main(
            ["check", "--rows", "1,1,-1;1,4,1", "--mu", "4,4,4",
             "--method", "paper"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "3.1" in out

    def test_mu_arity_validated(self):
        with pytest.raises(SystemExit, match="entries"):
            main(["check", "--rows", "1,1,-1;1,4,1", "--mu", "4,4"])

    @pytest.mark.parametrize("method", ["exact", "auto", "paper"])
    def test_rank_deficient_rows_end_in_one_line_error(self, method):
        proc = _run_cli("check", "--rows", "0,0,1;0,0,2", "--mu", "3,3,3",
                        "--method", method)
        assert proc.returncode != 0
        assert "Traceback" not in proc.stderr
        assert proc.stderr.strip().splitlines() == [
            "T has rank 1 < 2 rows; Definition 2.2 condition 4 requires "
            "full row rank"
        ]


@pytest.mark.skipif(not hasattr(fcntl, "F_SETPIPE_SZ"), reason="Linux pipes")
def test_reader_closing_the_pipe_early_is_quiet():
    # A one-page pipe: the 45 kB render blocks on it until the reader,
    # like `| head -1`, takes one line and closes its end.
    read_end, write_end = os.pipe()
    fcntl.fcntl(read_end, fcntl.F_SETPIPE_SZ, 4096)
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "simulate", "-a", "matmul", "--mu", "12",
         "-s", "1,1,-1", "-p", "1,12,1", "--render"],
        stdout=write_end, stderr=subprocess.PIPE, text=True, env=_CLI_ENV,
    )
    os.close(write_end)
    with os.fdopen(read_end) as reader:
        assert reader.readline().startswith("algorithm")
    _, stderr = proc.communicate(timeout=120)
    assert proc.returncode == 1
    assert "Traceback" not in stderr and "BrokenPipeError" not in stderr


class TestSimulateCommand:
    def test_clean_run(self, capsys):
        rc = main(
            ["simulate", "-a", "matmul", "--mu", "2",
             "-s", "1,1,-1", "-p", "1,2,1"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "verdict        : CLEAN" in out

    def test_defective_run(self, capsys):
        rc = main(
            ["simulate", "-a", "matmul", "--mu", "4",
             "-s", "1,1,-1", "-p", "1,1,4"]
        )
        out = capsys.readouterr().out
        assert rc == 1
        assert "DEFECTIVE" in out

    def test_render_flag(self, capsys):
        rc = main(
            ["simulate", "-a", "matmul", "--mu", "2",
             "-s", "1,1,-1", "-p", "1,2,1", "--render"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "PE\\t" in out


class TestDesignCommand:
    def test_matmul_design(self, capsys):
        rc = main(["design", "-a", "matmul", "--mu", "2", "-p", "1,2,1"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "#1:" in out
        assert "PEs=5" in out  # the cheaper-than-paper design

    def test_no_design_found(self, capsys):
        # A schedule violating Pi D > 0 raises before searching.
        with pytest.raises(ValueError):
            main(["design", "-a", "matmul", "--mu", "2", "-p", "1,0,1"])

    def test_array_dim_zero_is_an_invalid_specification(self):
        with pytest.raises(SystemExit, match="invalid specification: array_dim"):
            main(["design", "-a", "matmul", "--mu", "2", "-p", "1,2,1",
                  "--array-dim", "0"])


class TestMuParsing:
    def test_scalar_and_vector_accepted(self):
        from repro.cli import _parse_mu

        assert _parse_mu("4") == (4,)
        assert _parse_mu("3,8,2,2") == (3, 8, 2, 2)

    def test_non_positive_rejected(self):
        import argparse

        from repro.cli import _parse_mu

        for bad in ("0", "4,0,4", "-3", ""):
            with pytest.raises(argparse.ArgumentTypeError, match="--mu"):
                _parse_mu(bad)

    def test_wrong_arity_for_algorithm_is_readable(self):
        # matmul takes exactly one size.
        with pytest.raises(SystemExit, match="matmul"):
            main(["map", "-a", "matmul", "--mu", "4,4", "-s", "1,1,-1"])

    def test_convolution_accepts_pair(self, capsys):
        rc = main(["map", "-a", "convolution", "--mu", "3,8", "-s", "1,0"])
        assert rc == 0
        assert "Pi" in capsys.readouterr().out

    def test_check_broadcasts_scalar_mu(self, capsys):
        rc = main(["check", "--rows", "1,1,-1;1,4,1", "--mu", "4"])
        assert rc == 0
        assert "conflict-free" in capsys.readouterr().out

    def test_space_width_mismatch_is_readable(self):
        with pytest.raises(SystemExit, match="--space"):
            main(["map", "-a", "convolution", "--mu", "3,8", "-s", "1,1,-1"])


class TestObsCommand:
    def test_trace_flag_writes_valid_jsonl(self, tmp_path, capsys):
        from repro.obs import load_trace

        trace = tmp_path / "t.jsonl"
        rc = main(["map", "-a", "matmul", "--mu", "2", "-s", "1,1,-1",
                   "--trace", str(trace)])
        assert rc == 0
        assert "trace written" in capsys.readouterr().err
        records = load_trace(trace)
        assert any(
            r["type"] == "span"
            and r["name"] == "core.find_time_optimal_mapping"
            for r in records
        )

    def test_obs_report_renders(self, tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        main(["map", "-a", "matmul", "--mu", "2", "-s", "1,1,-1",
              "--trace", str(trace)])
        capsys.readouterr()
        rc = main(["obs", "report", str(trace)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "wall time" in out
        assert "core.find_time_optimal_mapping" in out

    def test_obs_validate_accepts_good_trace(self, tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        main(["map", "-a", "matmul", "--mu", "2", "-s", "1,1,-1",
              "--trace", str(trace)])
        capsys.readouterr()
        rc = main(["obs", "validate", str(trace)])
        assert rc == 0
        assert "OK:" in capsys.readouterr().out

    def test_obs_validate_rejects_garbage(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"type": "span", "name": "x"}\n')
        rc = main(["obs", "validate", str(bad)])
        assert rc == 1
        assert "INVALID" in capsys.readouterr().out

    def test_bad_log_level_is_readable(self):
        with pytest.raises(SystemExit, match="log"):
            main(["map", "-a", "matmul", "--mu", "2", "-s", "1,1,-1",
                  "--log-level", "LOUD"])
