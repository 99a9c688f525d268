"""Unit tests for the write-ahead checkpoint journal and run budgets."""

import json

import pytest

from repro.dse.checkpoint import (
    JOURNAL_SCHEMA_VERSION,
    BudgetExceeded,
    CheckpointError,
    CheckpointJournal,
    RunBudget,
    RunControl,
    RunInterrupted,
)
from repro.dse.records import encode_line as _record_line


def make_journal(path, run_key="run-a", shards=(), result=None, **kwargs):
    j = CheckpointJournal(path, **kwargs)
    j.open(run_key, task="test")
    for key, out in shards:
        j.record_shard(key, out)
    if result is not None:
        j.record_result(result)
    j.close()
    return j


class TestJournalRoundTrip:
    def test_resume_replays_recorded_shards(self, tmp_path):
        path = tmp_path / "run.ckpt"
        make_journal(path, shards=[("s0", {"a": 1}), ("s1", {"b": [2, 3]})])
        j = CheckpointJournal(path)
        j.open("run-a", resume=True)
        assert j.lookup("s0") == {"a": 1}
        assert j.lookup("s1") == {"b": [2, 3]}
        assert j.lookup("s2") is None
        assert j.resumed_shards == 2
        assert j.dropped_records == 0
        j.close()

    def test_result_record_round_trips(self, tmp_path):
        path = tmp_path / "run.ckpt"
        make_journal(path, shards=[("s0", {"a": 1})],
                     result={"found": True, "pi": [1, 2, 2]})
        j = CheckpointJournal(path)
        j.open("run-a", resume=True)
        assert j.result_entry == {"found": True, "pi": [1, 2, 2]}
        j.close()

    def test_record_shard_is_idempotent(self, tmp_path):
        path = tmp_path / "run.ckpt"
        j = CheckpointJournal(path)
        j.open("run-a")
        j.record_shard("s0", {"a": 1})
        j.record_shard("s0", {"a": 999})  # second write is a no-op
        j.close()
        assert j.lookup("s0") == {"a": 1}
        # exactly two lines on disk: header + one shard
        assert len(path.read_bytes().splitlines()) == 2

    def test_open_without_resume_discards_old_state(self, tmp_path):
        path = tmp_path / "run.ckpt"
        make_journal(path, shards=[("s0", {"a": 1})])
        j = CheckpointJournal(path)
        j.open("run-a", resume=False)
        assert j.lookup("s0") is None
        j.close()

    def test_resume_of_missing_file_starts_fresh(self, tmp_path):
        j = CheckpointJournal(tmp_path / "absent.ckpt")
        j.open("run-a", resume=True)
        assert j.resumed_shards == 0
        j.close()
        assert (tmp_path / "absent.ckpt").exists()


class TestLineFormat:
    def test_record_line_is_the_schema_4_journal_line(self):
        # Journals written before the shared record format replay
        # unchanged: the line is byte for byte the one they hold.
        import hashlib

        rec = {"kind": "shard", "key": "s0", "out": {"b": [2, 3], "a": 1.5}}
        body = json.dumps(rec, sort_keys=True, separators=(",", ":"))
        crc = hashlib.sha256(body.encode()).hexdigest()
        assert _record_line(rec) == '{"crc":"%s","rec":%s}\n' % (crc, body)


class TestTornTail:
    def test_partial_last_line_is_dropped_and_truncated(self, tmp_path):
        path = tmp_path / "run.ckpt"
        make_journal(path, shards=[("s0", {"a": 1}), ("s1", {"b": 2})])
        good = path.read_bytes()
        # simulate a crash mid-append: half a record, no newline
        path.write_bytes(good + b'{"crc":"dead', )
        j = CheckpointJournal(path)
        j.open("run-a", resume=True)
        assert j.resumed_shards == 2
        assert j.dropped_records == 1
        j.record_shard("s2", {"c": 3})  # append after truncation
        j.close()
        # the torn bytes are gone; every surviving line verifies
        for raw in path.read_bytes().splitlines():
            assert json.loads(raw)["crc"]

    def test_checksum_mismatch_stops_replay(self, tmp_path):
        path = tmp_path / "run.ckpt"
        make_journal(path, shards=[("s0", {"a": 1})])
        # a whole, parseable line whose body was bit-flipped after the
        # checksum was computed
        line = _record_line({"kind": "shard", "key": "s1", "out": {"b": 2}})
        obj = json.loads(line)
        obj["rec"]["out"]["b"] = 999
        with open(path, "ab") as fh:
            fh.write((json.dumps(obj) + "\n").encode())
        j = CheckpointJournal(path)
        j.open("run-a", resume=True)
        assert j.lookup("s0") == {"a": 1}
        assert j.lookup("s1") is None
        assert j.dropped_records == 1
        j.close()

    def test_fully_torn_file_is_treated_as_fresh(self, tmp_path):
        path = tmp_path / "run.ckpt"
        path.write_bytes(b"garbage that is not a journal\n")
        j = CheckpointJournal(path)
        j.open("run-a", resume=True)
        assert j.resumed_shards == 0
        j.close()


class TestMismatches:
    def test_run_key_mismatch_is_hard_error(self, tmp_path):
        path = tmp_path / "run.ckpt"
        make_journal(path, run_key="run-a", shards=[("s0", {"a": 1})])
        j = CheckpointJournal(path)
        with pytest.raises(CheckpointError, match="different run"):
            j.open("run-b", resume=True)

    def test_schema_mismatch_is_hard_error(self, tmp_path):
        path = tmp_path / "run.ckpt"
        line = _record_line({
            "kind": "run", "schema": JOURNAL_SCHEMA_VERSION + 1,
            "run": "run-a", "task": "t",
        })
        path.write_text(line)
        j = CheckpointJournal(path)
        with pytest.raises(CheckpointError, match="schema"):
            j.open("run-a", resume=True)

    @staticmethod
    def old_schedule_journal(path, schema):
        """A completed matmul(4) schedule journal relabelled ``schema``,
        with the stage-code shard a schema 2 or 3 engine wrote."""
        from repro.dse.executor import explore_schedule
        from repro.model import matrix_multiplication

        algo, space = matrix_multiplication(4), [[1, 1, -1]]
        explore_schedule(algo, space, cache=None, checkpoint=path)
        records = [json.loads(line)["rec"] for line in path.read_text().splitlines()]
        records.insert(1, {"kind": "shard", "key": "0" * 64,
                           "out": {"codes": "0123", "wall_time": 0.0}})
        for rec in records:
            if "schema" in rec:
                rec["schema"] = schema
        path.write_text("".join(_record_line(rec) for rec in records))
        return lambda: explore_schedule(
            algo, space, cache=None, checkpoint=path, resume=True
        )

    def test_schema_2_schedule_journal_is_refused(self, tmp_path):
        resume = self.old_schedule_journal(tmp_path / "run.ckpt", 2)
        with pytest.raises(CheckpointError, match="schema 2"):
            resume()

    def test_schema_3_schedule_journal_is_refused(self, tmp_path):
        # Schema 3 journals carry schedule shards; schema 4 runs the
        # schedule search in process and journals only its decision.
        resume = self.old_schedule_journal(tmp_path / "run.ckpt", 3)
        with pytest.raises(CheckpointError, match="schema 3"):
            resume()

    def test_shards_without_header_are_refused(self, tmp_path):
        path = tmp_path / "run.ckpt"
        path.write_text(
            _record_line({"kind": "shard", "key": "s0", "out": {"a": 1}})
        )
        j = CheckpointJournal(path)
        with pytest.raises(CheckpointError, match="no valid run header"):
            j.open("run-a", resume=True)

    def test_double_open_is_refused(self, tmp_path):
        j = CheckpointJournal(tmp_path / "run.ckpt")
        j.open("run-a")
        with pytest.raises(CheckpointError, match="already open"):
            j.open("run-a")
        j.close()


class TestCompaction:
    def test_compaction_preserves_every_shard(self, tmp_path):
        path = tmp_path / "run.ckpt"
        j = CheckpointJournal(path, compact_every=4)
        j.open("run-a")
        for i in range(10):
            j.record_shard(f"s{i}", {"i": i})
        j.close()
        # 10 appends with compact_every=4: the file holds snapshots,
        # not 11 lines
        assert len(path.read_bytes().splitlines()) < 11
        k = CheckpointJournal(path)
        k.open("run-a", resume=True)
        assert k.resumed_shards == 10
        assert all(k.lookup(f"s{i}") == {"i": i} for i in range(10))
        k.close()

    def test_compaction_keeps_result_entry(self, tmp_path):
        path = tmp_path / "run.ckpt"
        j = CheckpointJournal(path, compact_every=2)
        j.open("run-a")
        j.record_shard("s0", {"a": 1})
        j.record_result({"found": False})
        j.compact()
        j.close()
        k = CheckpointJournal(path)
        k.open("run-a", resume=True)
        assert k.result_entry == {"found": False}
        k.close()

    def test_bad_compact_every_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            CheckpointJournal(tmp_path / "x", compact_every=0)


class TestRunBudget:
    def test_validation(self):
        RunBudget(max_seconds=1.5, max_shards=10, max_bits=64)  # fine
        with pytest.raises(ValueError):
            RunBudget(max_seconds=0)
        with pytest.raises(ValueError):
            RunBudget(max_shards=0)
        with pytest.raises(ValueError):
            RunBudget(max_bits=0)

    def test_shard_budget_counts_only_dispatched(self):
        with RunControl(budget=RunBudget(max_shards=3)) as control:
            control.before_dispatch(2)
            control.before_dispatch(1)
            with pytest.raises(BudgetExceeded):
                control.before_dispatch(1)
            assert control.shards_dispatched == 3

    def test_bit_budget_checks_ring_bound(self):
        with RunControl(budget=RunBudget(max_bits=4)) as control:
            control.check_ring(15)  # 4 bits: fine
            with pytest.raises(BudgetExceeded, match="max_bits"):
                control.check_ring(16)  # 5 bits

    def test_time_budget_raises_after_deadline(self, monkeypatch):
        import repro.dse.checkpoint as ckpt

        # init/enter read the clock too; advance 100s per observation
        ticks = iter(range(0, 10**6, 100))
        monkeypatch.setattr(ckpt.time, "monotonic",
                            lambda: float(next(ticks)))
        with RunControl(budget=RunBudget(max_seconds=5.0)) as control:
            with pytest.raises(BudgetExceeded, match="wall-clock"):
                control.poll()

    def test_budget_exceeded_is_a_run_interrupted(self):
        assert issubclass(BudgetExceeded, RunInterrupted)


class TestRunControl:
    def test_shard_key_depends_on_every_component(self, tmp_path):
        j = CheckpointJournal(tmp_path / "run.ckpt")
        j.open("run-a")
        control = RunControl(journal=j)
        base = control.shard_key("schedule", 1, 0, [[1, 2], [3, 4]])
        assert control.shard_key("schedule", 1, 0, [[1, 2], [3, 4]]) == base
        assert control.shard_key("space", 1, 0, [[1, 2], [3, 4]]) != base
        assert control.shard_key("schedule", 2, 0, [[1, 2], [3, 4]]) != base
        assert control.shard_key("schedule", 1, 1, [[1, 2], [3, 4]]) != base
        assert control.shard_key("schedule", 1, 0, [[1, 2], [3, 5]]) != base
        j.close()

    def test_control_without_journal_has_no_guard_or_lookup(self):
        with RunControl(budget=RunBudget(max_shards=5)) as control:
            assert control.lookup("anything") is None
            control.record_shard("k", {"x": 1})  # no-op, no crash
            control.record_result({"x": 1})
            assert control.resume_entry is None
            control.poll()  # nothing to trip

    def test_exit_closes_journal(self, tmp_path):
        j = CheckpointJournal(tmp_path / "run.ckpt")
        j.open("run-a")
        with RunControl(journal=j):
            pass
        assert j._fh is None


class TestEngineResume:
    """Seams between the engine and its journal."""

    @staticmethod
    def records(path):
        return [json.loads(line)["rec"] for line in path.read_text().splitlines()]

    def test_resumed_run_rederives_identical_shard_ranges(self, tmp_path):
        import threading

        from repro import matrix_multiplication
        from repro.core.space_optimize import solve_joint_optimal
        from repro.dse.executor import explore_joint

        algo, journal = matrix_multiplication(4), tmp_path / "run.ckpt"
        stop = threading.Event()

        def stop_after_first_shard(event):
            if event["event"] == "shard_done":
                stop.set()

        with pytest.raises(RunInterrupted):
            explore_joint(
                algo, jobs=4, checkpoint=journal, stop=stop,
                on_progress=stop_after_first_shard,
            )
        recorded = [r for r in self.records(journal) if r["kind"] == "shard"]
        resumed = explore_joint(algo, jobs=4, checkpoint=journal, resume=True)
        # Every journaled shard is hit: the resumed run cut exactly the
        # ranges the first run cut, and dispatched only the rest.
        assert resumed.stats.shards_resumed == len(recorded) == 1
        assert resumed.stats.shards == 4
        assert resumed == solve_joint_optimal(algo)

    def test_schedule_journal_holds_header_and_result_only(
        self, tmp_path, monkeypatch
    ):
        from repro import matrix_multiplication
        from repro.core.optimize import procedure_5_1
        from repro.dse import executor

        algo, space = matrix_multiplication(4), ((1, 1, -1),)
        journal = tmp_path / "run.ckpt"
        cold = executor.explore_schedule(algo, space, checkpoint=journal)
        records = self.records(journal)
        assert [r["kind"] for r in records] == ["run", "result"]
        assert records[0]["schema"] == JOURNAL_SCHEMA_VERSION == 4

        def no_search(*args, **kwargs):
            raise AssertionError("a completed journal must not search again")

        # Resuming a completed journal short-circuits like a cache hit.
        monkeypatch.setattr(executor, "scan_rings", no_search)
        resumed = executor.explore_schedule(
            algo, space, checkpoint=journal, resume=True
        )
        assert resumed == cold == procedure_5_1(algo, space)
        assert resumed.stats.counter_dict() == cold.stats.counter_dict()
        assert resumed.stats.shards_resumed == 0
