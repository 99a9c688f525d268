"""Fault-injection tests for the DSE engine's resilience layer.

These exercise the real recovery paths — a worker killed mid-ring, a
shard hung past its deadline, a corrupted shard output, a truncated
cache entry — via the deterministic ``$REPRO_DSE_FAULT`` hook, which
fires *inside the worker process*.  Nothing is mocked.  The invariant
under test is the engine's contract: a recovered search result compares
equal to the serial (``jobs=1``, no-cache) one, with the recovery
visible only in the ``SearchStats`` failure telemetry.  Only the design
searches (Problems 6.1 and 6.2) run shards on a pool; the schedule
search runs in process, so its cache recovery is tested here too.
"""

import json
import os
import threading
import time

import pytest

from repro.core.optimize import procedure_5_1
from repro.core.space_optimize import solve_joint_optimal, solve_space_optimal
from repro.dse import resilience
from repro.dse.cache import ResultCache
from repro.dse.checkpoint import CheckpointJournal, RunControl, RunInterrupted
from repro.dse.executor import explore_joint, explore_schedule, explore_space
from repro.dse.resilience import (
    FAULT_ENV_VAR,
    FAULT_HANG_ENV_VAR,
    ResilienceError,
    ResiliencePolicy,
    ResilientShardRunner,
    _backoff_delay,
    _parse_fault_spec,
)

SPACE = [[1, 1, -1]]
PI = (1, 2, 3)  # a schedule of Example 5.1 for the Problem 6.1 searches


@pytest.fixture(autouse=True)
def no_backoff(monkeypatch):
    """No backoff sleeps in tests; recovery behavior is unaffected."""
    monkeypatch.setattr(resilience, "BACKOFF_SECONDS", 0.0)


def _echo_shard(payload):
    """A trivial shard worker (module level, so the pool can pickle it)."""
    return {"wall_time": 0.0, "evaluated": [payload["x"]]}


def _nap(seconds):
    time.sleep(seconds)


def _alive(pid):
    """Whether ``pid`` still names a process (a zombie counts)."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def _signal_state(payload):
    """A pool worker's SIGTERM disposition and wakeup fd."""
    import signal

    default = signal.getsignal(signal.SIGTERM) == signal.SIG_DFL
    return {"wall_time": 0.0, "evaluated": [default, signal.set_wakeup_fd(-1)]}


class TestResiliencePolicy:
    def test_defaults_are_valid(self):
        p = ResiliencePolicy()
        assert p.shard_timeout is None
        assert p.max_retries == 2
        assert p.degrade is True

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"shard_timeout": 0.0},
            {"shard_timeout": -1.0},
            {"max_retries": -1},
        ],
    )
    def test_rejects_bad_knobs(self, kwargs):
        with pytest.raises(ValueError):
            ResiliencePolicy(**kwargs)

    def test_backoff_progression(self, monkeypatch):
        monkeypatch.setattr(resilience, "BACKOFF_SECONDS", 0.1)
        assert _backoff_delay(1) == pytest.approx(0.1)
        assert _backoff_delay(2) == pytest.approx(0.2)
        assert _backoff_delay(3) == pytest.approx(0.4)


class TestFaultSpec:
    def test_parses_once_and_always(self):
        assert _parse_fault_spec("crash:2") == ("crash", 2, False)
        assert _parse_fault_spec("hang:0:always") == ("hang", 0, True)
        assert _parse_fault_spec(None) is None
        assert _parse_fault_spec("") is None

    @pytest.mark.parametrize("raw", ["explode:1", "crash", "crash:1:2:3"])
    def test_rejects_malformed_specs(self, raw):
        with pytest.raises(ValueError):
            _parse_fault_spec(raw)


class TestCrashRecovery:
    def test_shard_killed_mid_ring_recovers(self, matmul4, monkeypatch):
        # A Problem 6.2 shard runs Procedure 5.1's rings over its S.
        serial = solve_joint_optimal(matmul4)
        monkeypatch.setenv(FAULT_ENV_VAR, "crash:0")
        recovered = explore_joint(matmul4, jobs=2)
        assert recovered == serial
        assert recovered.best.mapping == serial.best.mapping
        # The recovery is visible in the failure telemetry.
        assert recovered.stats.shard_retries >= 1
        assert recovered.stats.pool_restarts == 1
        assert recovered.stats.shard_timeouts == 0
        assert not recovered.stats.degraded

    def test_space_search_recovers_from_crash(self, matmul4, monkeypatch):
        serial = solve_space_optimal(matmul4, (1, 2, 3))
        monkeypatch.setenv(FAULT_ENV_VAR, "crash:1")
        recovered = explore_space(matmul4, (1, 2, 3), jobs=2)
        assert recovered == serial
        assert recovered.stats.pool_restarts == 1

    def test_joint_search_recovers_from_crash(self, matmul4, monkeypatch):
        serial = solve_joint_optimal(matmul4)
        monkeypatch.setenv(FAULT_ENV_VAR, "crash:0")
        recovered = explore_joint(matmul4, jobs=2)
        assert recovered == serial
        assert recovered.stats.shard_retries >= 1


class TestTimeoutRecovery:
    def test_hung_shard_is_reaped_and_retried(self, matmul4, monkeypatch):
        serial = solve_space_optimal(matmul4, PI)
        monkeypatch.setenv(FAULT_ENV_VAR, "hang:0")
        monkeypatch.setenv(FAULT_HANG_ENV_VAR, "30")
        policy = ResiliencePolicy(shard_timeout=1.0)
        recovered = explore_space(matmul4, PI, jobs=2, resilience=policy)
        assert recovered == serial
        assert recovered.stats.shard_timeouts >= 1
        assert recovered.stats.pool_restarts >= 1
        assert not recovered.stats.degraded


class TestCorruptOutputRecovery:
    def test_corrupted_shard_output_is_retried(self, matmul4, monkeypatch):
        serial = solve_space_optimal(matmul4, PI)
        monkeypatch.setenv(FAULT_ENV_VAR, "corrupt:0")
        recovered = explore_space(matmul4, PI, jobs=2)
        assert recovered == serial
        assert recovered.stats.shard_retries == 1
        # The pool itself survives a garbage result.
        assert recovered.stats.pool_restarts == 0


class TestDegradation:
    def test_persistent_crash_degrades_in_process(self, matmul4, monkeypatch):
        serial = solve_space_optimal(matmul4, PI)
        monkeypatch.setenv(FAULT_ENV_VAR, "crash:0:always")
        policy = ResiliencePolicy(max_retries=1)
        recovered = explore_space(matmul4, PI, jobs=2, resilience=policy)
        assert recovered == serial
        assert recovered.stats.degraded
        assert recovered.stats.shard_retries >= 1

    def test_exhausted_shard_degrades_the_rest_of_the_run(
        self, matmul4, monkeypatch
    ):
        # With no retries, the first failure ends pool execution: the
        # failed shards are judged in process, never resubmitted.
        serial = solve_space_optimal(matmul4, PI)
        monkeypatch.setenv(FAULT_ENV_VAR, "crash:0:always")
        policy = ResiliencePolicy(max_retries=0)
        recovered = explore_space(matmul4, PI, jobs=2, resilience=policy)
        assert recovered == serial
        assert recovered.stats.degraded
        assert recovered.stats.pool_restarts == 1
        assert recovered.stats.shard_retries == 0

    def test_no_degrade_raises_instead(self, matmul4, monkeypatch):
        monkeypatch.setenv(FAULT_ENV_VAR, "crash:0:always")
        policy = ResiliencePolicy(max_retries=1, degrade=False)
        with pytest.raises(ResilienceError):
            explore_space(matmul4, PI, jobs=2, resilience=policy)

    def test_jobs_1_never_touches_a_pool(self, matmul4, monkeypatch):
        # The in-process path is the degradation target; faults only fire
        # inside pool workers, so jobs=1 is immune by construction.
        monkeypatch.setenv(FAULT_ENV_VAR, "crash:0:always")
        serial = solve_space_optimal(matmul4, PI)
        assert explore_space(matmul4, PI, jobs=1) == serial


class TestCorruptCacheRecovery:
    def _entry_files(self, tmp_path):
        return [p for p in tmp_path.glob("*.json") if not p.name.startswith(".")]

    def test_truncated_entry_recovers_and_quarantines(self, matmul4, tmp_path):
        serial = procedure_5_1(matmul4, SPACE)
        cache = ResultCache(tmp_path)
        explore_schedule(matmul4, SPACE, cache=cache)
        (entry,) = self._entry_files(tmp_path)
        entry.write_text(entry.read_text()[: len(entry.read_text()) // 2])
        recovered = explore_schedule(matmul4, SPACE, cache=cache)
        assert recovered == serial
        assert recovered.stats.cache_hits == 0
        assert recovered.stats.cache_misses == 1
        assert cache.quarantined == 1
        assert list(tmp_path.glob("*.json.corrupt"))
        # The re-search rewrote a good entry: the next replay hits.
        warm = explore_schedule(matmul4, SPACE, cache=cache)
        assert warm == serial
        assert warm.stats.cache_hits == 1

    def test_entry_without_value_is_a_miss_not_a_crash(self, matmul4, tmp_path):
        from repro.dse.cache import CACHE_SCHEMA_VERSION

        serial = procedure_5_1(matmul4, SPACE)
        cache = ResultCache(tmp_path)
        explore_schedule(matmul4, SPACE, cache=cache)
        (entry,) = self._entry_files(tmp_path)
        entry.write_text(json.dumps({"schema": CACHE_SCHEMA_VERSION}))
        recovered = explore_schedule(matmul4, SPACE, cache=cache)
        assert recovered == serial
        assert cache.quarantined == 1


class TestRunnerUnit:
    def test_single_payload_stays_in_process(self):
        runner = ResilientShardRunner(4)
        out = runner.run(lambda p: {"wall_time": 0.0, "evaluated": [p["x"]]},
                         [{"x": 1}])
        assert out == [{"wall_time": 0.0, "evaluated": [1]}]
        assert runner.pool_restarts == 0

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_every_shard_is_journaled_announced_then_polled(self, tmp_path, jobs):
        # One loop for both paths: a stop requested by a shard's
        # shard_done event lands right after it, the last shard
        # included, and a resumed run replays what was journaled.
        payloads = [{"span": (i, i + 1), "x": i} for i in range(jobs)]

        def run(resume):
            stop, events = threading.Event(), []

            def on_progress(event):
                events.append(event)
                if not resume:
                    stop.set()

            journal = CheckpointJournal(tmp_path / "run.ckpt")
            journal.open("run", resume=resume)
            control = RunControl(journal=journal, stop=stop,
                                 on_progress=on_progress)
            with control, ResilientShardRunner(jobs) as runner:
                try:
                    outs = runner.run(_echo_shard, payloads, control)
                except RunInterrupted:
                    outs = None
            return outs, events

        outs, events = run(resume=False)
        assert outs is None
        assert events[0]["event"] == "shard_done"
        outs, events = run(resume=True)
        assert outs == [{"wall_time": 0.0, "evaluated": [i]} for i in range(jobs)]
        assert events[0]["event"] == "shards_resumed"
        assert events[0]["count"] >= 1

    def test_pool_broken_between_submissions_is_retried(self, monkeypatch):
        # A shard's worker can die, and break the pool, before the next
        # shard of the batch is submitted: that submission must count
        # as a lost shard, not crash the run.
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        real_submit = ProcessPoolExecutor.submit
        calls = []

        def submit(pool, fn, /, *args, **kwargs):
            calls.append(fn)
            if len(calls) == 2:
                raise BrokenProcessPool("a worker died during submission")
            return real_submit(pool, fn, *args, **kwargs)

        monkeypatch.setattr(ProcessPoolExecutor, "submit", submit)
        with ResilientShardRunner(2) as runner:
            outs = runner.run(_echo_shard, [{"x": 1}, {"x": 2}])
        assert outs == [
            {"wall_time": 0.0, "evaluated": [1]},
            {"wall_time": 0.0, "evaluated": [2]},
        ]
        assert runner.pool_restarts == 1 and runner.shard_retries == 1

    def test_abandoned_pool_terminates_its_workers(self):
        runner = ResilientShardRunner(2)
        runner._ensure_pool().submit(_nap, 30)
        procs = list(runner._pool._processes.values())
        assert procs
        runner._abandon_pool()
        # The abandoned pool's manager thread may reap a worker before
        # we do; its exit code is then lost, but so is its pid.
        deadline = time.monotonic() + 10
        while procs and time.monotonic() < deadline:
            procs = [proc for proc in procs if proc.exitcode is None and _alive(proc.pid)]
            time.sleep(0.05)
        assert not procs, "a hung worker outlived its pool"

    def test_workers_drop_the_parents_signal_plumbing(self):
        # A parent with its own SIGTERM handler and wakeup fd (as the
        # job server's asyncio loop has): a terminated worker must die,
        # not write SIGTERM into the parent's wakeup fd.
        import signal
        import socket

        ours, theirs = socket.socketpair()
        ours.setblocking(False)
        old_fd = signal.set_wakeup_fd(ours.fileno())
        old_handler = signal.signal(signal.SIGTERM, lambda *_: None)
        try:
            with ResilientShardRunner(2) as runner:
                outs = runner.run(_signal_state, [{}, {}])
        finally:
            signal.signal(signal.SIGTERM, old_handler)
            signal.set_wakeup_fd(old_fd)
            ours.close()
            theirs.close()
        assert [out["evaluated"] for out in outs] == [[True, -1], [True, -1]]

    def test_telemetry_application(self):
        from repro.dse.progress import SearchStats

        runner = ResilientShardRunner(2)
        runner.shard_retries = 3
        runner.shard_timeouts = 1
        runner.pool_restarts = 2
        runner.degraded = True
        stats = SearchStats()
        runner.apply_telemetry(stats)
        assert stats.shard_retries == 3
        assert stats.shard_timeouts == 1
        assert stats.pool_restarts == 2
        assert stats.degraded is True
        # Telemetry never participates in equality.
        assert stats == SearchStats()


class TestPipelineAndStats:
    def test_failure_counters_round_trip_and_format(self):
        from repro.dse.progress import SearchStats, format_stats

        stats = SearchStats(
            shard_retries=2, shard_timeouts=1, pool_restarts=1, degraded=True
        )
        data = stats.to_dict()
        assert data["shard_retries"] == 2
        assert data["pool_restarts"] == 1
        assert data["degraded"] is True
        rebuilt = SearchStats.from_dict(data)
        assert rebuilt.shard_timeouts == 1
        text = format_stats(stats)
        assert "resilience" in text and "degraded" in text


class TestCLIFlags:
    def test_explore_accepts_resilience_flags(self, tmp_path, capsys):
        from repro.cli import main

        code = main([
            "explore", "-a", "matmul", "--mu", "3", "-p", "1,3,1",
            "--jobs", "2", "--cache-dir", str(tmp_path),
            "--shard-timeout", "30", "--max-retries", "1", "--no-degrade",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "space search" in out and "#1:" in out

    def test_bad_shard_timeout_is_a_clean_exit(self, tmp_path):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main([
                "explore", "-a", "matmul", "--mu", "3", "-s", "1,1,-1",
                "--cache-dir", str(tmp_path), "--shard-timeout", "-1",
            ])
