"""Unit tests for the failure-containment machinery.

Everything here is in-process: the token bucket and breaker run on an
injected fake clock, the quarantine registry and the degraded store on
``tmp_path``.  The end-to-end behavior (a real server under injected
faults) lives in ``test_chaos.py``.
"""

import errno
import json
import os

import pytest

from repro.serve.hardening import (
    BreakerOpen,
    CircuitBreaker,
    HardeningPolicy,
    QuarantineRegistry,
    QueueFull,
    RateLimited,
    Rejected,
    TokenBucket,
    _parse_fault_spec,
)
from repro.serve.protocol import error_body
from repro.serve.queue import TenantBusy, TenantPolicy
from repro.serve.store import JobRecord, JobStore


class FakeClock:
    def __init__(self):
        self.now = 1000.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


# -- policy validation --------------------------------------------------------


class TestHardeningPolicy:
    def test_defaults_are_valid(self):
        policy = HardeningPolicy()
        assert policy.max_queue == 256
        assert policy.breaker_threshold == 3

    @pytest.mark.parametrize("kwargs", [
        {"max_queue": 0},
        {"job_deadline": 0.0},
        {"job_deadline": -1.0},
        {"watchdog_grace": -0.1},
        {"breaker_threshold": 0},
        {"breaker_cooldown": -1.0},
        {"retry_after": 0.0},
    ])
    def test_bad_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            HardeningPolicy(**kwargs)

    def test_disabled_turns_everything_off(self):
        policy = HardeningPolicy.disabled()
        assert policy.max_queue is None
        assert policy.job_deadline is None
        assert policy.breaker_threshold is None


class TestRejectedShapes:
    def test_statuses_and_codes(self):
        assert QueueFull("x").status == 503
        assert QueueFull("x").code == "queue_full"
        assert RateLimited("x").status == 429
        assert BreakerOpen("x").status == 503
        assert TenantBusy("x").status == 429
        assert TenantBusy("x").code == "tenant_busy"
        assert issubclass(TenantBusy, Rejected)

    def test_retry_after_carried(self):
        exc = QueueFull("full", retry_after=2.5)
        assert exc.retry_after == 2.5

    def test_error_body_shape(self):
        body = error_body("nope", code="queue_full", retry_after=1.5)
        assert body == {"error": "nope", "code": "queue_full",
                        "retry_after": 1.5}
        assert error_body("nope") == {"error": "nope"}


# -- token bucket --------------------------------------------------------------


class TestTokenBucket:
    def test_burst_then_refill(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=2.0, burst=3, clock=clock)
        assert [bucket.try_acquire() for _ in range(3)] == [0.0, 0.0, 0.0]
        wait = bucket.try_acquire()
        assert wait == pytest.approx(0.5)  # 1 token at 2/s
        clock.advance(0.5)
        assert bucket.try_acquire() == 0.0

    def test_tokens_cap_at_burst(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=100.0, burst=2, clock=clock)
        clock.advance(60)
        assert bucket.try_acquire() == 0.0
        assert bucket.try_acquire() == 0.0
        assert bucket.try_acquire() > 0.0

    def test_default_burst_is_rate(self):
        assert TokenBucket(rate=8.0).burst == 8
        assert TokenBucket(rate=0.5).burst == 1

    @pytest.mark.parametrize("kwargs", [
        {"rate": 0.0}, {"rate": -1.0}, {"rate": 1.0, "burst": 0},
    ])
    def test_bad_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            TokenBucket(**kwargs)


# -- circuit breaker -----------------------------------------------------------


class TestCircuitBreaker:
    def test_opens_after_consecutive_failures(self):
        clock = FakeClock()
        breaker = CircuitBreaker(3, cooldown=10.0, clock=clock)
        assert breaker.state == "closed"
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == "closed"
        assert breaker.allow() == 0.0
        breaker.record_failure()
        assert breaker.state == "open"
        assert breaker.allow() > 0.0
        assert breaker.opened_total == 1

    def test_success_resets_the_streak(self):
        breaker = CircuitBreaker(2, cooldown=10.0, clock=FakeClock())
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == "closed"

    def test_half_open_probe_success_closes(self):
        clock = FakeClock()
        breaker = CircuitBreaker(1, cooldown=5.0, clock=clock)
        breaker.record_failure()
        assert breaker.allow() > 0.0          # open: shed
        clock.advance(5.0)
        assert breaker.state == "half_open"
        assert breaker.allow() == 0.0         # the probe
        assert breaker.allow() > 0.0          # only ONE probe at a time
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.allow() == 0.0

    def test_half_open_probe_failure_reopens(self):
        clock = FakeClock()
        breaker = CircuitBreaker(1, cooldown=5.0, clock=clock)
        breaker.record_failure()
        clock.advance(5.0)
        assert breaker.allow() == 0.0         # probe admitted
        breaker.record_failure()              # probe failed
        assert breaker.state == "open"
        assert breaker.allow() > 0.0
        assert breaker.opened_total == 2

    def test_retry_after_counts_down_the_cooldown(self):
        clock = FakeClock()
        breaker = CircuitBreaker(1, cooldown=10.0, clock=clock)
        breaker.record_failure()
        assert breaker.allow() == pytest.approx(10.0)
        clock.advance(4.0)
        assert breaker.allow() == pytest.approx(6.0)


# -- quarantine registry --------------------------------------------------------


class TestQuarantineRegistry:
    def test_quarantines_at_threshold(self, tmp_path):
        registry = QuarantineRegistry(tmp_path / "q", threshold=2)
        digest = "a" * 64
        assert registry.record_failure(digest, "boom 1") is False
        assert registry.get(digest) is None
        assert registry.record_failure(digest, "boom 2") is True
        entry = registry.get(digest)
        assert entry is not None
        assert entry["strikes"] == 2
        assert entry["errors"][-1] == "boom 2"
        assert len(registry) == 1

    def test_survives_restart(self, tmp_path):
        root = tmp_path / "q"
        registry = QuarantineRegistry(root, threshold=1)
        registry.record_failure("b" * 64, "dead")
        reloaded = QuarantineRegistry(root, threshold=1)
        assert reloaded.get("b" * 64) is not None
        assert reloaded.strikes("b" * 64) == 1

    def test_partial_strikes_survive_restart(self, tmp_path):
        """A poison spec is executed at most `threshold` times EVER —
        strikes must accumulate across server generations."""
        root = tmp_path / "q"
        QuarantineRegistry(root, threshold=3).record_failure("c" * 64, "x")
        reloaded = QuarantineRegistry(root, threshold=3)
        assert reloaded.strikes("c" * 64) == 1
        assert reloaded.record_failure("c" * 64, "y") is False
        assert reloaded.record_failure("c" * 64, "z") is True

    def test_success_clears(self, tmp_path):
        registry = QuarantineRegistry(tmp_path / "q", threshold=2)
        registry.record_failure("d" * 64, "flake")
        registry.clear("d" * 64)
        assert registry.strikes("d" * 64) == 0
        assert list((tmp_path / "q").glob("*.json")) == []

    def test_entry_without_checksum_resets_strikes(self, tmp_path):
        # An entry written before entries carried a checksum is dropped.
        root = tmp_path / "q"
        root.mkdir()
        (root / ("f" * 32 + ".json")).write_text(json.dumps({
            "digest": "f" * 64, "strikes": 2, "errors": ["x", "y"],
            "quarantined": False,
        }))
        registry = QuarantineRegistry(root, threshold=3)
        assert registry.strikes("f" * 64) == 0
        assert registry.record_failure("f" * 64, "z") is False

    def test_damaged_entry_ignored(self, tmp_path):
        root = tmp_path / "q"
        root.mkdir()
        (root / "junk.json").write_text("{not json")
        registry = QuarantineRegistry(root, threshold=1)
        assert len(registry) == 0

    def test_disk_failure_keeps_memory_fidelity(self, tmp_path, monkeypatch):
        registry = QuarantineRegistry(tmp_path / "q", threshold=1)

        def boom(*a, **k):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr("tempfile.mkstemp", boom)
        assert registry.record_failure("e" * 64, "dead") is True
        assert registry.get("e" * 64) is not None
        assert registry.write_errors == 1


# -- fault-spec parsing ----------------------------------------------------------


class TestFaultSpec:
    def test_parse(self):
        assert _parse_fault_spec(None) is None
        assert _parse_fault_spec("") is None
        assert _parse_fault_spec("crash") == ("crash", False)
        assert _parse_fault_spec("disk_full:always") == ("disk_full", True)

    @pytest.mark.parametrize("raw", ["nope", "crash:often", "crash:always:x"])
    def test_bad_specs_rejected(self, raw):
        with pytest.raises(ValueError):
            _parse_fault_spec(raw)


# -- store degradation ------------------------------------------------------------


def make_record(i: int = 0) -> JobRecord:
    return JobRecord(id=f"job{i:013d}xyz", digest="f" * 64,
                     spec={"task": "schedule"}, task="schedule")


class TestStoreDegradation:
    def test_enospc_on_save_degrades_not_crashes(self, tmp_path, monkeypatch):
        store = JobStore(tmp_path / "state")
        record = make_record()

        def boom(*a, **k):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr("tempfile.mkstemp", boom)
        store.save(record)  # must not raise
        assert record.degraded is True
        assert store.degraded is True
        assert store.health()["ok"] is False
        assert store.health()["memory_records"] == 1
        # The in-memory overlay answers reads.
        assert store.load(record.id) is record
        assert [r.id for r in store.load_all()] == [record.id]

    def test_recovery_drains_the_overlay(self, tmp_path, monkeypatch):
        store = JobStore(tmp_path / "state")
        record = make_record()
        real_mkstemp = __import__("tempfile").mkstemp
        fail = {"on": True}

        def flaky(*a, **k):
            if fail["on"]:
                raise OSError(errno.EIO, "I/O error")
            return real_mkstemp(*a, **k)

        monkeypatch.setattr("tempfile.mkstemp", flaky)
        store.save(record)
        assert store.degraded is True
        fail["on"] = False
        store.save(record)  # disk is back
        assert store.degraded is False
        assert record.degraded is False
        assert store.health()["ok"] is True
        # The durable copy has the flag cleared too.
        data = json.loads(
            (tmp_path / "state" / "jobs" / f"{record.id}.json").read_text())
        assert data["degraded"] is False

    def test_fsync_failure_quarantines_the_stale_record(self, tmp_path,
                                                        monkeypatch):
        store = JobStore(tmp_path / "state")
        record = make_record()
        store.save(record)  # good generation on disk
        path = tmp_path / "state" / "jobs" / f"{record.id}.json"
        assert path.exists()

        def bad_fsync(fd):
            raise OSError(errno.EIO, "I/O error")

        monkeypatch.setattr(os, "fsync", bad_fsync)
        record.state = "running"
        store.save(record)  # must not raise
        assert record.degraded is True
        assert not path.exists()  # stale record moved aside, not trusted
        assert path.with_name(path.name + ".fsyncfail").exists()
        assert store.load(record.id).state == "running"  # memory wins

    def test_event_append_failure_degrades_to_memory(self, tmp_path,
                                                     monkeypatch):
        store = JobStore(tmp_path / "state")
        store.append_event("j1", {"event": "state", "state": "queued"})

        real_open = open

        def boom(*args, **kwargs):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr("builtins.open", boom)
        store.append_event("j1", {"event": "state", "state": "running"})
        monkeypatch.setattr("builtins.open", real_open)
        # Sticky: later events stay in memory so order is preserved.
        store.append_event("j1", {"event": "state", "state": "done"})
        events = store.read_events("j1")
        assert [e["state"] for e in events] == ["queued", "running", "done"]
        assert store.health()["memory_event_jobs"] == 1

    def test_degraded_record_roundtrips_public_flag(self, tmp_path,
                                                    monkeypatch):
        store = JobStore(tmp_path / "state")
        record = make_record()
        monkeypatch.setattr("tempfile.mkstemp",
                            lambda *a, **k: (_ for _ in ()).throw(
                                OSError(errno.ENOSPC, "full")))
        store.save(record)
        assert record.public()["degraded"] is True


# -- tenant policy extensions -----------------------------------------------------


class TestTenantPolicyRate:
    def test_from_dict_accepts_rate_and_burst(self):
        policy = TenantPolicy.from_dict({"rate": 5.0, "burst": 10})
        assert policy.rate == 5.0
        assert policy.burst == 10

    def test_unknown_fields_still_rejected(self):
        with pytest.raises(ValueError):
            TenantPolicy.from_dict({"rate": 5.0, "surprise": 1})
