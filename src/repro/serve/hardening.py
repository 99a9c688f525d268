"""Failure containment for the mapping service.

The DSE engine already survives its own failure modes — shard crashes
retry (:mod:`repro.dse.resilience`), kills resume from the journal
(:mod:`repro.dse.checkpoint`) — but without this layer every one of
them can still take the *server* down or degrade it silently: an
unbounded queue accepts until memory dies, a spec that reliably crashes
the engine is happily re-executed on every resubmit, a hung search pins
a worker slot forever.  This module is the containment layer between
the HTTP front door and the engine:

* :class:`HardeningPolicy` — the knobs (queue bound, per-job deadline,
  breaker threshold/cooldown), validated at construction.
* :class:`TokenBucket` — per-tenant submit rate limiting.
* :class:`CircuitBreaker` — per-tenant closed → open → half-open
  breaker: a tenant whose jobs keep failing stops being admitted until
  a cooldown passes, then one probe job decides whether to re-close.
* :class:`QuarantineRegistry` — per-digest failure strikes, persisted;
  a spec that fails :attr:`~HardeningPolicy.breaker_threshold` times is
  *poison* and is never executed again — resubmission answers from the
  recorded failure.
* :class:`Rejected` and friends — typed load-shedding rejections, each
  carrying the HTTP status and a ``Retry-After`` hint the server
  returns verbatim.
* ``$REPRO_SERVE_FAULT`` — deterministic chaos injection, same style
  as the engine's ``$REPRO_DSE_FAULT``: ``crash`` / ``hang`` fire in
  the execution bridge, ``disk_full`` / ``corrupt_store`` in the
  :class:`~repro.serve.store.JobStore` write paths.  Each fires once
  per process unless suffixed ``:always``.

Everything here is stdlib-only and loop-agnostic: the classes are
plain objects the single-threaded :class:`~repro.serve.queue.JobManager`
drives, so none of them need locks beyond the fault bookkeeping.
"""

from __future__ import annotations

import logging
import os
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from ..dse import records

logger = logging.getLogger("repro.serve.hardening")

__all__ = [
    "FAULT_ENV_VAR",
    "FAULT_HANG_ENV_VAR",
    "FAULT_MODES",
    "take_fault",
    "reset_fault_state",
    "Rejected",
    "QueueFull",
    "RateLimited",
    "BreakerOpen",
    "HardeningPolicy",
    "TokenBucket",
    "CircuitBreaker",
    "QuarantineRegistry",
]


# -- chaos injection ---------------------------------------------------------

#: ``mode[:always]`` with mode in :data:`FAULT_MODES`.  Without
#: ``always`` the fault fires exactly once per process — enough to
#: poison one execution and then watch the containment machinery work.
FAULT_ENV_VAR = "REPRO_SERVE_FAULT"

#: How long a ``hang`` fault sleeps, in seconds (default 30).  The
#: watchdog abandons the hung execution long before that; the sleep
#: only bounds how long the orphaned thread lingers.
FAULT_HANG_ENV_VAR = "REPRO_SERVE_FAULT_HANG"

FAULT_MODES = ("crash", "hang", "disk_full", "corrupt_store")

_fired: set[str] = set()
_fired_lock = threading.Lock()


def _parse_fault_spec(raw: str | None) -> tuple[str, bool] | None:
    """``(mode, always)`` from a ``$REPRO_SERVE_FAULT`` value."""
    if not raw:
        return None
    parts = raw.split(":")
    if parts[0] not in FAULT_MODES or len(parts) > 2 or (
            len(parts) == 2 and parts[1] != "always"):
        raise ValueError(
            f"bad {FAULT_ENV_VAR} value {raw!r}; expected "
            f"'mode[:always]' with mode in {FAULT_MODES}"
        )
    return parts[0], len(parts) == 2


def take_fault(point: str) -> bool:
    """True when the configured fault targets ``point`` and should fire.

    ``point`` is one of :data:`FAULT_MODES`.  A one-shot fault (no
    ``:always``) is consumed by the first call that matches it.
    """
    spec = _parse_fault_spec(os.environ.get(FAULT_ENV_VAR))
    if spec is None or spec[0] != point:
        return False
    mode, always = spec
    if always:
        return True
    with _fired_lock:
        if mode in _fired:
            return False
        _fired.add(mode)
        return True


def reset_fault_state() -> None:
    """Forget which one-shot faults already fired (tests only)."""
    with _fired_lock:
        _fired.clear()


# -- load-shedding rejections ------------------------------------------------


class Rejected(Exception):
    """A submit the server refuses to take on right now.

    Not an error in the spec — the work is valid, the server is simply
    protecting itself.  Carries everything the HTTP layer needs for a
    well-formed shed response: the status, a machine-readable ``code``
    and the ``Retry-After`` hint in seconds.
    """

    status = 503
    code = "rejected"

    def __init__(self, message: str, *, retry_after: float = 1.0) -> None:
        super().__init__(message)
        self.retry_after = retry_after


class QueueFull(Rejected):
    """The bounded pending queue is at capacity (HTTP 503)."""

    status = 503
    code = "queue_full"


class RateLimited(Rejected):
    """The tenant's token bucket is empty (HTTP 429)."""

    status = 429
    code = "rate_limited"


class BreakerOpen(Rejected):
    """The tenant's circuit breaker is open (HTTP 503)."""

    status = 503
    code = "breaker_open"


# -- policy -------------------------------------------------------------------


@dataclass(frozen=True)
class HardeningPolicy:
    """The failure-containment knobs, validated at construction.

    Attributes
    ----------
    max_queue:
        Server-wide bound on *queued* jobs (running jobs don't count —
        they hold worker slots, not queue space).  Submits past the
        bound are shed with 503 + ``Retry-After`` instead of buffering
        without limit.  ``None`` disables the bound.
    job_deadline:
        Per-job wall-clock seconds before the watchdog steps in: it
        asks the search to stop (the engine parks at the next shard
        boundary, resumable), and if the execution ignores even that
        for ``watchdog_grace`` seconds, abandons it and reclaims the
        worker slot.  Composes with per-tenant ``RunBudget``s — the
        budget is the engine's own cooperative stop; the watchdog is
        the server's backstop for executions too wedged to cooperate.
        ``None`` disables the watchdog.
    watchdog_grace:
        Seconds between the watchdog's stop request and abandoning the
        execution outright.
    breaker_threshold:
        Failures before containment trips — both meanings on purpose:
        a *digest* that fails this many times total is quarantined as
        poison (never executed again), and a *tenant* with this many
        consecutive failures has its breaker opened.  ``None`` disables
        breaker and quarantine.
    breaker_cooldown:
        Seconds an open breaker waits before admitting one half-open
        probe job.
    retry_after:
        Default ``Retry-After`` hint (seconds) on shed responses that
        have no better estimate of their own.
    """

    max_queue: int | None = 256
    job_deadline: float | None = None
    watchdog_grace: float = 2.0
    breaker_threshold: int | None = 3
    breaker_cooldown: float = 30.0
    retry_after: float = 1.0

    def __post_init__(self) -> None:
        if self.max_queue is not None and self.max_queue < 1:
            raise ValueError(
                f"max_queue must be >= 1 or None, got {self.max_queue}")
        if self.job_deadline is not None and self.job_deadline <= 0:
            raise ValueError(
                f"job_deadline must be > 0 or None, got {self.job_deadline}")
        if self.watchdog_grace < 0:
            raise ValueError(
                f"watchdog_grace must be >= 0, got {self.watchdog_grace}")
        if self.breaker_threshold is not None and self.breaker_threshold < 1:
            raise ValueError(
                "breaker_threshold must be >= 1 or None, got "
                f"{self.breaker_threshold}")
        if self.breaker_cooldown < 0:
            raise ValueError(
                f"breaker_cooldown must be >= 0, got {self.breaker_cooldown}")
        if self.retry_after <= 0:
            raise ValueError(
                f"retry_after must be > 0, got {self.retry_after}")

    @classmethod
    def disabled(cls) -> "HardeningPolicy":
        """Everything off — the pre-hardening server, for baselines."""
        return cls(max_queue=None, job_deadline=None, breaker_threshold=None)


# -- token bucket -------------------------------------------------------------


class TokenBucket:
    """A classic token bucket on the monotonic clock.

    ``rate`` tokens are refilled per second up to ``burst``; each
    admitted submit spends one.  :meth:`try_acquire` never blocks — it
    returns how long the caller should wait, which becomes the
    ``Retry-After`` hint.
    """

    def __init__(self, rate: float, burst: int | None = None,
                 *, clock=time.monotonic) -> None:
        if rate <= 0:
            raise ValueError(f"rate must be > 0 tokens/s, got {rate}")
        if burst is None:
            burst = max(1, int(rate))
        if burst < 1:
            raise ValueError(f"burst must be >= 1, got {burst}")
        self.rate = float(rate)
        self.burst = int(burst)
        self._clock = clock
        self._tokens = float(burst)
        self._stamp = clock()

    def _refill(self) -> None:
        now = self._clock()
        self._tokens = min(self.burst,
                           self._tokens + (now - self._stamp) * self.rate)
        self._stamp = now

    def try_acquire(self) -> float:
        """Take one token; 0.0 on success, else seconds until one."""
        self._refill()
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            return 0.0
        return (1.0 - self._tokens) / self.rate


# -- circuit breaker ----------------------------------------------------------


class CircuitBreaker:
    """Per-tenant closed → open → half-open → closed breaker.

    ``threshold`` *consecutive* failures open the breaker: the tenant's
    submits are shed for ``cooldown`` seconds.  After the cooldown one
    probe job is admitted (half-open); its success closes the breaker,
    its failure re-opens it for another cooldown.
    """

    def __init__(self, threshold: int, cooldown: float,
                 *, clock=time.monotonic) -> None:
        if threshold < 1:
            raise ValueError(f"threshold must be >= 1, got {threshold}")
        self.threshold = threshold
        self.cooldown = cooldown
        self._clock = clock
        self._failures = 0
        self._opened_at: float | None = None
        self._probing = False
        #: Lifetime counts, surfaced on /healthz.
        self.opened_total = 0

    @property
    def state(self) -> str:
        if self._opened_at is None:
            return "closed"
        if self._probing:
            return "half_open"
        if self._clock() - self._opened_at >= self.cooldown:
            return "half_open"
        return "open"

    def allow(self) -> float:
        """Admit or shed one submit; 0.0 admits, else retry-after secs.

        Admitting from the half-open state claims the probe slot:
        further submits are shed until the probe's outcome is recorded.
        """
        if self._opened_at is None:
            return 0.0
        elapsed = self._clock() - self._opened_at
        if elapsed < self.cooldown:
            return max(self.cooldown - elapsed, 0.001)
        if self._probing:
            return max(self.cooldown, 0.001)
        self._probing = True  # this submit is the half-open probe
        return 0.0

    def record_success(self) -> None:
        self._failures = 0
        self._opened_at = None
        self._probing = False

    def record_failure(self) -> None:
        self._failures += 1
        if self._probing or self._failures >= self.threshold:
            # A failed probe re-opens immediately; so does crossing the
            # threshold while closed.
            if self._opened_at is None or self._probing:
                self.opened_total += 1
            self._opened_at = self._clock()
            self._probing = False
            self._failures = 0


# -- poison-job quarantine ------------------------------------------------------


class QuarantineRegistry:
    """Per-digest failure strikes, persisted under the state directory.

    A digest that accumulates ``threshold`` strikes is quarantined:
    the registry records the final failure and the server answers any
    future submit of that digest from the record instead of burning
    another worker on it.  Strikes survive restarts (one small record
    file per digest, :mod:`repro.dse.records`), so a poison spec is
    executed at most ``threshold`` times *ever*, not per server
    generation.  An entry that does not verify is moved aside
    (``*.json.corrupt``) and its strikes start over.

    Disk writes are best-effort: a registry that cannot persist keeps
    full fidelity in memory and the server keeps running — this layer
    must never be the thing that takes the service down.
    """

    def __init__(self, root: str | os.PathLike, threshold: int) -> None:
        if threshold < 1:
            raise ValueError(f"threshold must be >= 1, got {threshold}")
        self.root = Path(root)
        self.threshold = threshold
        self._entries: dict[str, dict] = {}
        self.write_errors = 0
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            paths = sorted(self.root.glob("[!.]*.json"))  # no .tmp-* files
        except OSError as exc:
            logger.warning("quarantine registry unreadable (%s); "
                           "starting empty, memory-only", exc)
            paths = []
        for path in paths:
            entry = records.read_record(path)
            if entry is records.DAMAGED:
                logger.warning("set aside damaged quarantine entry %s", path)
            elif entry is not None:
                self._entries[entry["digest"]] = entry

    def __len__(self) -> int:
        return sum(1 for e in self._entries.values() if e.get("quarantined"))

    def _path(self, digest: str) -> Path:
        return self.root / f"{digest[:32]}.json"

    def record_failure(self, digest: str, error: str) -> bool:
        """Add one strike; returns True when the digest is (now)
        quarantined."""
        entry = self._entries.get(digest)
        if entry is None:
            entry = {"digest": digest, "strikes": 0, "errors": [],
                     "quarantined": False}
            self._entries[digest] = entry
        if entry["quarantined"]:
            return True
        entry["strikes"] += 1
        entry["errors"] = (entry["errors"] + [error])[-3:]
        entry["quarantined"] = entry["strikes"] >= self.threshold
        if entry["quarantined"]:
            entry["quarantined_at"] = time.time()
            logger.warning("digest %s quarantined after %d failure(s): %s",
                           digest[:16], entry["strikes"], error)
        try:
            records.write_atomic(self._path(digest), records.encode_record(entry))
        except OSError as exc:
            self.write_errors += 1
            logger.warning("quarantine entry for %s kept memory-only: %s",
                           digest[:16], exc)
        return entry["quarantined"]

    def get(self, digest: str) -> dict | None:
        """The quarantine record, or ``None`` if the digest may run."""
        entry = self._entries.get(digest)
        if entry is not None and entry.get("quarantined"):
            return entry
        return None

    def strikes(self, digest: str) -> int:
        entry = self._entries.get(digest)
        return entry["strikes"] if entry else 0

    def clear(self, digest: str) -> None:
        """A success wipes the slate (strikes were transient flakes)."""
        if self._entries.pop(digest, None) is not None:
            try:
                self._path(digest).unlink(missing_ok=True)
            except OSError:
                self.write_errors += 1
