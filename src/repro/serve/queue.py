"""Admission, deduplication and scheduling of jobs.

:class:`JobManager` is the single-writer brain of the server.  It lives
on the asyncio event loop; worker threads reach it only through
``loop.call_soon_threadsafe`` hops, so job state never needs a lock.

Deduplication is by content digest: two ``POST /jobs`` bodies that
canonicalize to the same engine run key are the *same search*, so the
second request attaches to the first job (or is answered instantly if
it already finished) instead of enqueueing duplicate work.  A failed or
cancelled job is re-armed by a new identical request — resubmitting is
the retry button.

Admission is layered (:mod:`repro.serve.hardening` supplies the
machinery), cheapest check first, and *new work only* — requests that
deduplicate onto an existing job are always admitted, they add nothing:

1. **quarantine** — a poison digest is answered from its recorded
   failure, never executed again;
2. **circuit breaker** — a tenant with ``breaker_threshold``
   consecutive failures is shed (503) until a cooldown passes, then
   one half-open probe decides;
3. **rate limit** — the tenant's token bucket (429 when empty);
4. **queue bound** — the server-wide cap on queued jobs (503);
5. **tenant cap** — ``max_active`` queued+running jobs (429).

Each of :class:`TenantPolicy`'s jobs also gets a fresh
:class:`~repro.dse.checkpoint.RunBudget` (budgets are stateful timers,
so they are minted per run, never shared).
"""

from __future__ import annotations

import asyncio
import logging
from dataclasses import dataclass

from ..dse.checkpoint import RunBudget
from .hardening import (
    BreakerOpen,
    CircuitBreaker,
    HardeningPolicy,
    QuarantineRegistry,
    QueueFull,
    RateLimited,
    Rejected,
    TokenBucket,
)
from .protocol import RESUMABLE_STATES, TERMINAL_STATES, JobSpec
from .store import ID_LENGTH, JobRecord, JobStore

logger = logging.getLogger("repro.serve.queue")

__all__ = ["TenantPolicy", "TenantBusy", "JobManager"]


class TenantBusy(Rejected):
    """Tenant is at its in-flight job cap (HTTP 429)."""

    status = 429
    code = "tenant_busy"


@dataclass(frozen=True)
class TenantPolicy:
    """Per-tenant admission caps and resource ceilings.

    ``max_active`` bounds queued+running jobs; ``rate``/``burst``
    configure the tenant's submit token bucket (tokens per second and
    bucket depth); the rest mint the :class:`RunBudget` each of the
    tenant's jobs runs under.
    """

    max_active: int | None = None
    max_seconds: float | None = None
    max_shards: int | None = None
    max_bits: int | None = None
    rate: float | None = None
    burst: int | None = None

    def budget(self) -> RunBudget | None:
        """A fresh budget for one run (``None`` if unlimited).

        Fresh per run on purpose: ``RunBudget`` starts its wall clock
        when the run starts, and a resumed run gets a full budget again
        — the journal already guarantees resumed work is never re-paid.
        """
        if (self.max_seconds is None and self.max_shards is None
                and self.max_bits is None):
            return None
        return RunBudget(max_seconds=self.max_seconds,
                         max_shards=self.max_shards,
                         max_bits=self.max_bits)

    @classmethod
    def from_dict(cls, data: dict) -> TenantPolicy:
        known = {"max_active", "max_seconds", "max_shards", "max_bits",
                 "rate", "burst"}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(
                f"unknown tenant policy field(s) {unknown}; "
                f"allowed: {sorted(known)}"
            )
        return cls(**data)


class JobManager:
    """Owns job records, the run queue, and progress-event fan-out.

    Every method (except the ``*_threadsafe`` hops) must run on the
    event loop thread.
    """

    def __init__(self, store: JobStore, *,
                 tenants: dict[str, TenantPolicy] | None = None,
                 hardening: HardeningPolicy | None = None) -> None:
        self.store = store
        self.tenants = dict(tenants or {})
        self.hardening = hardening or HardeningPolicy()
        self.jobs: dict[str, JobRecord] = {}
        self.queue: asyncio.Queue[str] = asyncio.Queue()
        if self.hardening.breaker_threshold is not None:
            self.quarantine: QuarantineRegistry | None = QuarantineRegistry(
                store.root / "quarantine", self.hardening.breaker_threshold
            )
        else:
            self.quarantine = None
        self._breakers: dict[str, CircuitBreaker] = {}
        self._buckets: dict[str, TokenBucket] = {}
        #: Lifetime shed counts by rejection code, for /healthz.
        self.shed_counts: dict[str, int] = {}
        #: Per-job wakeup for event-stream followers; broadcast via
        #: replacing the event so every waiter sees each edge.
        self._event_waiters: dict[str, asyncio.Event] = {}
        self._loop: asyncio.AbstractEventLoop | None = None

    def bind_loop(self, loop: asyncio.AbstractEventLoop) -> None:
        self._loop = loop

    def policy_for(self, tenant: str) -> TenantPolicy:
        return self.tenants.get(tenant) or self.tenants.get("default") \
            or TenantPolicy()

    def breaker_for(self, tenant: str) -> CircuitBreaker | None:
        if self.hardening.breaker_threshold is None:
            return None
        breaker = self._breakers.get(tenant)
        if breaker is None:
            breaker = CircuitBreaker(self.hardening.breaker_threshold,
                                     self.hardening.breaker_cooldown)
            self._breakers[tenant] = breaker
        return breaker

    def _bucket_for(self, tenant: str) -> TokenBucket | None:
        policy = self.policy_for(tenant)
        if policy.rate is None:
            return None
        bucket = self._buckets.get(tenant)
        if bucket is None:
            bucket = TokenBucket(policy.rate, policy.burst)
            self._buckets[tenant] = bucket
        return bucket

    # -- health ----------------------------------------------------------

    def queued_depth(self) -> int:
        return sum(1 for r in self.jobs.values() if r.state == "queued")

    def breaker_states(self) -> dict:
        return {
            tenant: {"state": b.state, "opened_total": b.opened_total}
            for tenant, b in sorted(self._breakers.items())
        }

    # -- startup ---------------------------------------------------------

    def recover(self) -> int:
        """Reload persisted jobs and re-enqueue every non-terminal one.

        A job found ``running`` was in flight when the previous server
        died — its journal holds the completed shards, so it goes back
        on the queue with ``resume`` semantics, same as ``interrupted``
        and ``queued`` ones; its event log is trimmed to its readable
        prefix first.  Quarantined digests are the exception:
        their recorded failure is the answer, so they are *not* re-run
        even across a restart.  Returns how many jobs were re-enqueued.
        """
        requeued = 0
        for record in self.store.load_all():
            self.jobs[record.id] = record
            if (self.quarantine is not None
                    and self.quarantine.get(record.digest) is not None):
                if record.state in RESUMABLE_STATES or not record.quarantined:
                    entry = self.quarantine.get(record.digest)
                    record.state = "failed"
                    record.quarantined = True
                    if record.error is None and entry["errors"]:
                        record.error = entry["errors"][-1]
                    self.store.save(record)
                    logger.info("job %s stays quarantined across restart",
                                record.id)
                continue
            if record.state in RESUMABLE_STATES:
                self.store.trim_events(record.id)
                if record.state != "queued":
                    record.state = "queued"
                    record.resumes += 1
                    self.store.save(record)
                self.queue.put_nowait(record.id)
                requeued += 1
                logger.info("recovered job %s (resume #%d)",
                            record.id, record.resumes)
        return requeued

    # -- admission -------------------------------------------------------

    def _active_for(self, tenant: str) -> int:
        return sum(
            1 for r in self.jobs.values()
            if r.tenant == tenant and r.state in ("queued", "running")
        )

    def _shed(self, exc: Rejected) -> Rejected:
        self.shed_counts[exc.code] = self.shed_counts.get(exc.code, 0) + 1
        logger.info("shed submit (%s): %s", exc.code, exc)
        return exc

    def submit(self, spec: JobSpec) -> tuple[JobRecord, bool]:
        """Admit a validated spec; returns ``(record, created)``.

        ``created`` is False when the request deduplicated onto an
        existing queued/running/done job, or when the digest is
        quarantined (the returned record carries the recorded failure).
        Raises a :class:`~repro.serve.hardening.Rejected` subclass when
        the submit is shed (dedup hits are exempt — they add no work).
        """
        digest = spec.digest
        job_id = digest[:ID_LENGTH]
        record = self.jobs.get(job_id)

        if self.quarantine is not None:
            entry = self.quarantine.get(digest)
            if entry is not None:
                # Poison: answer from the recorded failure, never
                # re-execute.  Synthesize a record if the jobs dir was
                # lost but the registry survived.
                if record is None:
                    record = JobRecord(
                        id=job_id, digest=digest, spec=spec.to_dict(),
                        task=spec.task, tenant=spec.tenant,
                        state="failed", error=entry["errors"][-1]
                        if entry["errors"] else "quarantined",
                        quarantined=True,
                    )
                    self.jobs[job_id] = record
                    self.store.save(record)
                elif not record.quarantined:
                    record.quarantined = True
                    self.store.save(record)
                logger.info("answered quarantined digest %s from its "
                            "failure record", job_id)
                return record, False

        if record is not None and record.state not in ("failed", "cancelled"):
            if record.state not in TERMINAL_STATES:
                record.deduped += 1
                self.store.save(record)
                logger.info("deduplicated request onto job %s (%d so far)",
                            job_id, record.deduped)
            return record, False

        # New work from here on: the shedding ladder applies.
        breaker = self.breaker_for(spec.tenant)
        if breaker is not None:
            wait = breaker.allow()
            if wait > 0:
                raise self._shed(BreakerOpen(
                    f"tenant {spec.tenant!r} breaker is open after "
                    f"repeated failures", retry_after=wait))

        bucket = self._bucket_for(spec.tenant)
        if bucket is not None:
            wait = bucket.try_acquire()
            if wait > 0:
                raise self._shed(RateLimited(
                    f"tenant {spec.tenant!r} is over its submit rate",
                    retry_after=max(wait, 0.001)))

        if (self.hardening.max_queue is not None
                and self.queued_depth() >= self.hardening.max_queue):
            raise self._shed(QueueFull(
                f"pending queue is full ({self.hardening.max_queue} "
                f"job(s)); retry later",
                retry_after=self.hardening.retry_after))

        policy = self.policy_for(spec.tenant)
        if (policy.max_active is not None
                and self._active_for(spec.tenant) >= policy.max_active):
            raise self._shed(TenantBusy(
                f"tenant {spec.tenant!r} already has "
                f"{policy.max_active} job(s) in flight",
                retry_after=self.hardening.retry_after))

        if record is None:
            record = JobRecord(
                id=job_id, digest=digest, spec=spec.to_dict(),
                task=spec.task, tenant=spec.tenant,
            )
            self.jobs[job_id] = record
            created = True
        else:
            # failed/cancelled: identical resubmission re-arms the job.
            record.state = "queued"
            record.error = None
            record.finished = None
            created = False
        self.store.save(record)
        self.queue.put_nowait(job_id)
        return record, created

    # -- failure containment feedback ------------------------------------

    def note_success(self, job_id: str) -> None:
        """A job finished ``done``: close the loop on breaker and
        quarantine strikes."""
        record = self.jobs[job_id]
        breaker = self.breaker_for(record.tenant)
        if breaker is not None:
            breaker.record_success()
        if self.quarantine is not None:
            self.quarantine.clear(record.digest)

    def note_failure(self, job_id: str, error: str) -> bool:
        """A job failed (or hung past its watchdog deadline): count the
        strike.  Returns True when the digest is now quarantined — the
        caller should surface the job as terminally failed."""
        record = self.jobs[job_id]
        breaker = self.breaker_for(record.tenant)
        if breaker is not None:
            breaker.record_failure()
        if self.quarantine is None:
            return False
        quarantined = self.quarantine.record_failure(record.digest, error)
        if quarantined:
            record.quarantined = True
        return quarantined

    # -- state transitions (event-loop thread) ---------------------------

    def transition(self, job_id: str, state: str, **fields) -> JobRecord:
        record = self.jobs[job_id]
        record.state = state
        for key, value in fields.items():
            setattr(record, key, value)
        self.store.save(record)
        self.post_event(job_id, {"event": "state", "state": state})
        return record

    # -- progress events -------------------------------------------------

    def post_event(self, job_id: str, event: dict) -> None:
        self.store.append_event(job_id, event)
        waiter = self._event_waiters.pop(job_id, None)
        if waiter is not None:
            waiter.set()

    def post_event_threadsafe(self, job_id: str, event: dict) -> None:
        """The worker-thread entry point for progress hooks."""
        loop = self._loop
        if loop is None or loop.is_closed():
            return
        try:
            loop.call_soon_threadsafe(self.post_event, job_id, event)
        except RuntimeError:  # loop shut down between check and call
            pass

    async def wait_for_events(self, job_id: str, start: int,
                              timeout: float = 10.0) -> list[dict]:
        """Events from ``start`` on, waiting up to ``timeout`` for new
        ones; an empty list means the follower should poll again (or
        the job reached a terminal state — caller checks)."""
        events = self.store.read_events(job_id, start)
        if events:
            return events
        waiter = self._event_waiters.get(job_id)
        if waiter is None:
            waiter = asyncio.Event()
            self._event_waiters[job_id] = waiter
        try:
            await asyncio.wait_for(waiter.wait(), timeout)
        except asyncio.TimeoutError:
            return []
        return self.store.read_events(job_id, start)
