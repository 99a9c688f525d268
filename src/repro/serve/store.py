"""Durable state of the mapping service: job records and event logs.

Layout under the server's state directory::

    state/
      jobs/<id>.json        one record file per job, atomic tmp + os.replace
      journals/<id>.ckpt    the job's CheckpointJournal (engine-owned)
      events/<id>.jsonl     append-only progress events, torn-tail tolerant
      quarantine/<digest>.json   poison-job registry (hardening-owned)

The job id **is** a prefix of the job's content digest, which in turn
is the engine's cache/journal key — one identity from HTTP request to
on-disk shard checkpoint.  Records are rewritten in full on every state
transition (they are small); the event log is append-only so followers
can stream it.  Both are checksummed records (:mod:`repro.dse.records`):
a job record that fails its checksum on load (torn, bit-rotted, edited,
or written before records had one) is quarantined aside
(``*.json.corrupt``), never served, and its spec re-runs on resubmit;
an event line that fails its checksum ends the readable log.

Disk faults degrade, never crash.  A write that fails with ENOSPC/EIO
(or any other ``OSError``) parks the record or event in an in-memory
overlay, flags the record ``degraded``, and the server keeps answering
from memory; the overlay drains back to disk as soon as a later write
of the same record succeeds.  An ``fsync`` failure is treated as worse
than a plain write failure: the bytes may or may not be durable, so the
on-disk record is *quarantined* aside (``*.json.fsyncfail``) and the
in-memory copy becomes the only trusted one.  :meth:`JobStore.health`
reports all of it for ``GET /healthz``.
"""

from __future__ import annotations

import logging
import os
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

from ..dse import records
from .hardening import take_fault
from .protocol import JOB_STATES

logger = logging.getLogger("repro.serve.store")

__all__ = ["JobRecord", "JobStore", "ID_LENGTH"]

#: Job ids are digest prefixes: long enough that collisions would need
#: ~2^32 distinct specs, short enough to read aloud.
ID_LENGTH = 16


@dataclass
class JobRecord:
    """Everything the service knows about one job.

    ``result`` holds the :func:`~repro.serve.protocol.encode_result`
    encoding (deterministic, comparable); ``telemetry`` holds the
    non-deterministic ``SearchStats`` sidecar (wall time, shard/resume
    counts) that must never participate in equality.
    """

    id: str
    digest: str
    spec: dict
    task: str
    tenant: str = "default"
    state: str = "queued"
    created: float = field(default_factory=time.time)
    started: float | None = None
    finished: float | None = None
    result: dict | None = None
    error: str | None = None
    telemetry: dict | None = None
    #: How many times the server (re)started this search with
    #: ``resume=True`` after the first attempt — restarts survived.
    resumes: int = 0
    #: How many identical requests were coalesced onto this job.
    deduped: int = 0
    cache_hit: bool = False
    #: The digest is poison (failed ``breaker_threshold`` times); the
    #: record answers resubmissions, the search never runs again.
    quarantined: bool = False
    #: The record could not be durably persisted (disk fault); it lives
    #: in the store's in-memory overlay until disk recovers.
    degraded: bool = False

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> JobRecord:
        known = {f for f in cls.__dataclass_fields__}
        record = cls(**{k: v for k, v in data.items() if k in known})
        if record.state not in JOB_STATES:
            raise ValueError(f"unknown job state {record.state!r}")
        return record

    def public(self) -> dict:
        """The ``GET /jobs/{id}`` view (wire names, no internals)."""
        out = {
            "id": self.id,
            "digest": self.digest,
            "task": self.task,
            "tenant": self.tenant,
            "state": self.state,
            "created": self.created,
            "started": self.started,
            "finished": self.finished,
            "resumes": self.resumes,
            "deduped": self.deduped,
            "cache_hit": self.cache_hit,
            "quarantined": self.quarantined,
            "degraded": self.degraded,
            "spec": self.spec,
        }
        if self.result is not None:
            out["result"] = self.result
        if self.error is not None:
            out["error"] = self.error
        if self.telemetry is not None:
            out["telemetry"] = self.telemetry
        return out


class JobStore:
    """Filesystem-backed job state under one root directory."""

    def __init__(self, root: str | os.PathLike) -> None:
        self.root = Path(root)
        self.jobs_dir = self.root / "jobs"
        self.journals_dir = self.root / "journals"
        self.events_dir = self.root / "events"
        for d in (self.jobs_dir, self.journals_dir, self.events_dir):
            d.mkdir(parents=True, exist_ok=True)
        #: Records that could not be persisted; memory is authoritative
        #: for these until a later save of the same id succeeds.
        self._memory_records: dict[str, JobRecord] = {}
        #: Per-job event tails that could not be appended to disk.
        #: Sticky per job: once a job's events degrade, its later
        #: events stay in memory too, so the disk + memory concatenation
        #: keeps its order.
        self._memory_events: dict[str, list[dict]] = {}
        self.write_errors = 0
        self.degraded_since: float | None = None

    # -- health ----------------------------------------------------------

    @property
    def degraded(self) -> bool:
        return bool(self._memory_records or self._memory_events)

    def health(self) -> dict:
        """The store block of ``GET /healthz``."""
        return {
            "ok": not self.degraded,
            "degraded": self.degraded,
            "write_errors": self.write_errors,
            "memory_records": len(self._memory_records),
            "memory_event_jobs": len(self._memory_events),
            "degraded_since": self.degraded_since,
        }

    def _note_write_failure(self, what: str, exc: OSError) -> None:
        self.write_errors += 1
        if self.degraded_since is None:
            self.degraded_since = time.time()
        errname = getattr(exc, "strerror", None) or str(exc)
        logger.warning("store degraded: %s write failed (%s); "
                       "continuing from memory", what, errname)

    # -- job records -----------------------------------------------------

    def _record_path(self, job_id: str) -> Path:
        return self.jobs_dir / f"{job_id}.json"

    def save(self, record: JobRecord) -> None:
        """Persist ``record`` atomically and durably — or degrade.

        fsync before the rename: a job that claims ``done`` after a
        power cut must actually hold its result.  Any ``OSError`` on
        the way (ENOSPC, EIO, ...) never propagates: the record is
        parked in the in-memory overlay with ``degraded=True`` and the
        server keeps running.  A *failed fsync* is special — the bytes
        already written have unknown durability, so the current on-disk
        record is quarantined aside (``*.json.fsyncfail``) rather than
        trusted.
        """
        if take_fault("disk_full"):
            self._degrade_record(record, "save",
                                 OSError(28, "injected disk_full"))
            return
        path = self._record_path(record.id)
        data = records.encode_record(record.to_dict())
        if take_fault("corrupt_store"):
            data = data[: max(1, len(data) // 2)]  # torn record
        try:
            records.write_atomic(path, data, durable=True)
        except OSError as exc:
            # The write or its fsync failed: the on-disk record's
            # lineage is broken — quarantine it.
            if isinstance(exc, records.UnsyncedWrite) and records.quarantine(
                    path, ".fsyncfail"):
                logger.warning("quarantined possibly-stale record %s", path)
            self._degrade_record(record, "save", exc)
            return
        # Disk took the write: this record is durable again.
        if record.degraded or record.id in self._memory_records:
            self._memory_records.pop(record.id, None)
            if record.degraded:
                record.degraded = False
                self.save(record)  # rewrite with the flag cleared
                return
        if not self.degraded:
            self.degraded_since = None

    def _degrade_record(self, record: JobRecord, what: str,
                        exc: OSError) -> None:
        record.degraded = True
        self._memory_records[record.id] = record
        self._note_write_failure(what, exc)

    def load(self, job_id: str) -> JobRecord | None:
        """The stored record, or ``None``; a record that does not verify
        is moved aside (``*.json.corrupt``) so it can be inspected but
        is never served.  The in-memory overlay wins — it is newer than
        anything on disk by construction."""
        overlay = self._memory_records.get(job_id)
        if overlay is not None:
            return overlay
        path = self._record_path(job_id)
        body = records.read_record(path)
        if body is records.DAMAGED:
            logger.warning("quarantined job record %s: no valid checksum", path)
            return None
        if body is None:
            return None
        try:
            return JobRecord.from_dict(body)
        except (ValueError, TypeError) as exc:
            logger.warning("quarantining unusable job record %s: %s", path, exc)
            records.quarantine(path)
            return None

    def load_all(self) -> list[JobRecord]:
        """Every readable job record, oldest first."""
        loaded = []
        seen = set()
        for path in sorted(self.jobs_dir.glob("[!.]*.json")):  # no .tmp-* files
            record = self.load(path.stem)
            if record is not None:
                loaded.append(record)
                seen.add(record.id)
        for job_id, record in self._memory_records.items():
            if job_id not in seen:
                loaded.append(record)
        loaded.sort(key=lambda r: r.created)
        return loaded

    # -- engine artifacts ------------------------------------------------

    def journal_path(self, job_id: str) -> Path:
        """Where the job's :class:`CheckpointJournal` lives.  The
        engine owns the format; the store only names the file."""
        return self.journals_dir / f"{job_id}.ckpt"

    # -- event log -------------------------------------------------------

    def events_path(self, job_id: str) -> Path:
        return self.events_dir / f"{job_id}.jsonl"

    def append_event(self, job_id: str, event: dict) -> None:
        """Append one progress event.  Flushed but not fsynced — events
        are a telemetry stream, not the source of truth; losing the
        tail on a crash is acceptable where losing a result is not.
        A write failure degrades the job's event tail to memory (and
        keeps it there, preserving order) instead of crashing."""
        stamped = {"ts": time.time(), **event}
        if job_id not in self._memory_events and not take_fault("disk_full"):
            try:
                with open(self.events_path(job_id), "ab") as fh:
                    records.append_line(fh, stamped)
                return
            except OSError as exc:
                self._note_write_failure("event", exc)
        else:
            if job_id not in self._memory_events:
                self._note_write_failure(
                    "event", OSError(28, "injected disk_full"))
        self._memory_events.setdefault(job_id, []).append(stamped)

    def trim_events(self, job_id: str) -> None:
        """Cut the on-disk event log back to its readable prefix, as
        :class:`~repro.dse.checkpoint.CheckpointJournal` does when it
        reopens: events appended after a torn or failing line would
        otherwise never be read.  Run once per resumed job at startup."""
        try:
            with open(self.events_path(job_id), "r+b") as fh:
                data = fh.read()
                good = records.decode_lines(data)[1]
                if good < len(data):
                    fh.truncate(good)
        except OSError:
            pass  # missing or unwritable: reads still stop at the prefix

    def read_events(self, job_id: str, start: int = 0) -> list[dict]:
        """Events from index ``start`` on.  The on-disk log ends at its
        first torn or failing line (a writer died mid-append), mirroring
        the journal's torn-tail tolerance.  Degraded in-memory tails are
        concatenated after the on-disk prefix."""
        try:
            events = records.decode_lines(self.events_path(job_id).read_bytes())[0]
        except OSError:
            events = []  # missing log; reads degrade too: serve what memory holds
        events.extend(self._memory_events.get(job_id, ()))
        return events[start:]
