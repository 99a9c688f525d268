"""Crash-safe checkpoint/resume for long design-space explorations.

PR 3 made individual *shards* survive worker crashes; this module makes
the *run* survive the death of the parent process.  Three pieces:

* :class:`CheckpointJournal` — a write-ahead journal of completed shard
  results (design searches) and of a run's final decision (every
  search; a schedule search, which runs in process, journals nothing
  else).  Every record is one checksummed record line
  (:mod:`repro.dse.records`); appends are flushed and ``fsync``'d
  before the shard is considered durable, so a ``SIGKILL`` (OOM killer,
  preemption) can lose at most the record being written.  Replay
  tolerates exactly that damage: a torn or corrupted tail is dropped
  (and truncated away on reopen), everything before it is trusted
  because the checksums prove it was written whole.  Periodic snapshot
  **compaction** rewrites the journal as one snapshot record through
  an atomic temp-file + ``os.replace`` write, bounding file growth on
  huge sweeps.
* :class:`RunBudget` — run-level resource ceilings: wall-clock seconds,
  dispatched shards, and (for Procedure 5.1's expanding rings) the bit
  growth of the ring bound, which caps the magnitude of every integer
  the candidate schedules feed into the exact arithmetic kernels.
  Exceeding any ceiling raises :class:`BudgetExceeded` — the same
  clean, resumable stop a signal produces.
* :class:`ShutdownGuard` / :class:`RunControl` — graceful shutdown.
  The guard intercepts ``SIGINT``/``SIGTERM`` and merely sets a flag;
  the engine polls it between shards (and between the rings of a
  schedule search), stops dispatching new work, drains or cancels what
  is in flight, and raises :class:`RunInterrupted`.  Because every
  completed shard was journaled the moment it finished, an interrupted
  design run is resumable: restarting with ``resume=True`` replays the
  journal, skips every completed shard, and — by the engine's
  serial-equality contract — returns a result equal to an
  uninterrupted run's.  An interrupted schedule run simply re-runs.

The journal stores *encoded shard outputs* (plain JSON), keyed by a
canonical digest of the run parameters plus the shard's position and
content.  A resumed run with different parameters therefore cannot be
poisoned by a stale journal: mismatched run keys are a hard
:class:`CheckpointError`, mismatched shard keys are simply recomputed.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import signal
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from ..obs.tracer import get_tracer
from . import records

logger = logging.getLogger("repro.dse.checkpoint")

__all__ = [
    "JOURNAL_SCHEMA_VERSION",
    "CheckpointError",
    "RunInterrupted",
    "BudgetExceeded",
    "RunBudget",
    "CheckpointJournal",
    "ShutdownGuard",
    "RunControl",
]

#: Bump when the journal record layout changes; old journals are then
#: rejected with a :class:`CheckpointError` instead of being misread.
#: v2: schedule shard outputs carry stage codes instead of records.
#: v3: schedule shard spans index the sign-restricted ring.
#: v4: schedule runs journal no shards, only the header and the result.
JOURNAL_SCHEMA_VERSION = 4


class CheckpointError(RuntimeError):
    """The journal cannot be used: version/run-key mismatch or damage
    beyond the tolerated torn tail."""


class RunInterrupted(RuntimeError):
    """The run was stopped cleanly and is resumable from its journal.

    Raised on ``SIGINT``/``SIGTERM`` (via :class:`ShutdownGuard`); the
    ``reason`` attribute says why.  Every shard completed before the
    stop is in the journal, so rerunning with ``resume=True`` loses no
    work.
    """

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


class BudgetExceeded(RunInterrupted):
    """A :class:`RunBudget` ceiling was reached — same clean, resumable
    stop as a signal, distinguishable by type."""


@dataclass(frozen=True)
class RunBudget:
    """Run-level resource ceilings for an exploration.

    Attributes
    ----------
    max_seconds:
        Wall-clock budget for the whole run.  Checked between shards
        and between rings; an in-flight shard batch is drained, not
        killed, so the stop is clean and the overshoot is bounded by
        one shard's duration.
    max_shards:
        Ceiling on *dispatched* design shards (shards replayed from a
        journal are free — resuming never re-buys work already paid
        for).  A schedule search dispatches no shards.
    max_bits:
        Ceiling on the bit length of Procedure 5.1's ring bound
        ``x_l``.  Every candidate schedule in ring ``l`` has
        ``sum |pi_i| mu_i <= x_l``, so this caps the magnitude of the
        integers the search pushes through the exact (arbitrary
        precision) arithmetic kernels.  Ignored by the space/joint
        searches, whose candidate entries are bounded by ``magnitude``.
    """

    max_seconds: float | None = None
    max_shards: int | None = None
    max_bits: int | None = None

    def __post_init__(self) -> None:
        if self.max_seconds is not None and self.max_seconds <= 0:
            raise ValueError(
                f"max_seconds must be positive or None, got {self.max_seconds}"
            )
        if self.max_shards is not None and self.max_shards < 1:
            raise ValueError(
                f"max_shards must be >= 1 or None, got {self.max_shards}"
            )
        if self.max_bits is not None and self.max_bits < 1:
            raise ValueError(
                f"max_bits must be >= 1 or None, got {self.max_bits}"
            )


# -- the journal ------------------------------------------------------------


class CheckpointJournal:
    """Write-ahead journal of completed shard results for one run.

    Record kinds (each one checksummed JSONL line):

    * ``run`` — header: schema version, run key, task label.  Written
      first; replay refuses a journal whose run key differs from the
      resuming search's (the checkpoint belongs to other parameters).
    * ``shard`` — ``{key, out}``: one completed shard's encoded output
      under its canonical shard key.  Appended (flush + fsync) the
      moment the shard completes.
    * ``snapshot`` — a compacted header + all shard outputs in one
      record; produced by :meth:`compact` every ``compact_every``
      appends via an atomic temp-file + ``os.replace`` rewrite.
    * ``result`` — the search's final decision entry.  A journal with a
      result record resumes without dispatching anything at all.

    Replay walks the file line by line and stops at the first line that
    fails parsing or its checksum: with fsync'd appends only the tail
    can be damaged, so everything before it is trusted and everything
    from it on is dropped (and truncated away when the journal reopens
    for appending).
    """

    def __init__(self, path: str | os.PathLike, *, compact_every: int = 256) -> None:
        if compact_every < 1:
            raise ValueError(f"compact_every must be >= 1, got {compact_every}")
        self.path = Path(path)
        self.compact_every = compact_every
        self.run_key: str | None = None
        self.task: str | None = None
        self.shards: dict[str, dict] = {}
        self.result_entry: dict | None = None
        self.resumed_shards = 0  # shards loaded from disk on open
        self.dropped_records = 0  # torn/corrupt tail lines discarded
        self._fh = None
        self._appends = 0
        self._opened = False

    # -- lifecycle -------------------------------------------------------

    def open(self, run_key: str, *, task: str = "", resume: bool = False) -> None:
        """Start fresh, or replay and reopen for appending.

        Without ``resume`` an existing file is overwritten (a new run
        deliberately discards old state).  With ``resume`` the file is
        replayed first: its run key must match ``run_key`` exactly,
        its torn tail (if any) is dropped and truncated, and
        :attr:`shards` / :attr:`result_entry` hold everything durable.
        """
        if self._opened:
            raise CheckpointError("journal is already open")
        self.run_key = run_key
        self.task = task
        good_bytes = 0
        if resume and self.path.exists():
            good_bytes = self._replay(run_key)
        if self.path.parent and not self.path.parent.exists():
            self.path.parent.mkdir(parents=True, exist_ok=True)
        # r+b lets us truncate the torn tail before appending; "wb"
        # covers the fresh/overwrite path.
        if good_bytes:
            self._fh = open(self.path, "r+b")
            self._fh.truncate(good_bytes)
            self._fh.seek(good_bytes)
        else:
            self._fh = open(self.path, "wb")
            self._append({
                "kind": "run",
                "schema": JOURNAL_SCHEMA_VERSION,
                "run": run_key,
                "task": task,
            })
        self._opened = True
        if self.resumed_shards or self.result_entry is not None:
            tracer = get_tracer()
            tracer.event(
                "checkpoint.resume",
                path=str(self.path),
                shards=self.resumed_shards,
                complete=self.result_entry is not None,
                dropped=self.dropped_records,
            )
            tracer.add("checkpoint.resumed", self.resumed_shards)
            logger.info(
                "checkpoint resume: %d shard(s)%s replayed from %s "
                "(%d torn record(s) dropped)",
                self.resumed_shards,
                " + final result" if self.result_entry is not None else "",
                self.path, self.dropped_records,
            )

    def _replay(self, run_key: str) -> int:
        """Load records, verifying checksums; returns the byte offset of
        the end of the last good line (where appending may resume)."""
        data = self.path.read_bytes()
        recs, good = records.decode_lines(data)
        self.dropped_records += good < len(data)  # a torn or corrupt tail
        header_seen = False
        for rec in recs:
            kind = rec.get("kind")
            if kind in ("run", "snapshot"):
                if rec.get("schema") != JOURNAL_SCHEMA_VERSION:
                    raise CheckpointError(
                        f"journal {self.path} has schema "
                        f"{rec.get('schema')!r}, this library writes "
                        f"{JOURNAL_SCHEMA_VERSION}; delete it or rerun "
                        "without resume to start fresh"
                    )
                if rec.get("run") != run_key:
                    raise CheckpointError(
                        f"journal {self.path} belongs to a different run "
                        f"(run key {str(rec.get('run'))[:12]}..., this "
                        f"search is {run_key[:12]}...); it records a "
                        "search with different parameters — rerun "
                        "without resume to discard it"
                    )
                header_seen = True
                if kind == "snapshot":
                    shards = rec.get("shards")
                    if isinstance(shards, dict):
                        self.shards.update(shards)
            elif kind == "shard":
                key, out = rec.get("key"), rec.get("out")
                if isinstance(key, str) and isinstance(out, dict):
                    self.shards[key] = out
            elif kind == "result":
                entry = rec.get("entry")
                if isinstance(entry, dict):
                    self.result_entry = entry
            # unknown kinds: forward-compatible no-ops
        if not header_seen and self.shards:
            raise CheckpointError(
                f"journal {self.path} has shard records but no valid run "
                "header; refusing to trust it"
            )
        if not header_seen:
            # Nothing durable at all (empty or fully torn file): treat
            # as fresh.
            self.shards.clear()
            self.result_entry = None
            return 0
        self.resumed_shards = len(self.shards)
        return good

    def close(self) -> None:
        fh, self._fh = self._fh, None
        if fh is not None:
            fh.close()
        self._opened = False

    def __enter__(self) -> "CheckpointJournal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- writes ----------------------------------------------------------

    def _append(self, rec: dict) -> None:
        if self._fh is None:
            raise CheckpointError("journal is not open")
        records.append_line(self._fh, rec, durable=True)

    def record_shard(self, key: str, out: dict) -> None:
        """Durably journal one completed shard's encoded output.

        Idempotent per key: re-recording a shard that is already
        journaled (e.g. a resumed ring re-merging) writes nothing.
        """
        if key in self.shards:
            return
        self._append({"kind": "shard", "key": key, "out": out})
        self.shards[key] = out
        self._appends += 1
        tracer = get_tracer()
        tracer.event("checkpoint.flush", key=key)
        tracer.add("checkpoint.appends")
        if self._appends >= self.compact_every:
            self.compact()

    def record_result(self, entry: dict) -> None:
        """Journal the final decision; a resumed run then short-circuits
        exactly like a warm cache hit."""
        self.result_entry = entry
        self._append({"kind": "result", "entry": entry})
        tracer = get_tracer()
        tracer.event("checkpoint.flush", kind="result")
        tracer.add("checkpoint.appends")

    def compact(self) -> None:
        """Rewrite the journal as one snapshot record, atomically.

        Bounds journal growth on long sweeps: ``N`` shard lines become
        one snapshot line holding the same mapping.  The rewrite goes
        through a temp file + ``fsync`` + ``os.replace`` (+ directory
        fsync), so a crash mid-compaction leaves either the old journal
        or the new one — never a mix.
        """
        if self._fh is None:
            raise CheckpointError("journal is not open")
        snapshot = {
            "kind": "snapshot",
            "schema": JOURNAL_SCHEMA_VERSION,
            "run": self.run_key,
            "task": self.task,
            "shards": self.shards,
        }
        data = records.encode_line(snapshot)
        if self.result_entry is not None:
            data += records.encode_line({"kind": "result", "entry": self.result_entry})
        records.write_atomic(self.path, data.encode("utf-8"), durable=True)
        # Later appends go to the new file: its name must survive too.
        records.sync_dir(self.path.parent)
        self._fh.close()
        self._fh = open(self.path, "ab")
        self._appends = 0
        get_tracer().event("checkpoint.compact", shards=len(self.shards))
        logger.debug(
            "journal compacted: %d shard(s) -> 1 snapshot", len(self.shards)
        )

    # -- reads -----------------------------------------------------------

    def lookup(self, key: str) -> dict | None:
        """The journaled encoded output for a shard key, if any."""
        return self.shards.get(key)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CheckpointJournal({str(self.path)!r}, shards={len(self.shards)}, "
            f"complete={self.result_entry is not None})"
        )


# -- graceful shutdown ------------------------------------------------------


class ShutdownGuard:
    """Intercept ``SIGINT``/``SIGTERM`` and record the request.

    The handler only sets a flag — no work is interrupted at signal
    time.  The engine polls :attr:`stop_reason` between shards and
    converts the request into a :class:`RunInterrupted` at a point
    where everything completed so far is already journaled.  Previous
    handlers are restored on exit; outside the main thread (where
    Python forbids installing handlers) the guard degrades to a no-op.
    """

    SIGNALS = (signal.SIGINT, signal.SIGTERM)

    def __init__(self) -> None:
        self.stop_reason: str | None = None
        self._previous: dict[int, object] = {}

    def _handler(self, signum, frame) -> None:  # pragma: no cover - signal
        self.stop_reason = signal.Signals(signum).name

    def __enter__(self) -> "ShutdownGuard":
        if threading.current_thread() is threading.main_thread():
            for sig in self.SIGNALS:
                try:
                    self._previous[sig] = signal.signal(sig, self._handler)
                except (ValueError, OSError):  # pragma: no cover
                    pass
        return self

    def __exit__(self, *exc) -> None:
        for sig, prev in self._previous.items():
            try:
                signal.signal(sig, prev)
            except (ValueError, OSError):  # pragma: no cover
                pass
        self._previous.clear()


class RunControl:
    """One run's stop conditions, polled by the engine between shards.

    Bundles the (optional) journal, the (optional) budget and the
    signal guard behind three check methods the executor calls at its
    natural boundaries.  All three raise :class:`RunInterrupted` (or
    its :class:`BudgetExceeded` subtype) — by the time they do, every
    completed shard has already been journaled, so the stop is
    resumable by construction.

    Two embedding hooks let a long-lived host (the :mod:`repro.serve`
    job server) drive a search it does not own the process of:

    * ``stop`` — a :class:`threading.Event`; once set, the next poll
      point raises :class:`RunInterrupted` exactly like a signal would.
      Signals only reach the main thread, so a search running on a
      worker thread needs this cooperative equivalent.
    * ``on_progress`` — a callable receiving small progress-event
      dicts (ring completed, shard done, shards resumed) as the run
      crosses its natural boundaries.  Events derived from spans go
      through :func:`repro.obs.progress.span_progress`, so what a
      subscriber sees is the same data a trace would record.  A hook
      that raises is disarmed, never the run.
    """

    def __init__(
        self,
        *,
        journal: CheckpointJournal | None = None,
        budget: RunBudget | None = None,
        stop: threading.Event | None = None,
        on_progress=None,
    ) -> None:
        self.journal = journal
        self.budget = budget
        self.stop = stop
        self.on_progress = on_progress
        self.shards_dispatched = 0
        self.shards_resumed = 0  # journal lookups that hit this run
        self._guard = ShutdownGuard() if journal is not None else None
        self._started = time.monotonic()

    def __enter__(self) -> "RunControl":
        self._started = time.monotonic()
        if self._guard is not None:
            self._guard.__enter__()
        return self

    def __exit__(self, *exc) -> None:
        if self._guard is not None:
            self._guard.__exit__(*exc)
        if self.journal is not None:
            self.journal.close()

    # -- checks ----------------------------------------------------------

    def _interrupt(self, exc: RunInterrupted) -> RunInterrupted:
        get_tracer().event("checkpoint.interrupt", reason=exc.reason)
        logger.warning("run stopping: %s", exc.reason)
        return exc

    def poll(self) -> None:
        """Signal + stop-event + wall-clock check; called between
        shards and rings."""
        if self.stop is not None and self.stop.is_set():
            raise self._interrupt(
                RunInterrupted(
                    "stop requested; completed shards are journaled — "
                    "rerun with resume to continue"
                )
            )
        if self._guard is not None and self._guard.stop_reason is not None:
            raise self._interrupt(
                RunInterrupted(
                    f"interrupted by {self._guard.stop_reason}; completed "
                    "shards are journaled — rerun with resume to continue"
                )
            )
        if (
            self.budget is not None
            and self.budget.max_seconds is not None
            and time.monotonic() - self._started > self.budget.max_seconds
        ):
            raise self._interrupt(
                BudgetExceeded(
                    f"wall-clock budget of {self.budget.max_seconds:g}s "
                    "exhausted; rerun with resume to continue"
                )
            )

    def check_ring(self, ring_bound: int) -> None:
        """Per-ring check: signals, the clock, and the bit-growth cap."""
        self.poll()
        if (
            self.budget is not None
            and self.budget.max_bits is not None
            and int(ring_bound).bit_length() > self.budget.max_bits
        ):
            raise self._interrupt(
                BudgetExceeded(
                    f"ring bound {ring_bound} needs "
                    f"{int(ring_bound).bit_length()} bits "
                    f"(> max_bits={self.budget.max_bits}); rerun with "
                    "resume and a larger budget to continue"
                )
            )

    def before_dispatch(self, count: int) -> None:
        """Account ``count`` shards about to be dispatched (resumed
        shards are free and never pass through here)."""
        self.poll()
        if (
            self.budget is not None
            and self.budget.max_shards is not None
            and self.shards_dispatched + count > self.budget.max_shards
        ):
            raise self._interrupt(
                BudgetExceeded(
                    f"shard budget of {self.budget.max_shards} exhausted "
                    f"({self.shards_dispatched} dispatched, {count} more "
                    "needed); rerun with resume to continue"
                )
            )
        self.shards_dispatched += count

    # -- progress hooks --------------------------------------------------

    def emit(self, event: str, **attrs) -> None:
        """Deliver one progress event to the (optional) subscriber.

        A raising hook is disarmed instead of killing the search: the
        hook is an observer, and a broken observer must never cost a
        correct answer.
        """
        if self.on_progress is None:
            return
        try:
            self.on_progress({"event": event, **attrs})
        except Exception:
            logger.exception("progress hook failed; disabling it")
            self.on_progress = None

    def emit_span(self, span, **extra) -> None:
        """Emit a closed span as a progress event (obs adapter)."""
        if self.on_progress is None:
            return
        from ..obs.progress import span_progress

        self.emit("phase", **span_progress(span, **extra))

    # -- journal pass-throughs -------------------------------------------

    def shard_key(self, kind: str, ring: int, index: int, content) -> str:
        """Canonical identity of one shard of this run.

        Mixes the run key (search parameters), the shard's position and
        its exact content, so a journal can never satisfy a lookup for
        different work — resuming with a different ``jobs`` value just
        recomputes the shards whose content changed.

        Shard content is plain ints in lists/tuples, and ``json.dumps``
        already renders tuples as arrays at C speed — so this skips
        :func:`canonical_key`'s recursive canonicalization walk, which
        profiled as the dominant checkpointing cost on rings with
        thousands of candidates (the digest is identical for the
        tuple/list mixes both the enumerators and a replay produce).
        """
        blob = json.dumps(
            {
                "run": self.journal.run_key if self.journal else "",
                "kind": kind,
                "ring": ring,
                "shard": index,
                "content": content,
            },
            sort_keys=True, separators=(",", ":"),
        )
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def lookup(self, key: str) -> dict | None:
        if self.journal is None:
            return None
        return self.journal.lookup(key)

    def record_shard(self, key: str, out: dict) -> None:
        if self.journal is not None:
            self.journal.record_shard(key, out)

    def record_result(self, entry: dict) -> None:
        if self.journal is not None:
            self.journal.record_result(entry)

    @property
    def resume_entry(self) -> dict | None:
        """The journaled final decision, when resuming a completed run."""
        return self.journal.result_entry if self.journal is not None else None
