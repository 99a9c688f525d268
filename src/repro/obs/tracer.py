"""Hierarchical spans, counters and events with a no-op fast path.

The tracer is the package's single timing authority: every search and
simulation phase is timed by a :class:`Span`, and derived telemetry
(``SearchStats.wall_time``, per-shard wall times) is read back from the
span's monotonic duration instead of ad-hoc ``perf_counter`` pairs.

Design constraints, in order:

1. **Unmeasurable when disabled.**  A disabled tracer still *times*
   spans (callers need the durations for ``SearchStats``), but it
   allocates no ids, touches no locks, and records nothing.  The cost
   of a disabled span is two ``perf_counter`` calls and one small
   object — instrumentation sits at ring/shard/phase granularity, never
   per candidate, so the overhead on a search is noise.
2. **Thread-safe.**  Record buffers are guarded by a lock; the active-
   span stack is thread-local, so spans opened on different threads
   nest independently.
3. **Process-safe export.**  Only one process writes a trace file:
   worker processes return their span records inside the shard output
   and the parent :meth:`Tracer.absorb`\\ s them (re-parented under the
   absorbing span, tagged with the shard id).  ``write_jsonl`` appends
   the whole buffer in a single ``write`` on an ``O_APPEND`` handle, so
   even two parents sharing a file interleave on line boundaries.

Span timestamps carry two clocks: ``start_unix`` (wall clock, for
placing a span on a human timeline, comparable across processes) and
``duration`` (monotonic ``perf_counter`` delta, the number every
report and derived statistic uses).
"""

from __future__ import annotations

import json
import logging
import os
import threading
import time
from collections.abc import Iterable, Mapping

__all__ = [
    "Span",
    "Tracer",
    "get_tracer",
    "set_tracer",
    "configure",
    "configure_logging",
    "trace_session",
    "TRACE_SCHEMA_VERSION",
]

#: Bump when the JSONL record layout changes incompatibly.
TRACE_SCHEMA_VERSION = 1


class _NoSpan:
    """The shared no-op context :meth:`Tracer.detail` returns when disabled."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc) -> None:
        return None


_NO_SPAN = _NoSpan()

logger = logging.getLogger("repro.obs")


class Span:
    """One timed operation; usable as a context manager.

    A span always measures its duration (monotonic clock).  It reports
    itself to its tracer only when the tracer is enabled; a span with
    ``tracer=None`` (the worker-process case) just times and can be
    serialized with :meth:`to_record` for the parent to absorb.
    """

    __slots__ = (
        "name",
        "attrs",
        "span_id",
        "parent_id",
        "start_unix",
        "_t0",
        "duration",
        "_tracer",
        "_recording",
    )

    def __init__(
        self,
        name: str,
        attrs: dict | None = None,
        tracer: "Tracer | None" = None,
    ) -> None:
        self.name = name
        self.attrs = attrs or {}
        self._tracer = tracer
        self._recording = tracer is not None and tracer.enabled
        self.span_id: int | None = None
        self.parent_id: int | None = None
        self.start_unix: float | None = None
        self.duration: float | None = None
        self._t0 = 0.0

    def set(self, **attrs) -> "Span":
        """Attach or update attributes (cheap; skipped when not recording
        unless the span is tracerless, whose record may still be shipped)."""
        if self._recording or self._tracer is None:
            self.attrs.update(attrs)
        return self

    def __enter__(self) -> "Span":
        if self._recording:
            t = self._tracer
            self.span_id = t._next_id()
            self.parent_id = t._current_span_id()
            t._push(self)
            self.start_unix = time.time()
        elif self._tracer is None:
            self.start_unix = time.time()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.duration = time.perf_counter() - self._t0
        if self._recording:
            t = self._tracer
            t._pop(self)
            if exc_type is not None:
                self.attrs.setdefault("error", exc_type.__name__)
            t._record(self.to_record())

    def to_record(self) -> dict:
        """The JSONL object for this (finished) span."""
        return {
            "type": "span",
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_unix": self.start_unix,
            "duration": self.duration,
            "pid": os.getpid(),
            "attrs": dict(self.attrs),
        }


class Tracer:
    """Collects spans, events, counters and gauges for one process.

    Parameters
    ----------
    enabled:
        A disabled tracer is the no-op fast path: spans still time
        themselves (derived statistics need the durations) but nothing
        is buffered and no ids are allocated.
    service:
        Free-form label written into the trace's ``meta`` record.
    """

    def __init__(self, *, enabled: bool = True, service: str = "repro") -> None:
        self.enabled = enabled
        self.service = service
        self._lock = threading.Lock()
        self._records: list[dict] = []
        self._counters: dict[str, float] = {}
        self._gauges: dict[str, float] = {}
        self._id = 0
        self._local = threading.local()
        self.created_unix = time.time()

    # -- span bookkeeping (called by Span) -------------------------------

    def _next_id(self) -> int:
        with self._lock:
            self._id += 1
            return self._id

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def _current_span_id(self) -> int | None:
        stack = self._stack()
        return stack[-1].span_id if stack else None

    def _push(self, span: Span) -> None:
        self._stack().append(span)

    def _pop(self, span: Span) -> None:
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        elif span in stack:  # pragma: no cover - mis-nested exit
            stack.remove(span)

    def _record(self, record: dict) -> None:
        with self._lock:
            self._records.append(record)

    # -- public API ------------------------------------------------------

    def span(self, name: str, **attrs) -> Span:
        """A new span under the current one (context manager)."""
        return Span(name, attrs=attrs or None, tracer=self)

    def detail(self, name: str, **attrs) -> "Span | _NoSpan":
        """A breakdown span that exists only while tracing is on.

        Disabled, it is a shared no-op context: nothing reads the
        duration of a breakdown span (unlike the spans that time
        ``SearchStats``), so sub-phase instrumentation stays off the
        disabled path's clock.
        """
        if not self.enabled:
            return _NO_SPAN
        return self.span(name, **attrs)

    def event(self, name: str, **attrs) -> None:
        """An instantaneous occurrence (cache hit, shard retry, ...)."""
        if not self.enabled:
            return
        self._record(
            {
                "type": "event",
                "name": name,
                "time_unix": time.time(),
                "span_id": self._current_span_id(),
                "pid": os.getpid(),
                "attrs": attrs,
            }
        )

    def add(self, counter: str, value: float = 1) -> None:
        """Increment a named counter (aggregated, flushed at export)."""
        if not self.enabled:
            return
        with self._lock:
            self._counters[counter] = self._counters.get(counter, 0) + value

    def gauge(self, name: str, value: float) -> None:
        """Set a named gauge to its latest value."""
        if not self.enabled:
            return
        with self._lock:
            self._gauges[name] = value

    def absorb(self, records: Iterable[Mapping] | None, **attrs) -> None:
        """Merge records produced in another process into this trace.

        Foreign span ids are remapped into this tracer's id space
        (preserving the foreign parent/child structure); root foreign
        spans are re-parented under the currently active span, and every
        absorbed record gains ``attrs`` (typically the shard id).
        """
        if not self.enabled or not records:
            return
        records = list(records)
        id_map: dict[int, int] = {}
        for rec in records:
            old = rec.get("span_id")
            if isinstance(old, int):
                id_map[old] = self._next_id()
        parent_here = self._current_span_id()
        for rec in records:
            out = dict(rec)
            old = out.get("span_id")
            if isinstance(old, int):
                out["span_id"] = id_map[old]
            elif out.get("type") == "span":
                out["span_id"] = self._next_id()
            old_parent = out.get("parent_id")
            if isinstance(old_parent, int) and old_parent in id_map:
                out["parent_id"] = id_map[old_parent]
            else:
                out["parent_id"] = parent_here
            merged = dict(out.get("attrs") or {})
            merged.update(attrs)
            out["attrs"] = merged
            self._record(out)

    # -- export ----------------------------------------------------------

    def records(self) -> list[dict]:
        """Snapshot of all records, counters/gauges rendered last."""
        with self._lock:
            out = list(self._records)
            out.extend(
                {"type": "counter", "name": k, "value": v}
                for k, v in sorted(self._counters.items())
            )
            out.extend(
                {"type": "gauge", "name": k, "value": v}
                for k, v in sorted(self._gauges.items())
            )
        return out

    def meta_record(self) -> dict:
        return {
            "type": "meta",
            "schema": TRACE_SCHEMA_VERSION,
            "service": self.service,
            "pid": os.getpid(),
            "created_unix": self.created_unix,
        }

    def write_jsonl(self, path: str | os.PathLike) -> int:
        """Append the whole trace to ``path`` as JSON lines.

        The buffer is rendered first and written with a single
        ``write`` on an append-mode handle, so concurrent writers to a
        shared file interleave at line granularity, never inside one.
        Returns the number of records written (meta line included).
        """
        records = [self.meta_record(), *self.records()]
        blob = "".join(json.dumps(r, separators=(",", ":")) + "\n" for r in records)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(blob)
        return len(records)

    def clear(self) -> None:
        with self._lock:
            self._records.clear()
            self._counters.clear()
            self._gauges.clear()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "on" if self.enabled else "off"
        return f"Tracer({self.service!r}, {state}, records={len(self._records)})"


# -- global tracer -----------------------------------------------------------

#: The process-wide tracer.  Disabled by default: library users opt in
#: via :func:`configure` / :func:`trace_session`, the CLI via --trace.
_GLOBAL = Tracer(enabled=False)
_GLOBAL_LOCK = threading.Lock()


def get_tracer() -> Tracer:
    """The process-wide tracer (disabled unless configured)."""
    return _GLOBAL


def set_tracer(tracer: Tracer) -> Tracer:
    """Install ``tracer`` as the process-wide tracer; returns the old one."""
    global _GLOBAL
    with _GLOBAL_LOCK:
        old, _GLOBAL = _GLOBAL, tracer
    return old


def configure_logging(level: str | int | None) -> None:
    """Configure the ``repro`` logger hierarchy (stderr handler).

    ``None`` leaves logging untouched.  Accepts standard level names
    (``DEBUG`` ... ``CRITICAL``, case-insensitive) or numeric levels.
    """
    if level is None:
        return
    if isinstance(level, str):
        resolved = logging.getLevelName(level.upper())
        if not isinstance(resolved, int):
            raise ValueError(f"unknown log level {level!r}")
        level = resolved
    root = logging.getLogger("repro")
    if not root.handlers:
        handler = logging.StreamHandler()
        handler.setFormatter(
            logging.Formatter("%(asctime)s %(levelname)-7s %(name)s: %(message)s")
        )
        root.addHandler(handler)
    root.setLevel(level)


def configure(
    *, trace: bool = True, log_level: str | int | None = None,
    service: str = "repro",
) -> Tracer:
    """Enable (or disable) tracing process-wide; returns the tracer."""
    configure_logging(log_level)
    tracer = Tracer(enabled=trace, service=service)
    set_tracer(tracer)
    return tracer


class trace_session:
    """Context manager: enable tracing, write JSONL on exit, restore.

    >>> with trace_session("run.jsonl"):            # doctest: +SKIP
    ...     explore_joint(algo, jobs=4)

    ``path=None`` still enables in-memory tracing (records accessible
    via the yielded tracer) without writing a file.
    """

    def __init__(
        self,
        path: str | os.PathLike | None,
        *,
        log_level: str | int | None = None,
        service: str = "repro",
    ) -> None:
        self.path = path
        self.log_level = log_level
        self.service = service
        self.tracer: Tracer | None = None
        self._previous: Tracer | None = None

    def __enter__(self) -> Tracer:
        configure_logging(self.log_level)
        self.tracer = Tracer(enabled=True, service=self.service)
        self._previous = set_tracer(self.tracer)
        return self.tracer

    def __exit__(self, *exc) -> None:
        assert self.tracer is not None
        set_tracer(self._previous)
        if self.path is not None:
            written = self.tracer.write_jsonl(self.path)
            logger.info("wrote %d trace records to %s", written, self.path)
