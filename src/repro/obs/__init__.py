"""repro.obs — structured tracing, metrics and logging for the package.

A stdlib-only observability layer threaded through every hot path:

* :class:`Tracer` / :class:`Span` — hierarchical spans with monotonic
  timing, counters, gauges and events (:mod:`repro.obs.tracer`).  The
  process-wide tracer (:func:`get_tracer`) is **disabled by default**
  and the disabled path is a no-op: spans still time themselves (the
  searches derive ``SearchStats.wall_time`` from them — one source of
  truth) but nothing is buffered.
* :func:`configure` / :class:`trace_session` — enable tracing for a
  process or a ``with`` block; :func:`configure_logging` wires the
  ``repro`` logger hierarchy (``--log-level`` on the CLI).
* :mod:`repro.obs.schema` — the JSONL record shapes and a validator
  (:func:`validate_trace_file`, :func:`load_trace`).
* :mod:`repro.obs.report` — ``repro obs report``'s per-phase wall-time
  breakdown (:func:`phase_breakdown`, :func:`format_report`).

Worker processes never write trace files: they return span records in
their shard outputs and the parent merges them with
:meth:`Tracer.absorb`, tagged by shard id — the exported trace is a
single consistent tree.
"""

from .. import _lazy

__all__, __getattr__, __dir__ = _lazy.exports(__name__, globals(), {
    ".progress": ("record_progress", "span_progress"),
    ".report": ("PhaseSummary", "format_report", "phase_breakdown", "report_file"),
    ".schema": ("load_trace", "validate_lines", "validate_record", "validate_trace_file"),
    ".tracer": (
        "TRACE_SCHEMA_VERSION", "Span", "Tracer", "configure", "configure_logging",
        "get_tracer", "set_tracer", "trace_session",
    ),
})
