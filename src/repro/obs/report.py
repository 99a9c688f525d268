"""Render a JSONL trace into a per-phase wall-time breakdown.

``repro obs report trace.jsonl`` answers the question the trace exists
for: *where did the time go?*  Spans are grouped by name into phases;
for each phase the report shows call count, total/mean/max duration
(busy time) and the share of the trace's wall time (the longest root
span's duration; for a search, its ``wall_time``) that its spans cover,
overlaps once.  Events and counters are summarized below the table.
"""

from __future__ import annotations

import os
from collections import defaultdict
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from .schema import load_trace

__all__ = ["PhaseSummary", "phase_breakdown", "format_report", "report_file"]


@dataclass(frozen=True)
class PhaseSummary:
    """Aggregated timing of all spans sharing one name."""

    name: str
    count: int
    total: float
    mean: float
    max: float
    share: float  # of the trace wall time covered, in [0, 1] (0 when unknown)


def _wall_time(spans: Sequence[dict]) -> float:
    """The trace's wall time: the longest root span's duration.

    Falls back to the longest span of any depth when every span has a
    parent (e.g. a partial trace).
    """
    roots = [s["duration"] for s in spans if s["parent_id"] is None]
    pool = roots or [s["duration"] for s in spans]
    return max(pool, default=0.0)


def _covered(spans: Sequence[dict]) -> float:
    """Wall-clock time inside the union of the spans' intervals
    ``[start_unix, start_unix + duration]`` (spans without a start are
    left out)."""
    covered, reach = 0.0, float("-inf")
    for start, duration in sorted(
        (s["start_unix"], s["duration"]) for s in spans if s["start_unix"] is not None
    ):
        covered += max(0.0, start + duration - max(start, reach))
        reach = max(reach, start + duration)
    return covered


def phase_breakdown(records: Iterable[dict]) -> list[PhaseSummary]:
    """Per-phase aggregation, sorted by total duration descending."""
    spans = [r for r in records if r.get("type") == "span"]
    wall = _wall_time(spans)
    groups: dict[str, list[float]] = defaultdict(list)
    for s in spans:
        groups[s["name"]].append(s["duration"])
    out = [
        PhaseSummary(
            name=name,
            count=len(durs),
            total=sum(durs),
            mean=sum(durs) / len(durs),
            max=max(durs),
            # Capped: span starts (wall clock) and durations (monotonic) can disagree.
            share=min(1.0, _covered([s for s in spans if s["name"] == name]) / wall)
            if wall > 0 else 0.0,
        )
        for name, durs in groups.items()
    ]
    out.sort(key=lambda p: (-p.total, p.name))
    return out


def format_report(records: Sequence[dict], *, top: int | None = None) -> str:
    """Human-readable report over validated trace records."""
    spans = [r for r in records if r.get("type") == "span"]
    events = [r for r in records if r.get("type") == "event"]
    counters = [r for r in records if r.get("type") in ("counter", "gauge")]
    metas = [r for r in records if r.get("type") == "meta"]

    lines: list[str] = []
    wall = _wall_time(spans)
    pids = sorted({r.get("pid") for r in records if "pid" in r})
    lines.append(
        f"trace: {len(spans)} spans, {len(events)} events, "
        f"{len(metas)} process(es) exporting, pids seen: {len(pids)}"
    )
    lines.append(f"wall time (longest root span): {wall:.4f}s")
    lines.append("")

    phases = phase_breakdown(records)
    if top is not None:
        phases = phases[:top]
    if phases:
        name_w = max(len(p.name) for p in phases)
        name_w = max(name_w, len("phase"))
        header = (
            f"{'phase':{name_w}}  {'count':>6}  {'total s':>9}  "
            f"{'mean s':>9}  {'max s':>9}  {'share':>6}"
        )
        lines.append(header)
        lines.append("-" * len(header))
        for p in phases:
            lines.append(
                f"{p.name:{name_w}}  {p.count:>6}  {p.total:>9.4f}  "
                f"{p.mean:>9.4f}  {p.max:>9.4f}  {p.share:>6.1%}"
            )
    else:
        lines.append("no spans recorded")

    if events:
        lines.append("")
        lines.append("events:")
        counts: dict[str, int] = defaultdict(int)
        for e in events:
            counts[e["name"]] += 1
        for name in sorted(counts, key=lambda n: (-counts[n], n)):
            lines.append(f"  {name}: {counts[name]}")

    if counters:
        lines.append("")
        lines.append("counters/gauges:")
        for c in sorted(counters, key=lambda c: c["name"]):
            value = c["value"]
            rendered = f"{value:g}" if isinstance(value, float) else str(value)
            lines.append(f"  {c['name']}: {rendered}")

    return "\n".join(lines)


def report_file(path: str | os.PathLike, *, top: int | None = None) -> str:
    """Validate ``path`` and render its report (raises on invalid traces)."""
    return format_report(load_trace(path), top=top)
