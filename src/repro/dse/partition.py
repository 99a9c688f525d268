"""Deterministic partitioning of candidate spaces into work shards.

The engine's correctness contract is that a sharded search returns a
result *equal* to the serial one.  Two properties of this module make
that cheap to guarantee downstream:

* **Stable candidate order.**  Candidates are always materialized in the
  serial enumerator's order (sorted schedule rings from
  :func:`repro.core.optimize.ring_candidate_array`, combination order
  from :func:`repro.core.space_optimize.enumerate_space_mappings`)
  *before* sharding, so shard outputs taken in shard order are exactly
  the sequence the serial scan would have visited.
* **Compact work descriptions.**  Schedule rings ship to workers as
  *ranges* over the canonical sorted ring array
  (:func:`repro.core.optimize.ring_candidate_array`), not as candidate
  lists: a shard payload names ``(ring, start, stop)`` and the worker
  re-derives its contiguous slice locally.  :func:`ring_ranges` cuts
  those balanced ranges, and the design searches of Problems 6.1/6.2
  cut their candidate lists the same way.

Shard *granularity* is adaptive: :class:`ShardAutotuner` feeds the
``dse.shard`` span wall-times the observability layer already records
back into the fan-out decision, so rings too small to amortize process
overhead stay serial and only genuinely expensive rings fan out.  Its
thresholds come from a one-shot machine-speed measurement
(:func:`calibration_probe` → :func:`thresholds_from_probe`) rather than
constants tuned on one reference box.  Its decisions are a pure
function of the calibration value and the observation history — and
both round-trip the checkpoint journal exactly — so a resumed run
re-derives the same partitioning and hits every journaled shard key.

Nothing here depends on the executor; the functions are pure and unit
tested in isolation.
"""

from __future__ import annotations

import time
from collections.abc import Iterator
from dataclasses import dataclass

__all__ = [
    "DEFAULT_MIN_FANOUT_SECONDS",
    "DEFAULT_TARGET_SHARD_SECONDS",
    "REFERENCE_PROBE_SECONDS",
    "ShardAutotuner",
    "calibration_probe",
    "effective_shards",
    "ring_bounds",
    "ring_ranges",
    "thresholds_from_probe",
]


def effective_shards(num_items: int, jobs: int) -> int:
    """How many shards to actually cut for ``num_items`` candidates.

    Never more shards than items, never fewer than one; a handful of
    candidates is not worth the fan-out bookkeeping of many workers.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    return max(1, min(jobs, num_items))


def ring_ranges(total: int, shards: int) -> list[tuple[int, int]]:
    """Cut ``[0, total)`` into ``shards`` balanced contiguous ranges.

    Returns ``(start, stop)`` half-open slices covering the interval in
    order, each of size ``total // shards`` or one more (the remainder
    goes to the leading ranges).  Empty ranges are never produced: the
    result has ``min(shards, total)`` entries, and ``[]`` for an empty
    ring.  Concatenating the slices in order reproduces ``range(total)``
    exactly, which is what lets the merge step reconstruct the serial
    visit order from contiguous shard payloads.
    """
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    if total < 0:
        raise ValueError(f"total must be >= 0, got {total}")
    if total == 0:
        return []
    shards = min(shards, total)
    base, extra = divmod(total, shards)
    ranges: list[tuple[int, int]] = []
    start = 0
    for idx in range(shards):
        stop = start + base + (1 if idx < extra else 0)
        ranges.append((start, stop))
        start = stop
    return ranges


#: Fallback thresholds when no calibration measurement is supplied —
#: the values PR 7 tuned on the reference container.
DEFAULT_TARGET_SHARD_SECONDS = 0.05
DEFAULT_MIN_FANOUT_SECONDS = 0.1

#: What :func:`calibration_probe` measures on the machine the default
#: thresholds were tuned on.  The ratio ``probe / reference`` scales the
#: thresholds on faster/slower machines.
REFERENCE_PROBE_SECONDS = 0.01

# Clamp for the calibration scale factor: a wildly slow probe (swapping,
# cold interpreter) must not push the thresholds into never-fan-out
# territory, nor a fast one into fanning out sub-millisecond rings.
_PROBE_SCALE_MIN = 0.25
_PROBE_SCALE_MAX = 8.0

# Fixed integer workload sized to ~REFERENCE_PROBE_SECONDS on the
# reference machine.
_PROBE_ITERATIONS = 120_000


def calibration_probe(iterations: int = _PROBE_ITERATIONS) -> float:
    """Measure this machine's speed on a fixed integer workload.

    Returns the wall-clock seconds one deterministic pure-Python loop
    takes — the same flavor of work (small-int arithmetic) the scalar
    candidate scan does, so the measurement transfers.  The *workload*
    is deterministic; the *measurement* is of course machine- and
    moment-dependent, which is why the executor journals it: autotune
    decisions must be a pure function of recorded history.
    """
    if iterations < 1:
        raise ValueError(f"iterations must be >= 1, got {iterations}")
    acc = 0
    start = time.perf_counter()
    for i in range(iterations):
        acc += i * i % 97
    elapsed = time.perf_counter() - start
    # A zero measurement (clock granularity) would collapse the scale
    # clamp; floor it at one microsecond.
    return max(elapsed, 1e-6)


def thresholds_from_probe(probe_seconds: float) -> tuple[float, float]:
    """Derive ``(target_shard_seconds, min_fanout_seconds)`` from a probe.

    The PR 7 constants encode "process dispatch costs ~X seconds of
    useful scan work" on the reference machine; on a slower or
    oversubscribed machine dispatch costs proportionally more wall
    time, so both thresholds scale linearly with the probe ratio,
    clamped to one order of magnitude around the reference.
    """
    if probe_seconds <= 0:
        raise ValueError(f"probe_seconds must be > 0, got {probe_seconds}")
    scale = probe_seconds / REFERENCE_PROBE_SECONDS
    scale = min(_PROBE_SCALE_MAX, max(_PROBE_SCALE_MIN, scale))
    return (
        DEFAULT_TARGET_SHARD_SECONDS * scale,
        DEFAULT_MIN_FANOUT_SECONDS * scale,
    )


@dataclass
class ShardAutotuner:
    """Cost-adaptive shard granularity for the ring fan-out.

    The naive policy (``effective_shards``) cuts every ring into
    ``jobs`` shards, which loses badly on small rings: dispatching a
    sub-millisecond scan to a worker process costs orders of magnitude
    more than running it inline.  The tuner instead predicts each ring's
    scan cost from the per-candidate rate observed on *previous* rings
    of the same run and keeps a ring serial unless the predicted cost
    clears ``min_fanout_seconds``; when it does fan out, it sizes shards
    to roughly ``target_shard_seconds`` apiece (capped at ``jobs``).

    Thresholds left at ``None`` are derived from ``calibration`` (a
    :func:`calibration_probe` measurement, normally replayed from the
    checkpoint journal) via :func:`thresholds_from_probe`, falling back
    to the reference-machine defaults when no measurement is supplied.
    Explicit threshold values always win.

    Determinism contract: decisions depend only on ``jobs``, the
    resolved thresholds, and the sequence of :meth:`observe` calls.  The
    executor feeds ``observe`` exclusively from shard-output wall times
    and ``calibration`` from a journaled probe record — both of which
    the checkpoint journal round-trips exactly (JSON float round-trip
    is identity) — so a resumed run replays the same inputs and
    re-derives identical shard ranges, a requirement for journal keys
    to match.
    """

    jobs: int
    target_shard_seconds: float | None = None
    min_fanout_seconds: float | None = None
    calibration: float | None = None
    observed_candidates: int = 0
    observed_seconds: float = 0.0
    autotuned: int = 0

    def __post_init__(self) -> None:
        if self.target_shard_seconds is None or self.min_fanout_seconds is None:
            if self.calibration is not None:
                target, fanout = thresholds_from_probe(self.calibration)
            else:
                target = DEFAULT_TARGET_SHARD_SECONDS
                fanout = DEFAULT_MIN_FANOUT_SECONDS
            if self.target_shard_seconds is None:
                self.target_shard_seconds = target
            if self.min_fanout_seconds is None:
                self.min_fanout_seconds = fanout

    def observe(self, candidates: int, seconds: float) -> None:
        """Record a completed ring: ``candidates`` scanned in ``seconds``."""
        if candidates < 0 or seconds < 0:
            raise ValueError("observations must be non-negative")
        self.observed_candidates += candidates
        self.observed_seconds += seconds

    def shards_for(self, num_candidates: int) -> int:
        """Shard count for the next ring of ``num_candidates``."""
        baseline = effective_shards(num_candidates, self.jobs)
        if self.observed_candidates <= 0:
            # No cost data yet: scan the first ring serially as a probe.
            decision = 1
        else:
            rate = self.observed_seconds / self.observed_candidates
            predicted = num_candidates * rate
            if predicted < self.min_fanout_seconds:
                decision = 1
            else:
                wanted = -(-predicted // max(self.target_shard_seconds, 1e-9))
                decision = max(1, min(baseline, int(wanted)))
        if decision != baseline:
            self.autotuned += 1
        return decision


def ring_bounds(
    initial_bound: int, alpha: int, max_bound: int
) -> Iterator[tuple[int, int]]:
    """Successive ``(f_min, f_max)`` windows of Procedure 5.1's rings.

    Mirrors the serial loop exactly: the first ring is
    ``[0, initial_bound]``, each following ring covers
    ``[previous_max + 1, previous_max + alpha]``, and every upper bound
    is clamped to ``max_bound``.  The iterator stops once ``max_bound``
    has been covered.
    """
    if alpha < 1:
        raise ValueError(f"alpha must be >= 1, got {alpha}")
    x_prev = -1
    x = initial_bound
    while x_prev < max_bound:
        top = min(x, max_bound)
        yield (x_prev + 1, top)
        x_prev = top
        x += alpha
