"""Deterministic partitioning of candidate spaces into work shards.

The engine's correctness contract is that a sharded search returns a
result *equal* to the serial one.  Candidates are always materialized
in the serial enumerator's order (combination order from
:func:`repro.core.space_optimize.enumerate_space_mappings`) *before*
sharding, and :func:`ring_ranges` cuts that order into balanced
contiguous ranges, so shard outputs taken in shard order are exactly
the sequence the serial scan would have visited.  A shard payload names
its ``(start, stop)`` range and the worker re-derives its slice
locally.  :func:`ring_bounds` gives Procedure 5.1's ring windows, which
:func:`repro.core.optimize.search_rings` walks in sequence.

Nothing here depends on the executor; the functions are pure and unit
tested in isolation.
"""

from __future__ import annotations

from collections.abc import Iterator

__all__ = ["effective_shards", "ring_bounds", "ring_ranges"]


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
