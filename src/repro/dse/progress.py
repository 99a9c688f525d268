"""Structured search telemetry for the mapping searches.

One :class:`SearchStats` object accompanies every search result in the
package — the serial enumerators (:func:`repro.core.optimize.procedure_5_1`,
:func:`repro.core.space_optimize.solve_space_optimal`,
:func:`repro.core.space_optimize.solve_joint_optimal`) and the parallel
engine (:mod:`repro.dse.executor`) all fill in the same counters, so a
result can be compared across execution strategies and surfaced
uniformly by the CLI.

The counters split in two groups:

* **deterministic counters** — candidates enumerated / pruned / checked,
  conflict and routing rejections, rings expanded.  These are a function
  of the search problem alone, never of the execution strategy, and
  participate in equality: a 4-worker run must produce a result equal to
  the serial one.
* **telemetry** — shard count, per-shard wall times, cache hits/misses.
  These describe *how* the search ran and are excluded from equality
  (``compare=False``), so cached or parallel runs still compare equal to
  cold serial runs.

This module is deliberately dependency-free (stdlib only): it is
imported by :mod:`repro.core`, and must not import it back.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["SearchStats", "format_stats"]


@dataclass
class SearchStats:
    """Uniform accounting for a mapping-space search.

    Attributes
    ----------
    candidates_enumerated:
        Candidates the search covered: schedule vectors in the expanded
        rings, or full-rank space-mapping combinations.  For schedule
        rings this includes the rows that were never built because
        their signs fail ``Pi D > 0`` (see ``forced_signs``).
    candidates_pruned:
        Candidates dropped before the conflict check: dependence
        violations (``Pi D <= 0``, the rows never built included) and
        rank deficiencies.
    candidates_checked:
        Candidates submitted to the conflict-freedom checker.
    conflicts_rejected:
        Checked candidates rejected as not conflict-free.
    routing_rejected:
        Designs rejected because no interconnection routing exists
        (space searches only).
    rings_expanded:
        Completed expansion rounds ``x_{l+1} = x_l + alpha`` of
        Procedure 5.1 that produced no winner.
    shards:
        Number of work-queue shards a design search (Problems 6.1 and
        6.2) was split into; 1 for the serial solvers and for every
        schedule search, which runs in process (telemetry).
    cache_hits, cache_misses:
        Persistent-cache accounting for this query (telemetry).
    wall_time:
        Total wall-clock seconds spent in the search (telemetry).
    shard_wall_times:
        Per-shard wall-clock seconds, in shard order; a schedule search
        is one in-process shard, so its one entry is its wall time
        (telemetry).
    shard_retries:
        Failed shards re-submitted to a worker pool (telemetry).
    shard_timeouts:
        Shards declared hung after exceeding the policy's per-shard
        timeout (telemetry).
    pool_restarts:
        Times a broken or hung process pool was abandoned; the next
        retry round starts a fresh one (telemetry).
    shards_resumed:
        Design shards whose journaled result was replayed from a
        checkpoint instead of being recomputed; always 0 for a schedule
        search, whose journal holds only its final decision (telemetry).
        ``RunBudget.max_shards`` likewise counts design shards only.
    degraded:
        Whether any shard fell back to the deterministic in-process
        path after exhausting its retries (telemetry).
    batches_evaluated:
        Non-empty candidate stacks handed to a vectorized judge — one
        per ``BatchCandidateScanner.stacked_stages`` call of a schedule
        search, for each ``S`` the call judged: one per group of rings
        at co-rank <= 1 and one per ring at co-rank >= 2, whose costly
        screens judge one ring per call (none for a group whose every
        row the sign forcing rules out; one more for each call that
        continues past a rejected ``ok`` row), and one per
        ``evaluate_designs_batched`` call of a Problem 6.1 search, so a
        sharded run counts one per shard (telemetry).
    fastpath_promotions:
        Built rows of a batch product (dependence mask, rank mask or
        conflict screen) whose int64 overflow bound could not be
        certified and that were computed exactly over Python ints; rows
        never built are never promoted, and a product a stacked search
        shares counts for each ``S`` it judged (telemetry).
    conflict_screens:
        Dependence and rank survivors of a schedule search whose
        conflict verdict a screen computed — at co-rank <= 1 every
        survivor of a judged group of rings, rings past the winner's
        included; at co-rank >= 2 those through the end of the ring that
        holds the first conflict-free one, or under ``method="paper"``
        through that one (telemetry).
    """

    candidates_enumerated: int = 0
    candidates_pruned: int = 0
    candidates_checked: int = 0
    conflicts_rejected: int = 0
    routing_rejected: int = 0
    rings_expanded: int = 0
    shards: int = field(default=1, compare=False)
    cache_hits: int = field(default=0, compare=False)
    cache_misses: int = field(default=0, compare=False)
    wall_time: float = field(default=0.0, compare=False)
    shard_wall_times: tuple[float, ...] = field(default=(), compare=False)
    shard_retries: int = field(default=0, compare=False)
    shard_timeouts: int = field(default=0, compare=False)
    pool_restarts: int = field(default=0, compare=False)
    shards_resumed: int = field(default=0, compare=False)
    degraded: bool = field(default=False, compare=False)
    batches_evaluated: int = field(default=0, compare=False)
    fastpath_promotions: int = field(default=0, compare=False)
    conflict_screens: int = field(default=0, compare=False)

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of cache lookups that hit (0.0 when none occurred)."""
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    # -- serialization ---------------------------------------------------

    def counter_dict(self) -> dict:
        """The deterministic counters only — safe to embed in results
        that must compare equal across execution strategies."""
        return {
            "candidates_enumerated": self.candidates_enumerated,
            "candidates_pruned": self.candidates_pruned,
            "candidates_checked": self.candidates_checked,
            "conflicts_rejected": self.conflicts_rejected,
            "routing_rejected": self.routing_rejected,
            "rings_expanded": self.rings_expanded,
        }

    def to_dict(self) -> dict:
        """Everything, telemetry included (for the CLI and benchmarks)."""
        return {
            **self.counter_dict(),
            "shards": self.shards,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "wall_time": self.wall_time,
            "shard_wall_times": list(self.shard_wall_times),
            "shard_retries": self.shard_retries,
            "shard_timeouts": self.shard_timeouts,
            "pool_restarts": self.pool_restarts,
            "shards_resumed": self.shards_resumed,
            "degraded": self.degraded,
            "batches_evaluated": self.batches_evaluated,
            "fastpath_promotions": self.fastpath_promotions,
            "conflict_screens": self.conflict_screens,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SearchStats":
        """Rebuild from :meth:`to_dict` / :meth:`counter_dict` output."""
        known = {f for f in cls.__dataclass_fields__}
        kwargs = {k: v for k, v in data.items() if k in known}
        if "shard_wall_times" in kwargs:
            kwargs["shard_wall_times"] = tuple(kwargs["shard_wall_times"])
        return cls(**kwargs)


def format_stats(stats: SearchStats) -> str:
    """Multi-line human-readable telemetry block for the CLI."""
    lines = [
        f"enumerated     : {stats.candidates_enumerated}",
        f"pruned         : {stats.candidates_pruned}",
        f"checked        : {stats.candidates_checked}",
        f"conflicted     : {stats.conflicts_rejected}",
    ]
    if stats.routing_rejected:
        lines.append(f"unroutable     : {stats.routing_rejected}")
    if stats.rings_expanded:
        lines.append(f"rings expanded : {stats.rings_expanded}")
    lines.append(f"shards         : {stats.shards}")
    if stats.cache_hits or stats.cache_misses:
        lines.append(
            f"cache          : {stats.cache_hits} hits / "
            f"{stats.cache_misses} misses "
            f"({stats.cache_hit_rate:.0%} hit rate)"
        )
    if stats.shard_retries or stats.shard_timeouts or stats.pool_restarts:
        lines.append(
            f"resilience     : {stats.shard_retries} retries / "
            f"{stats.shard_timeouts} timeouts / "
            f"{stats.pool_restarts} pool restarts"
        )
    if stats.batches_evaluated or stats.fastpath_promotions:
        lines.append(
            f"batched        : {stats.batches_evaluated} batch(es) / "
            f"{stats.fastpath_promotions} fast-path promotion(s)"
        )
    if stats.shards_resumed:
        lines.append(f"checkpoint     : {stats.shards_resumed} shard(s) resumed")
    if stats.degraded:
        lines.append("degraded       : fell back to in-process execution")
    lines.append(f"wall time      : {stats.wall_time:.3f}s")
    if len(stats.shard_wall_times) > 1:
        per = ", ".join(f"{t:.3f}" for t in stats.shard_wall_times)
        lines.append(f"shard times    : [{per}]s")
    return "\n".join(lines)
