"""Problems 6.1 and 6.2: space-optimal and jointly-optimal mappings.

Section 6 poses two open problems this reproduction implements as the
paper's stated future work:

* **Problem 6.1 (space-optimal, conflict-free)** — given the linear
  schedule ``Pi``, find a space mapping ``S`` such that ``T = [S; Pi]``
  is conflict-free and "the number of processors plus the wire length
  of the array is minimized".
* **Problem 6.2 (optimal conflict-free)** — neither ``S`` nor ``Pi``
  given: optimize a combined criterion over both.

Both are solved by exact enumeration over a bounded design space of
candidate space mappings (rows with entries in ``[-magnitude,
magnitude]``, normalized to primitive rows with positive leading
entry, full row rank, deduplicated up to row order) — complete within
the bound, which covers every space mapping appearing in the paper
(all of whose entries are in ``{-1, 0, 1}``).  Conflict-freedom uses
the exact ``auto`` checker, so reported optima are certified.  Every
solver, serial or sharded, runs the one tally-and-rank loop
:func:`search_designs` with its own judge.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass, field

import numpy as np

from ..dse.progress import SearchStats
from ..intlin.gcdutil import normalize_primitive
from ..intlin.matrix import rank
from ..intlin.batch import batch_rows
from ..obs.tracer import get_tracer
from ..model.algorithm import UniformDependenceAlgorithm
from ..model.validate import SpecBoundsError
from ..systolic.cost import ArrayCost, evaluate_costs
from ..systolic.interconnect import RoutingError
from .conditions import check_conflict_free
from .conflict import box_kernel_screen, box_kernel_table
from .mapping import MappingMatrix
from .optimize import procedure_5_1_stacked
from .schedule import LinearSchedule

__all__ = [
    "DesignJudge",
    "SpaceDesign",
    "SpaceOptimizationResult",
    "check_design_args",
    "cost_designs",
    "enumerate_space_rows",
    "evaluate_design",
    "evaluate_designs_batched",
    "evaluate_joint_designs",
    "joint_objective",
    "pareto_frontier",
    "enumerate_space_mappings",
    "rank_designs",
    "search_designs",
    "solve_space_optimal",
    "solve_joint_optimal",
]


@dataclass(frozen=True)
class SpaceDesign:
    """One evaluated candidate design for Problem 6.1 / 6.2."""

    mapping: MappingMatrix
    cost: ArrayCost
    objective: float


@dataclass(frozen=True)
class SpaceOptimizationResult:
    """Outcome of a space-mapping optimization.

    Attributes
    ----------
    best:
        The minimal-objective certified design (``None`` if no
        candidate in the bound was conflict-free and routable).
    ranking:
        All surviving designs, best first — Problem 6.1 asks for a
        single optimum but array designers want the Pareto context.
    candidates_examined, rejected_conflicts, rejected_routing:
        Search accounting.
    stats:
        Uniform :class:`repro.dse.progress.SearchStats` accounting,
        deterministic across execution strategies.
    """

    best: SpaceDesign | None
    ranking: tuple[SpaceDesign, ...]
    candidates_examined: int
    rejected_conflicts: int
    rejected_routing: int
    stats: SearchStats = field(default_factory=SearchStats)

    @property
    def found(self) -> bool:
        return self.best is not None


def enumerate_space_rows(n: int, magnitude: int = 1) -> list[tuple[int, ...]]:
    """Primitive candidate rows with positive leading non-zero entry.

    Row-scaling and row-negation do not change the induced processor
    partition (they relabel PE coordinates), so only normalized
    representatives are enumerated.
    """
    seen: set[tuple[int, ...]] = set()
    out: list[tuple[int, ...]] = []
    for raw in itertools.product(range(-magnitude, magnitude + 1), repeat=n):
        if all(x == 0 for x in raw):
            continue
        norm = tuple(normalize_primitive(list(raw)))
        if norm not in seen:
            seen.add(norm)
            out.append(norm)
    return out


def enumerate_space_mappings(
    n: int, array_dim: int, magnitude: int = 1
) -> Iterator[tuple[tuple[int, ...], ...]]:
    """All full-rank ``array_dim x n`` candidate space mappings.

    Candidates are combinations (not permutations) of normalized rows —
    row order only permutes processor coordinates.
    """
    rows = enumerate_space_rows(n, magnitude)
    for combo in itertools.combinations(rows, array_dim):
        if rank([list(r) for r in combo]) == array_dim:
            yield combo


def _default_objective(cost: ArrayCost) -> float:
    """Problem 6.1's stated criterion: processors + wire length."""
    return cost.combined(processor_weight=1.0, wire_weight=1.0)


def joint_objective(
    cost: ArrayCost, time_weight: float = 1.0, space_weight: float = 1.0
) -> float:
    """Problem 6.2's ranking criterion: weighted time plus VLSI area.

    The single source of truth for the joint cost model — used by
    :func:`evaluate_joint_designs` (cold searches, serial and
    sharded) *and* by the engine's warm-cache rebuild, so a cached
    ranking can never drift from a recomputed one if the formula
    changes.
    """
    return time_weight * cost.total_time + space_weight * (
        cost.processors + cost.wire_length
    )


def evaluate_design(
    algorithm: UniformDependenceAlgorithm,
    space: Sequence[Sequence[int]],
    pi: Sequence[int],
    objective: Callable[[ArrayCost], float] | None = None,
) -> tuple[str, SpaceDesign | None]:
    """Judge one Problem-6.1 candidate ``(S, Pi)``.

    Returns ``(status, design)`` with status one of ``"rank"``,
    ``"conflict"``, ``"routing"`` (design is ``None``) or ``"ok"``.
    This is the scalar reference of :func:`evaluate_designs_batched`.
    """
    pi_t = tuple(int(x) for x in pi)
    space_rows = tuple(tuple(int(x) for x in row) for row in space)
    obj = objective or _default_objective
    t = MappingMatrix(space=space_rows, schedule=pi_t)
    if t.rank() != len(space_rows) + 1:
        return "rank", None
    if not check_conflict_free(t, algorithm.mu, method="auto").holds:
        return "conflict", None
    return cost_designs(algorithm, [t], obj)[0]


def cost_designs(
    algorithm: UniformDependenceAlgorithm,
    mappings: Sequence[MappingMatrix],
    objective: Callable[[ArrayCost], float],
) -> list[tuple[str, SpaceDesign | None]]:
    """The last stage of every judge: route and cost conflict-free ``T``s
    as one :func:`~repro.systolic.cost.evaluate_costs` stack."""
    return [
        ("routing", None) if isinstance(cost, RoutingError)
        else ("ok", SpaceDesign(mapping=t, cost=cost, objective=objective(cost)))
        for t, cost in zip(mappings, evaluate_costs(algorithm, mappings))
    ]


def evaluate_designs_batched(
    algorithm: UniformDependenceAlgorithm,
    spaces: Sequence[Sequence[Sequence[int]]],
    pi: Sequence[int],
    objective: Callable[[ArrayCost], float] | None = None,
) -> tuple[list[tuple[str, SpaceDesign | None]], int, int]:
    """Judge a stack of Problem-6.1 candidates with one vectorized screen.

    Returns ``(outcomes, batches_evaluated, fastpath_promotions)`` where
    ``outcomes[i]`` is exactly what ``evaluate_design(algorithm,
    spaces[i], pi, objective)`` returns.  The rank check stays scalar
    (tiny exact eliminations).  The conflict decision is one
    :func:`~repro.core.conflict.box_kernel_screen` of every rank
    survivor against the :func:`~repro.core.conflict.box_kernel_table`
    of ``Pi``: ``S`` is conflict-free with ``Pi`` iff no point of
    ``ker Pi`` inside the box is orthogonal to every row of ``S``.
    Routing and cost of the conflict-free designs stay scalar.
    ``batches_evaluated`` is 1 for a non-empty stack, and
    ``fastpath_promotions`` counts the rows of ``S`` the screen computed
    over Python ints.
    """
    pi_t = tuple(int(x) for x in pi)
    obj = objective or _default_objective
    norm_spaces = [
        tuple(tuple(int(x) for x in row) for row in space) for space in spaces
    ]
    # Rank survivors, in candidate order.
    mappings: dict[int, MappingMatrix] = {}
    for i, space_rows in enumerate(norm_spaces):
        t = MappingMatrix(space=space_rows, schedule=pi_t)
        if t.rank() == len(space_rows) + 1:
            mappings[i] = t
    free = np.zeros(len(norm_spaces), dtype=bool)
    promotions = 0
    if mappings:
        survivors = list(mappings)
        # Zero rows pad every candidate to the widest: they never make a
        # kernel point non-orthogonal, so the verdicts are unchanged.
        width = max(len(norm_spaces[i]) for i in survivors)
        zero = (0,) * algorithm.n
        stack = batch_rows([
            row
            for i in survivors
            for row in norm_spaces[i] + (zero,) * (width - len(norm_spaces[i]))
        ]).reshape(len(survivors), width, algorithm.n)
        free[survivors], promotions = box_kernel_screen(
            stack, box_kernel_table([pi_t], algorithm.mu)
        )
    costed = iter(cost_designs(algorithm, [t for i, t in mappings.items() if free[i]], obj))
    outcomes = [
        ("rank", None) if i not in mappings
        else next(costed) if free[i]
        else ("conflict", None)
        for i in range(len(norm_spaces))
    ]
    return outcomes, int(len(norm_spaces) > 0), promotions


def evaluate_joint_designs(
    algorithm: UniformDependenceAlgorithm,
    spaces: Sequence[Sequence[Sequence[int]]],
    time_weight: float = 1.0,
    space_weight: float = 1.0,
    schedule_kwargs: dict | None = None,
) -> list[tuple[str, SpaceDesign | None]]:
    """Judge a stack of Problem-6.2 candidates ``S``, each paired with
    its time-optimal ``Pi``.

    One :func:`~repro.core.optimize.procedure_5_1_stacked` search finds
    every ``S``'s Procedure 5.1 winner in one ring pass; the winners are
    then routed and costed as one stack (:func:`cost_designs`).
    ``outcomes[i]`` has status ``"conflict"`` when ``spaces[i]`` has no
    conflict-free schedule in the search bound, ``"routing"`` when its
    winner is unroutable, else ``"ok"``.  ``schedule_kwargs`` reaches
    the search verbatim.  Shared by :func:`solve_joint_optimal`,
    :func:`pareto_frontier` and the engine.
    """
    searches = procedure_5_1_stacked(algorithm, spaces, **(schedule_kwargs or {}))
    costed = iter(cost_designs(
        algorithm, [search.mapping for search in searches if search.found],
        lambda cost: joint_objective(cost, time_weight, space_weight),
    ))
    return [next(costed) if search.found else ("conflict", None) for search in searches]


def rank_designs(designs: list[SpaceDesign]) -> list[SpaceDesign]:
    """Deterministic total order: objective first, then the space rows."""
    return sorted(designs, key=lambda d: (d.objective, d.mapping.space))


#: A design judge: candidate spaces in, one ``(status, design)`` per
#: candidate out, in candidate order.
DesignJudge = Callable[[list], Sequence[tuple[str, SpaceDesign | None]]]


def check_design_args(array_dim: int, magnitude: int, keep_ranking: int) -> None:
    """Reject a design-space bound below 1 with a typed error."""
    bounds = {"array_dim": array_dim, "magnitude": magnitude, "keep_ranking": keep_ranking}
    for name, value in bounds.items():
        if value < 1:
            raise SpecBoundsError(f"{name} must be >= 1, got {value}")


def search_designs(
    algorithm: UniformDependenceAlgorithm,
    judge: DesignJudge,
    *,
    array_dim: int,
    magnitude: int,
    keep_ranking: int,
    stats: SearchStats,
    span_name: str,
) -> SpaceOptimizationResult:
    """The tally-and-rank loop of Problems 6.1 and 6.2, for any judge.

    Enumerates the bounded design space, hands it to ``judge`` and
    tallies the outcomes into ``stats``: ``rank`` is pruned, every other
    status is checked, ``conflict`` and ``routing`` are rejected and
    ``ok`` designs are ranked by :func:`rank_designs` and cut to
    ``keep_ranking``.  The result is the same whichever judge ran.  The
    ``span_name`` span times the search into ``stats.wall_time``.
    """
    check_design_args(array_dim, magnitude, keep_ranking)
    span = get_tracer().span(
        span_name, algorithm=algorithm.name, array_dim=array_dim,
        magnitude=magnitude,
    )
    designs: list[SpaceDesign] = []
    with span:
        spaces = list(enumerate_space_mappings(algorithm.n, array_dim, magnitude))
        for status, design in judge(spaces):
            stats.candidates_enumerated += 1
            if status == "rank":
                stats.candidates_pruned += 1
                continue
            stats.candidates_checked += 1
            if status == "conflict":
                stats.conflicts_rejected += 1
            elif status == "routing":
                stats.routing_rejected += 1
            else:
                designs.append(design)
        designs = rank_designs(designs)
        span.set(candidates=stats.candidates_enumerated, surviving=len(designs))
    stats.wall_time = span.duration
    return SpaceOptimizationResult(
        best=designs[0] if designs else None,
        ranking=tuple(designs[:keep_ranking]),
        candidates_examined=stats.candidates_enumerated,
        rejected_conflicts=stats.conflicts_rejected,
        rejected_routing=stats.routing_rejected,
        stats=stats,
    )


def solve_space_optimal(
    algorithm: UniformDependenceAlgorithm,
    pi: Sequence[int],
    *,
    array_dim: int = 1,
    magnitude: int = 1,
    objective: Callable[[ArrayCost], float] | None = None,
    keep_ranking: int = 10,
) -> SpaceOptimizationResult:
    """Problem 6.1: given ``Pi``, find the cheapest conflict-free ``S``.

    Parameters
    ----------
    pi:
        The (given) linear schedule — typically from Procedure 5.1 or
        the scheduling-only optimization the paper cites ([16]).
    array_dim:
        Target array dimension ``k - 1``.
    magnitude:
        Entry bound of the candidate rows (1 covers the paper's
        designs).
    objective:
        Cost aggregation; defaults to processors + wire length.
    keep_ranking:
        How many runner-up designs to retain.
    """
    pi_t = tuple(int(x) for x in pi)
    if not LinearSchedule(pi=pi_t, index_set=algorithm.index_set).respects(algorithm):
        raise ValueError("the given Pi violates the dependence condition Pi D > 0")

    stats = SearchStats()

    def judge(spaces):
        outcomes, stats.batches_evaluated, stats.fastpath_promotions = (
            evaluate_designs_batched(algorithm, spaces, pi_t, objective)
        )
        return outcomes

    result = search_designs(
        algorithm, judge, array_dim=array_dim, magnitude=magnitude,
        keep_ranking=keep_ranking, stats=stats,
        span_name="core.solve_space_optimal",
    )
    stats.shard_wall_times = (stats.wall_time,)
    return result


def pareto_frontier(
    algorithm: UniformDependenceAlgorithm,
    *,
    array_dim: int = 1,
    magnitude: int = 1,
    schedule_kwargs: dict | None = None,
) -> tuple[SpaceDesign, ...]:
    """Non-dominated designs over (time, processors, wire, buffers).

    Explores the same bounded design space as :func:`solve_joint_optimal`
    (every candidate ``S`` paired with its time-optimal conflict-free
    schedule) and returns the Pareto frontier: designs not dominated in
    all four metrics simultaneously.  This is the designer's view of
    Problem 6.2 — instead of committing to a weighting, see the whole
    trade-off curve.  Runs :func:`search_designs` with the joint judge,
    keeping every ``ok`` design.
    """
    candidates: list[SpaceDesign] = []

    def judge(spaces):
        outcomes = evaluate_joint_designs(
            algorithm, spaces, schedule_kwargs=schedule_kwargs
        )
        candidates.extend(design for _, design in outcomes if design is not None)
        return outcomes

    search_designs(
        algorithm, judge, array_dim=array_dim, magnitude=magnitude,
        keep_ranking=1, stats=SearchStats(), span_name="core.pareto_frontier",
    )

    def metrics(d: SpaceDesign) -> tuple[int, int, int, int]:
        return (
            d.cost.total_time,
            d.cost.processors,
            d.cost.wire_length,
            d.cost.buffers,
        )

    def dominated(a: SpaceDesign, b: SpaceDesign) -> bool:
        ma, mb = metrics(a), metrics(b)
        return all(x >= y for x, y in zip(ma, mb)) and ma != mb

    frontier = [
        d for d in candidates
        if not any(dominated(d, other) for other in candidates)
    ]
    # Deduplicate identical metric points (keep the lexicographically
    # smallest space for determinism).
    best_by_metrics: dict[tuple[int, int, int, int], SpaceDesign] = {}
    for d in frontier:
        key = metrics(d)
        incumbent = best_by_metrics.get(key)
        if incumbent is None or d.mapping.space < incumbent.mapping.space:
            best_by_metrics[key] = d
    return tuple(
        sorted(best_by_metrics.values(), key=lambda d: metrics(d))
    )


def solve_joint_optimal(
    algorithm: UniformDependenceAlgorithm,
    *,
    array_dim: int = 1,
    magnitude: int = 1,
    time_weight: float = 1.0,
    space_weight: float = 1.0,
    keep_ranking: int = 10,
    schedule_kwargs: dict | None = None,
) -> SpaceOptimizationResult:
    """Problem 6.2: optimize over ``S`` *and* ``Pi`` jointly.

    For every candidate ``S`` the time-optimal conflict-free ``Pi`` is
    found by Procedure 5.1; designs are then ranked by
    ``time_weight * t + space_weight * (processors + wire)`` — the
    "combination of the total execution time and the VLSI area"
    criterion Section 2 mentions.
    """
    stats = SearchStats()

    def judge(spaces):
        return evaluate_joint_designs(
            algorithm, spaces, time_weight, space_weight, schedule_kwargs
        )

    result = search_designs(
        algorithm, judge, array_dim=array_dim, magnitude=magnitude,
        keep_ranking=keep_ranking, stats=stats,
        span_name="core.solve_joint_optimal",
    )
    stats.shard_wall_times = (stats.wall_time,)
    return result
