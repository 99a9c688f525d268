"""Interconnection primitives and the ``S D = P K`` condition (Def 2.2, cond 2).

A fixed processor array exposes a matrix ``P`` of interconnection
primitives (one column per directed link type); a mapping is
implementable on it when the space displacement of every dependence,
``S d_i``, decomposes into primitive hops ``K`` with

    ``S D = P K``  and  ``sum_j k_ji <= Pi d_i``   (Equation 2.3)

— the datum must reach its destination no later than its use.  The
slack ``Pi d_i - sum_j k_ji`` is realized as FIFO buffers on the
dependence's data link (the "three buffers" of Figure 2).

Routing finds, per dependence, a minimum-hop ``K_i >= 0`` with
``P K_i = S d_i`` — exactly the quantity Equation 2.3 bounds:

* on the nearest-neighbor ``P`` of :func:`nearest_neighbor_primitives`
  (the default, and the machine every design search costs on) the
  minimum is unique and closed-form: ``max(t_a, 0)`` hops on ``+e_a``
  and ``max(-t_a, 0)`` on ``-e_a`` for ``t = S d_i``, feasible iff
  ``|t|_1 <= Pi d_i`` (:func:`nearest_neighbor_usage`, for a whole stack);
* on a custom ``P`` it is an integer program, solved with our
  branch-and-bound solver, preferring a single-use decomposition.

The appendix's link-collision criterion is also provided: when every
column of ``K`` uses each primitive at most once in total (the paper's
"data use the data link just once"), no static link collision is
possible; the cycle-accurate simulator re-checks this dynamically.  On
the nearest-neighbor ``P`` that holds exactly when every ``|t_a| <= 1``.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from ..intlin.batch import batch_rows
from ..model.algorithm import UniformDependenceAlgorithm
from ..core.mapping import MappingMatrix

__all__ = [
    "nearest_neighbor_primitives",
    "nearest_neighbor_usage",
    "InterconnectionPlan",
    "plan_interconnection",
    "RoutingError",
]


class RoutingError(ValueError):
    """Raised when a dependence cannot be routed within its time budget."""


def nearest_neighbor_primitives(dim: int) -> list[list[int]]:
    """The ``2 * dim`` unit primitives of a nearest-neighbor array.

    For ``dim == 2`` this is the paper's example
    ``P = [[0, 0, 1, -1], [1, -1, 0, 0]]`` (east/west/north/south).
    ``dim == 0`` (a single processor) has no primitives.
    """
    if dim < 0:
        raise ValueError("dim must be non-negative")
    cols: list[list[int]] = []
    for axis in range(dim - 1, -1, -1):
        for sign in (1, -1):
            col = [0] * dim
            col[axis] = sign
            cols.append(col)
    if not cols:
        return [[] for _ in range(dim)]
    return [[col[r] for col in cols] for r in range(dim)]


@dataclass(frozen=True)
class InterconnectionPlan:
    """A solved condition 2: ``P``, ``K``, per-dependence routes and buffers.

    Attributes
    ----------
    primitives:
        ``P`` as a ``(k-1) x r`` matrix.
    usage:
        ``K`` as an ``r x m`` matrix (``k_ji`` = times dependence ``i``
        uses primitive ``j``).
    routes:
        Per dependence, the expanded hop list: primitive column indices
        in travel order (deterministic: primitive index order).
    buffers:
        Per dependence, ``Pi d_i - sum_j k_ji`` — FIFO depth on that
        data link (0 means the datum arrives just in time).
    """

    primitives: tuple[tuple[int, ...], ...]
    usage: tuple[tuple[int, ...], ...]
    routes: tuple[tuple[int, ...], ...]
    buffers: tuple[int, ...]

    @property
    def total_buffers(self) -> int:
        """Sum of buffer registers across all data links."""
        return sum(self.buffers)

    def hops(self, dep: int) -> int:
        """Number of primitive hops dependence ``dep`` takes."""
        return len(self.routes[dep])

    def statically_collision_free(self) -> bool:
        """The appendix criterion: every dependence uses links at most once.

        "Data link collisions occur only if data use links more than
        once when passing from the source to the destination" — when
        each column of ``K`` has every entry in ``{0, 1}``, a datum
        never revisits a link and the regular systolic flow cannot
        collide on a per-dependence channel.
        """
        return all(all(k <= 1 for k in col) for col in self.usage_columns())

    def usage_columns(self) -> list[list[int]]:
        """Columns of ``K`` (one per dependence)."""
        if not self.usage:
            return []
        r = len(self.usage)
        m = len(self.usage[0])
        return [[self.usage[j][i] for j in range(r)] for i in range(m)]


def nearest_neighbor_usage(displacements: np.ndarray) -> np.ndarray:
    """Closed-form min-hop ``K`` on :func:`nearest_neighbor_primitives` for
    a ``(..., dim)`` stack of displacements ``t``: columns ``2 (dim - 1 - a)``
    and ``2 (dim - 1 - a) + 1`` (``+e_a``, ``-e_a``) take ``max(t_a, 0)`` and
    ``max(-t_a, 0)`` hops, ``|t|_1`` in all."""
    t = displacements[..., ::-1]
    usage = np.stack([np.maximum(t, 0), np.maximum(-t, 0)], axis=-1)
    return usage.reshape(*t.shape[:-1], 2 * t.shape[-1])


def check_budget(
    target: Sequence[int], hops: int, budget: int, dependence: Sequence[int] | None = None
) -> None:
    """Raise :class:`RoutingError` unless ``budget = Pi d`` is positive (when
    the ``dependence`` is named) and covers the ``hops`` that carry
    ``target = S d`` (Equation 2.3)."""
    if dependence is not None and budget <= 0:
        raise RoutingError(
            f"dependence {dependence} has non-positive schedule length {budget}"
        )
    if hops > budget:
        raise RoutingError(
            f"displacement {target} needs {hops} hops but the schedule "
            f"allows only {budget} (Equation 2.3 violated)"
        )


def _route_nearest_neighbor(target: list[int], budget: int) -> list[int]:
    """One displacement's :func:`nearest_neighbor_usage`, within ``budget``."""
    k = nearest_neighbor_usage(batch_rows([target]))[0].tolist()
    check_budget(target, sum(k), budget)
    return k


def _route_one(
    primitives: list[list[int]],
    target: list[int],
    budget: int,
) -> list[int]:
    """Min-hop decomposition of ``target`` into custom primitive columns.

    The branch-and-bound router for any ``P`` other than the
    nearest-neighbor one.  Returns the usage vector ``K_i`` (length
    ``r``); raises :class:`RoutingError` when infeasible or over budget.
    """
    from ..ilp.branch_bound import solve_ilp
    from ..ilp.problem import LinearProgram

    dim = len(target)
    r = len(primitives[0]) if primitives and primitives[0] else 0
    if all(x == 0 for x in target):
        return [0] * r
    if r == 0:
        raise RoutingError(
            f"displacement {target} is non-zero but the array has no links"
        )
    a_eq = [[float(primitives[row][col]) for col in range(r)] for row in range(dim)]
    b_eq = [float(x) for x in target]
    names = [f"k_{j}" for j in range(r)]
    # Prefer single-use decompositions (each primitive at most once):
    # the appendix's link-collision-free criterion.  Fall back to the
    # general min-hop problem when single-use is infeasible.
    sol = solve_ilp(
        LinearProgram.build(
            c=[1.0] * r, a_eq=a_eq, b_eq=b_eq,
            bounds=[(0.0, 1.0)] * r, integer=True, names=names,
        )
    )
    if not (sol.ok and sum(sol.x_int()) <= budget):
        sol = solve_ilp(
            LinearProgram.build(
                c=[1.0] * r, a_eq=a_eq, b_eq=b_eq,
                bounds=[(0.0, float(budget))] * r, integer=True, names=names,
            )
        )
    if not sol.ok:
        raise RoutingError(f"no primitive decomposition of displacement {target}")
    k = list(sol.x_int())
    check_budget(target, sum(k), budget)
    return k


def plan_interconnection(
    algorithm: UniformDependenceAlgorithm,
    mapping: MappingMatrix,
    primitives: Sequence[Sequence[int]] | None = None,
) -> InterconnectionPlan:
    """Solve ``S D = P K`` under Equation 2.3 for every dependence.

    Parameters
    ----------
    primitives:
        The target machine's ``P``; defaults to the nearest-neighbor
        primitives of the array's dimension (the "design a new array"
        reading of the paper, where condition 2 is satisfiable by
        construction whenever each ``|S d_i|_1 <= Pi d_i``).  That
        ``P`` routes in closed form; any other runs the integer program.

    Raises
    ------
    RoutingError
        When some dependence cannot reach its destination in time —
        i.e. condition 2 of Definition 2.2 fails for this machine.
    """
    dim = mapping.array_dimension
    p = (
        [list(map(int, row)) for row in primitives]
        if primitives is not None
        else nearest_neighbor_primitives(dim)
    )
    if len(p) != dim:
        raise ValueError(f"P must have {dim} rows, got {len(p)}")
    r = len(p[0]) if p and p[0] else 0
    nearest = p == nearest_neighbor_primitives(dim)

    deps = algorithm.dependence_vectors()
    usage_cols: list[list[int]] = []
    routes: list[tuple[int, ...]] = []
    buffers: list[int] = []
    smat = mapping.space_matrix
    for d in deps:
        displacement = list(smat.matvec(d)) if smat.nrows else []
        budget = mapping.time(d)
        check_budget(displacement, 0, budget, d)
        k = (
            _route_nearest_neighbor(displacement, budget)
            if nearest
            else _route_one(p, displacement, budget)
        )
        usage_cols.append(k)
        hops: list[int] = []
        for col_idx, count in enumerate(k):
            hops.extend([col_idx] * count)
        routes.append(tuple(hops))
        buffers.append(budget - sum(k))

    usage = tuple(
        tuple(usage_cols[i][j] for i in range(len(deps))) for j in range(r)
    )
    return InterconnectionPlan(
        primitives=tuple(tuple(row) for row in p),
        usage=usage,
        routes=tuple(routes),
        buffers=tuple(buffers),
    )
