"""Branch-and-bound integer linear programming.

The paper assumes a standard integer-programming algorithm is available
(Section 5 cites Schrijver's polynomial-time result for fixed
dimension); this module supplies one: best-first branch-and-bound with
LP relaxations solved by ``scipy.optimize.linprog`` (HiGHS).

Problems arising from the paper are tiny (``n <= 6`` variables,
coefficients in ``{-1, 0, 1, mu}``), so the emphasis is on exactness
and predictability: deterministic branching order (most fractional
variable, lowest index tie-break), incumbent tracking, and explicit
node accounting so the benchmarks can report search effort.
"""

from __future__ import annotations

import heapq
import itertools
import math

import numpy as np

from .problem import LinearProgram, LPSolution

__all__ = ["solve_lp_relaxation", "solve_ilp"]

_INT_TOL = 1e-6


def solve_lp_relaxation(problem: LinearProgram) -> LPSolution:
    """Solve the LP relaxation with HiGHS; translate the status codes.

    scipy is imported here, not at module level: ``repro.core`` imports
    this module, and most processes (the CLI, the server, design
    searches on the default interconnect) never solve an LP.
    """
    from scipy.optimize import linprog

    res = linprog(
        c=problem.c,
        A_ub=problem.a_ub if problem.a_ub.shape[0] else None,
        b_ub=problem.b_ub if problem.b_ub.shape[0] else None,
        A_eq=problem.a_eq if problem.a_eq.shape[0] else None,
        b_eq=problem.b_eq if problem.b_eq.shape[0] else None,
        bounds=problem.bounds,
        method="highs",
    )
    if res.status == 0:
        return LPSolution(status="optimal", x=tuple(res.x), objective=float(res.fun))
    if res.status == 2:
        return LPSolution(status="infeasible", x=None, objective=None)
    if res.status == 3:
        return LPSolution(status="unbounded", x=None, objective=None)
    return LPSolution(status="error", x=None, objective=None)


def _most_fractional(x: np.ndarray, mask: np.ndarray) -> int | None:
    """Index of the integral-constrained variable farthest from integrality."""
    best_idx = None
    best_frac = _INT_TOL
    for i in np.flatnonzero(mask):
        frac = abs(x[i] - round(x[i]))
        if frac > best_frac:
            best_frac = frac
            best_idx = int(i)
    return best_idx


def solve_ilp(problem: LinearProgram, *, max_nodes: int = 100_000) -> LPSolution:
    """Exact best-first branch-and-bound over LP relaxations.

    Returns the optimal integral solution, ``"infeasible"`` when none
    exists, or raises :class:`RuntimeError` if the node budget is
    exhausted (which would indicate a mis-posed problem — the paper's
    instances solve in a handful of nodes).

    Unbounded relaxations at the root are reported as ``"unbounded"``;
    deeper in the tree they cannot occur once the root is bounded.
    """
    root = solve_lp_relaxation(problem)
    if root.status in ("infeasible", "unbounded", "error"):
        return LPSolution(status=root.status, x=None, objective=None, nodes=1)

    counter = itertools.count()
    heap: list[tuple[float, int, LinearProgram]] = [
        (root.objective, next(counter), problem)
    ]
    incumbent: tuple[float, tuple[float, ...]] | None = None
    nodes = 0

    while heap:
        bound, _tie, sub = heapq.heappop(heap)
        if incumbent is not None and bound >= incumbent[0] - 1e-9:
            continue
        nodes += 1
        if nodes > max_nodes:
            raise RuntimeError(f"branch-and-bound node budget exceeded ({max_nodes})")
        rel = solve_lp_relaxation(sub)
        if not rel.ok:
            continue
        if incumbent is not None and rel.objective >= incumbent[0] - 1e-9:
            continue
        x = np.asarray(rel.x)
        branch_var = _most_fractional(x, problem.integer)
        if branch_var is None:
            # Integral solution; snap and record.
            snapped = tuple(
                float(round(v)) if problem.integer[i] else float(v)
                for i, v in enumerate(x)
            )
            if problem.is_feasible_point(snapped):
                obj = float(problem.c @ np.asarray(snapped))
                if incumbent is None or obj < incumbent[0] - 1e-9:
                    incumbent = (obj, snapped)
            continue
        v = x[branch_var]
        lo_child = sub.with_bounds(branch_var, None, math.floor(v))
        hi_child = sub.with_bounds(branch_var, math.ceil(v), None)
        for child in (lo_child, hi_child):
            child_rel = solve_lp_relaxation(child)
            nodes += 1
            if child_rel.ok and (
                incumbent is None or child_rel.objective < incumbent[0] - 1e-9
            ):
                heapq.heappush(heap, (child_rel.objective, next(counter), child))

    if incumbent is None:
        return LPSolution(status="infeasible", x=None, objective=None, nodes=nodes)
    return LPSolution(
        status="optimal", x=incumbent[1], objective=incumbent[0], nodes=nodes
    )
