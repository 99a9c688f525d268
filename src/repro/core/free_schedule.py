"""Optimal linear schedules *without* the conflict constraint (ref [16]).

Problem 6.1 assumes the schedule "possibly [comes from] the
optimization procedure proposed in [16]" — Shang & Fortes' companion
work on time-optimal linear schedules subject only to ``Pi D > 0``.
This module implements that sub-problem:

    minimize  ``sum_i |pi_i| mu_i``   s.t.  ``Pi d_i >= 1`` for all i

solved exactly by the same convex-partition machinery as Section 5 (a
sign-orthant split linearizes the absolute values; each orthant is an
ILP with our branch-and-bound).  The gap between this *dependence-only*
optimum and the conflict-free optimum of Problem 2.2 is the **conflict
penalty** of a space mapping — how much execution time the processor
shortage costs — which the ablation benchmarks report.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from ..ilp.branch_bound import solve_ilp
from ..ilp.problem import LinearProgram
from ..model.algorithm import UniformDependenceAlgorithm
from .schedule import LinearSchedule

__all__ = ["FreeScheduleResult", "optimal_free_schedule", "conflict_penalty"]


@dataclass(frozen=True)
class FreeScheduleResult:
    """The dependence-only optimum and its search accounting.

    Attributes
    ----------
    schedule:
        The optimal ``Pi`` subject only to ``Pi D > 0``.
    orthants_solved:
        How many sign-orthant subproblems were feasible and solved.
    """

    schedule: LinearSchedule
    orthants_solved: int

    @property
    def total_time(self) -> int:
        return self.schedule.total_time


def optimal_free_schedule(
    algorithm: UniformDependenceAlgorithm,
) -> FreeScheduleResult:
    """Exact minimum of Equation 2.7 over ``{Pi : Pi D >= 1}``.

    Splits by sign orthant: within the orthant ``sigma`` the objective
    is the linear ``sum_i sigma_i mu_i pi_i`` and the constraints stay
    linear, so each piece is a small ILP.  Orthants whose relaxation is
    infeasible are skipped; at least one orthant is feasible whenever
    the dependence cone is pointed (any valid schedule's sign pattern
    gives one).

    Raises
    ------
    ValueError
        When no orthant admits a valid schedule (the dependence graph
        is cyclic — no linear schedule exists at all).
    """
    n = algorithm.n
    mu = algorithm.mu
    deps = algorithm.dependence_vectors()

    best: tuple[int, tuple[int, ...]] | None = None
    solved = 0
    for sigma in itertools.product((1, -1), repeat=n):
        c = [float(s * m) for s, m in zip(sigma, mu)]
        a_ub: list[list[float]] = []
        b_ub: list[float] = []
        for d in deps:
            a_ub.append([-float(x) for x in d])
            b_ub.append(-1.0)
        bounds = [
            (0.0, None) if s > 0 else (None, 0.0) for s in sigma
        ]
        prog = LinearProgram.build(
            c, a_ub=a_ub, b_ub=b_ub, bounds=bounds, integer=True,
            names=[f"pi_{i + 1}" for i in range(n)],
        )
        sol = solve_ilp(prog)
        if not sol.ok:
            continue
        solved += 1
        pi = sol.x_int()
        if all(x == 0 for x in pi):
            continue  # the zero vector is not a schedule
        f = sum(abs(p) * m for p, m in zip(pi, mu))
        if best is None or (f, pi) < best:
            best = (f, pi)

    if best is None:
        raise ValueError(
            "no linear schedule satisfies Pi D > 0 (cyclic dependences)"
        )
    return FreeScheduleResult(
        schedule=LinearSchedule(pi=best[1], index_set=algorithm.index_set),
        orthants_solved=solved,
    )


def conflict_penalty(
    algorithm: UniformDependenceAlgorithm,
    conflict_free_time: int,
) -> int:
    """``t_conflict_free - t_dependence_only``: the price of the array.

    Zero means the space mapping costs nothing; for the paper's matmul
    example the penalty is ``mu^2 - mu`` cycles (``mu(mu+2)+1`` vs the
    dependence-only ``3 mu + 1``).
    """
    free = optimal_free_schedule(algorithm)
    return conflict_free_time - free.total_time
