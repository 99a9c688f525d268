"""High-level one-call API for Problem 2.2.

``find_time_optimal_mapping(algorithm, space)`` runs the whole pipeline
the paper develops: validate the space mapping, search for the
time-optimal conflict-free schedule (Procedure 5.1 by default, the ILP
route for co-rank-1 problems on request), attach the exact conflict
analysis, and optionally verify the result behaviorally on the
cycle-accurate systolic simulator.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from ..model.algorithm import UniformDependenceAlgorithm
from ..model.validate import validate_algorithm, validate_space
from ..obs.tracer import get_tracer
from .conflict import ConflictAnalysis, analyze_conflicts
from .ilp_formulation import solve_corank1_optimal
from .mapping import MappingMatrix
from .optimize import procedure_5_1
from .schedule import LinearSchedule

__all__ = ["MappingResult", "find_time_optimal_mapping"]


@dataclass(frozen=True)
class MappingResult:
    """A solved mapping problem: algorithm, mapping, analysis, provenance.

    Attributes
    ----------
    algorithm:
        The input ``(J, D)``.
    mapping:
        The time-optimal conflict-free ``T = [S; Pi]``.
    schedule:
        The winning schedule with its time accounting.
    analysis:
        Exact conflict analysis of the winning mapping.
    solver:
        ``"procedure-5.1"`` or ``"ilp"`` — which route produced it.
    stats:
        Solver-specific effort counters.
    """

    algorithm: UniformDependenceAlgorithm
    mapping: MappingMatrix
    schedule: LinearSchedule
    analysis: ConflictAnalysis
    solver: str
    stats: dict

    @property
    def total_time(self) -> int:
        """Total execution time ``t = 1 + sum |pi_i| mu_i`` (Eq 2.7)."""
        return self.schedule.total_time

    def simulate(self, **kwargs):
        """Run the mapping on the cycle-accurate simulator.

        Convenience hook; equivalent to constructing a
        :class:`repro.systolic.simulator.SystolicSimulator` directly.
        Imported lazily to keep :mod:`repro.core` free of simulator
        dependencies.
        """
        from ..systolic.simulator import simulate_mapping

        return simulate_mapping(self.algorithm, self.mapping, **kwargs)


def find_time_optimal_mapping(
    algorithm: UniformDependenceAlgorithm,
    space: Sequence[Sequence[int]],
    *,
    solver: str = "auto",
    method: str = "auto",
    mu: int | str | None = None,
    mu_range: Sequence[int] | None = None,
    cache=None,
    checkpoint=None,
    resume: bool = False,
    budget=None,
    **solver_kwargs,
) -> MappingResult:
    """Solve Problem 2.2 end to end for a given space mapping.

    Parameters
    ----------
    algorithm:
        The uniform dependence algorithm ``(J, D)``.
    space:
        The space mapping matrix ``S`` (``(k-1) x n``).
    mu:
        Problem-size control for algorithms with uniform bounds.  An
        ``int`` re-instantiates the algorithm's family at that size
        before solving.  The string ``"symbolic"`` routes through the
        :mod:`repro.symbolic` design compiler: the schedule search is
        compiled once over ``mu_range`` (cached under ``cache`` when
        one is supplied), then answered for this algorithm's size by
        O(1) polynomial evaluation — falling back to the enumerative
        route whenever the size lies outside the certified range.
        ``None`` (default) solves the algorithm as given.
    mu_range:
        Certified ``(lo, hi)`` size range for the symbolic route;
        defaults to ``(1, mu)`` for the algorithm's own size.  Ignored
        unless ``mu="symbolic"``.
    solver:
        ``"procedure-5.1"`` — the enumerative search (works for any
        co-rank); ``"ilp"`` — the integer-programming route (co-rank 1
        only); ``"auto"`` — ILP when the mapping is co-rank 1, search
        otherwise.
    method:
        Conflict-check mode for the search route (see
        :func:`repro.core.conditions.check_conflict_free`).
    cache:
        Optional :class:`repro.dse.cache.ResultCache`; the search route
        consults it before searching and records its decision after,
        through :func:`repro.dse.executor.explore_schedule`.  Results
        (including the stats) are identical to the plain search.
    checkpoint, resume, budget:
        Checkpoint journal and run-level resource ceilings for the
        search route — see :func:`repro.dse.executor.explore_schedule`.
        Any of them routes the search through the engine; the ILP
        route, whose closed-form subproblems finish in milliseconds,
        ignores them.
    **solver_kwargs:
        Forwarded to the search route verbatim: the serial
        :func:`~repro.core.optimize.procedure_5_1` or the engine
        route.

    Raises
    ------
    ValueError
        When no conflict-free schedule exists within the search bound,
        or when ``solver="ilp"`` is requested for co-rank != 1.
    repro.model.SpecError
        When the algorithm or space mapping fails the untrusted-input
        structural validation (:mod:`repro.model.validate`).
    """
    validate_algorithm(algorithm)
    if isinstance(mu, int) and not isinstance(mu, bool):
        # Lazy import: repro.symbolic imports repro.core back.
        from ..symbolic.compiler import family_from_algorithm

        algorithm = family_from_algorithm(algorithm).algorithm(mu)
        mu = None
    elif mu is not None and mu != "symbolic":
        raise ValueError(f"mu must be an int, 'symbolic' or None, got {mu!r}")
    n = algorithm.n
    space_rows = tuple(tuple(int(x) for x in row) for row in space)
    validate_space(space_rows, n)
    k = len(space_rows) + 1
    corank = n - k

    if mu == "symbolic":
        result = _symbolic_route(
            algorithm, space_rows, method, mu_range, cache
        )
        if result is not None:
            return result
        # Not certified at this size: fall through to enumeration.

    if solver == "auto":
        solver = "ilp" if corank == 1 else "procedure-5.1"

    with get_tracer().span(
        "core.find_time_optimal_mapping",
        algorithm=algorithm.name,
        solver=solver,
        corank=corank,
    ) as root:
        result = _dispatch_solver(
            algorithm, space_rows, solver, method, cache, checkpoint,
            resume, budget, solver_kwargs,
        )
        root.set(total_time=result.total_time)
    return result


def _symbolic_route(
    algorithm, space_rows, method, mu_range, cache
) -> MappingResult | None:
    """Answer via the symbolic design compiler, or ``None`` to fall back.

    ``None`` means "not certified for this size" — the caller then runs
    the ordinary enumerative dispatch, so ``mu="symbolic"`` never
    weakens the result, it only changes how fast it arrives.
    """
    from ..dse.cache import ResultCache
    from ..symbolic.compiler import (
        compile_schedule,
        family_from_algorithm,
        load_or_compile,
        schedule_compile_params,
    )

    family = family_from_algorithm(algorithm)
    size = algorithm.index_set.mu[0]
    span_range = tuple(int(x) for x in mu_range) if mu_range else (1, size)
    params = schedule_compile_params(
        algorithm.dependence_matrix.tolist(),
        space_rows,
        method=method,
        mu_range=span_range,
    )
    solution_cache = cache if isinstance(cache, ResultCache) else None
    with get_tracer().span(
        "core.symbolic_route", algorithm=algorithm.name, mu=size,
        mu_lo=span_range[0], mu_hi=span_range[1],
    ) as span:
        solution, compiled = load_or_compile(
            lambda: compile_schedule(
                family, space_rows, method=method, mu_range=span_range
            ),
            params,
            solution_cache,
        )
        answer = solution.eval(size)
        span.set(compiled=compiled, certified=answer is not None)
        if answer is None:
            return None
        if not answer.found:
            raise ValueError(
                "Procedure 5.1 exhausted its bound without a conflict-free "
                f"schedule (symbolic certificate for mu in {list(answer.interval)})"
            )
        mapping = MappingMatrix(space=space_rows, schedule=answer.pi)
        schedule = LinearSchedule(pi=answer.pi, index_set=algorithm.index_set)
        if schedule.total_time != answer.total_time:
            raise RuntimeError(
                "internal error: symbolic total-time expression disagrees "
                "with Equation 2.7 at the evaluated size"
            )
        analysis = analyze_conflicts(mapping, algorithm.index_set)
        if not analysis.conflict_free:
            raise RuntimeError(
                "internal error: symbolic answer fails the exact conflict oracle"
            )
        span.set(total_time=answer.total_time)
    return MappingResult(
        algorithm=algorithm,
        mapping=mapping,
        schedule=schedule,
        analysis=analysis,
        solver="symbolic",
        stats={
            "compiled": compiled,
            "samples": solution.samples,
            "intervals": len(solution.intervals),
            "interval": list(answer.interval),
            "mu": size,
        },
    )


def _dispatch_solver(
    algorithm, space_rows, solver, method, cache, checkpoint, resume,
    budget, solver_kwargs,
) -> MappingResult:
    corank = algorithm.n - (len(space_rows) + 1)
    if solver == "ilp":
        if corank != 1:
            raise ValueError(
                f"the ILP route covers co-rank 1; this problem has co-rank {corank}"
            )
        res = solve_corank1_optimal(algorithm, space_rows, **solver_kwargs)
        if not res.found:
            raise ValueError("ILP route found no conflict-free schedule")
        stats = {
            "candidates_checked": res.candidates_checked,
            "subproblems": res.subproblems,
            "rejected_by_gcd": res.rejected_by_gcd,
        }
        mapping = res.mapping
        schedule = res.schedule
    elif solver == "procedure-5.1":
        if cache is not None or checkpoint is not None or budget is not None:
            # Lazy import: repro.dse.executor imports repro.core back.
            from ..dse.executor import explore_schedule

            res = explore_schedule(
                algorithm,
                space_rows,
                method=method,
                cache=cache,
                checkpoint=checkpoint,
                resume=resume,
                budget=budget,
                **solver_kwargs,
            )
        else:
            res = procedure_5_1(algorithm, space_rows, method=method, **solver_kwargs)
        if not res.found:
            raise ValueError(
                "Procedure 5.1 exhausted its bound without a conflict-free schedule"
            )
        stats = {
            "candidates_examined": res.candidates_examined,
            "rings_expanded": res.rings_expanded,
            **res.stats.counter_dict(),
        }
        mapping = res.mapping
        schedule = res.schedule
    else:
        raise ValueError(f"unknown solver {solver!r}")

    analysis = analyze_conflicts(mapping, algorithm.index_set)
    if not analysis.conflict_free:
        # The theorem checkers are sufficient, so this cannot trigger for
        # method="auto"/"exact"; it guards future checker extensions.
        raise RuntimeError(
            "internal error: solver returned a mapping the exact oracle rejects"
        )
    return MappingResult(
        algorithm=algorithm,
        mapping=mapping,
        schedule=schedule,
        analysis=analysis,
        solver=solver,
        stats=stats,
    )
