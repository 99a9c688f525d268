"""The parametric design compiler: enumerate at a few sizes, prove a range.

The enumerative engine (:func:`repro.core.optimize.procedure_5_1`,
:func:`repro.core.space_optimize.solve_space_optimal` /
:func:`solve_joint_optimal`) answers one problem size per run.  For the
paper's uniform-dependence algorithms the *answers* are strikingly
regular: the winning schedule vector, total time, space mapping and
cost sheet are piecewise polynomial in the (uniform) size parameter
``mu``.  This module exploits that: it runs the enumerative search at a
small number of sample sizes, fits exact rational polynomials, and
certifies maximal validity intervals by re-running the search at
interval endpoints and sampled interior points.  The result — a
:class:`~repro.symbolic.solution.SymbolicSolution` — answers any ``mu``
inside a certified interval in O(1), bit-identical to what enumeration
would return (including tie-break order, because the certified winner
*is* the search's tie-break selection at every verified size).

The interval-discovery loop per piece:

1. **Window.** Sample consecutive sizes until ``max_degree + 1`` points
   share a structural shape (found/not-found, dimensions), then
   interpolate exact polynomials through the window.
2. **Extend.** Probe forward with exponentially growing steps while the
   polynomials keep reproducing real search results; bisect the first
   failing step to locate the boundary.
3. **Verify.** Re-check the interval at its endpoints, ``interior``
   evenly spaced inner points, and every size already sampled inside
   it; shrink past any failure and repeat until clean.

Every sample is a genuine enumerative run — the certificate's cost is
``SymbolicSolution.samples`` searches at compile time, paid once and
cached (keyed by the canonical digest of the compile parameters, same
content-digest scheme as :mod:`repro.dse.cache`).
"""

from __future__ import annotations

import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from typing import NamedTuple

from ..core.optimize import procedure_5_1
from ..core.space_optimize import solve_joint_optimal, solve_space_optimal
from ..dse.cache import ResultCache, canonical_key
from ..model.algorithm import UniformDependenceAlgorithm
from ..model.index_set import ConstantBoundedIndexSet
from ..model.validate import SpecError
from ..obs.tracer import get_tracer
from .poly import RationalPoly, fit_polynomial
from .solution import SymbolicSolution, ValidityInterval

__all__ = [
    "DEFAULT_INTERIOR_SAMPLES",
    "DEFAULT_MAX_DEGREE",
    "DEFAULT_MU_RANGE",
    "AlgorithmFamily",
    "CompileError",
    "compile_joint",
    "compile_schedule",
    "compile_space",
    "family_from_algorithm",
    "joint_compile_params",
    "load_or_compile",
    "schedule_compile_params",
    "solution_cache_key",
    "space_compile_params",
]

#: Default certified size range for compiles that do not specify one.
DEFAULT_MU_RANGE = (1, 16)

#: The paper's closed-form optima are at most quadratic in ``mu`` (total
#: time ``mu*(mu+2)+1`` on Example 5.1); degree 2 is the observed ceiling.
DEFAULT_MAX_DEGREE = 2

#: Evenly spaced interior verification points per certified interval.
DEFAULT_INTERIOR_SAMPLES = 2


class CompileError(ValueError):
    """The family or parameters cannot be compiled symbolically."""


@dataclass(frozen=True)
class AlgorithmFamily:
    """An algorithm parameterized by one uniform size ``mu``.

    ``build(mu)`` must return the family member whose index set is the
    cube ``[0, mu]^n`` — same dependence matrix at every size (that is
    what makes the dependence structure, and hence the optimum,
    size-regular).
    """

    name: str
    build: Callable[[int], UniformDependenceAlgorithm] = field(compare=False)

    def algorithm(self, mu: int) -> UniformDependenceAlgorithm:
        if mu < 1:
            raise CompileError(f"mu must be >= 1, got {mu}")
        algo = self.build(mu)
        if set(algo.index_set.mu) != {mu}:
            raise CompileError(
                f"family {self.name!r} built non-uniform bounds "
                f"{algo.index_set.mu} for mu={mu}"
            )
        return algo


def family_from_algorithm(
    algorithm: UniformDependenceAlgorithm,
) -> AlgorithmFamily:
    """Lift a concrete algorithm instance into its size family.

    The instance's (uniform) ``mu`` is discarded; its dependence matrix
    and name are kept and re-instantiated at any requested size.  Raises
    :class:`CompileError` for non-uniform index-set bounds — those have
    more than one size axis and no single ``mu`` to parameterize.
    """
    bounds = algorithm.index_set.mu
    if len(set(bounds)) != 1:
        raise CompileError(
            f"algorithm {algorithm.name!r} has non-uniform bounds {bounds}; "
            "symbolic compilation needs a single size parameter"
        )
    n = len(bounds)
    dep = algorithm.dependence_matrix
    name = algorithm.name

    def build(mu: int) -> UniformDependenceAlgorithm:
        return UniformDependenceAlgorithm(
            index_set=ConstantBoundedIndexSet((mu,) * n),
            dependence_matrix=dep,
            name=name,
        )

    return AlgorithmFamily(name=name, build=build)


# -- the interval engine -------------------------------------------------

#: Structural shape of a not-found sample.
_NONE_SHAPE = ("none",)


class _Sample(NamedTuple):
    """One enumerative run: a structural ``shape`` plus integer values.

    Samples with different shapes can never share an interval; values
    are only compared between same-shape samples, coordinate-wise.
    """

    shape: tuple
    values: tuple[int, ...]


class _RawInterval(NamedTuple):
    lo: int
    hi: int
    shape: tuple
    polys: tuple[RationalPoly, ...]
    verified: tuple[int, ...]


def _spread(lo: int, hi: int, count: int) -> list[int]:
    """``count`` evenly spaced integers strictly inside ``[lo, hi]``."""
    if hi - lo < 2 or count < 1:
        return []
    return sorted({lo + round(i * (hi - lo) / (count + 1))
                   for i in range(1, count + 1)} - {lo, hi})


def _compile_intervals(
    lo: int,
    hi: int,
    sample_fn: Callable[[int], _Sample],
    max_degree: int,
    interior: int,
) -> tuple[list[_RawInterval], int]:
    """Cut ``[lo, hi]`` into certified pieces.  Returns (pieces, samples)."""
    memo: dict[int, _Sample] = {}

    def get(mu: int) -> _Sample:
        if mu not in memo:
            memo[mu] = sample_fn(mu)
        return memo[mu]

    def matches(shape: tuple, polys: Sequence[RationalPoly], mu: int) -> bool:
        s = get(mu)
        if s.shape != shape:
            return False
        return all(p(mu) == v for p, v in zip(polys, s.values))

    pieces: list[_RawInterval] = []
    start = lo
    while start <= hi:
        shape = get(start).shape
        width = len(get(start).values)
        window = [start]
        while (
            len(window) < max_degree + 1
            and window[-1] < hi
            and get(window[-1] + 1).shape == shape
        ):
            window.append(window[-1] + 1)
        polys = tuple(
            fit_polynomial(
                [(m, get(m).values[k]) for m in window], max_degree
            )
            for k in range(width)
        )
        end = window[-1]
        # Extend with exponentially growing probes, bisect the boundary.
        step = 1
        while end < hi:
            probe = min(end + step, hi)
            if matches(shape, polys, probe):
                end = probe
                step *= 2
            elif probe == end + 1:
                break
            else:
                good, bad = end, probe
                while bad - good > 1:
                    mid = (good + bad) // 2
                    if matches(shape, polys, mid):
                        good = mid
                    else:
                        bad = mid
                end = good
                break
        # Verify (and shrink past failures) until the piece is clean.
        while True:
            checks = sorted(
                set(_spread(start, end, interior))
                | {m for m in memo if start <= m <= end}
            )
            failed = next(
                (m for m in checks if not matches(shape, polys, m)), None
            )
            if failed is None:
                break
            end = max(
                m for m in checks
                if m < failed and matches(shape, polys, m)
            )
        verified = tuple(sorted(m for m in memo if start <= m <= end))
        pieces.append(_RawInterval(start, end, shape, polys, verified))
        start = end + 1
    return pieces, len(memo)


# -- task samplers and unpackers ----------------------------------------


def _flatten_design(design, *, with_pi: bool) -> _Sample:
    mapping = design.mapping
    rows = tuple(tuple(int(x) for x in row) for row in mapping.space)
    shape = ("ok", len(rows), len(rows[0]) if rows else 0)
    values: list[int] = [x for row in rows for x in row]
    if with_pi:
        values.extend(int(x) for x in mapping.schedule)
    cost = design.cost
    values.extend(
        (cost.processors, cost.wire_length, cost.buffers, cost.total_time)
    )
    return _Sample(shape, tuple(values))


def _unpack_schedule(raw: _RawInterval) -> ValidityInterval:
    if raw.shape == _NONE_SHAPE:
        return ValidityInterval(raw.lo, raw.hi, False, verified=raw.verified)
    (_, n) = raw.shape
    return ValidityInterval(
        raw.lo, raw.hi, True,
        pi=raw.polys[:n],
        total_time=raw.polys[n],
        verified=raw.verified,
    )


def _unpack_design(raw: _RawInterval, *, with_pi: bool) -> ValidityInterval:
    if raw.shape == _NONE_SHAPE:
        return ValidityInterval(raw.lo, raw.hi, False, verified=raw.verified)
    (_, array_dim, n) = raw.shape
    polys = raw.polys
    space = tuple(
        polys[r * n : (r + 1) * n] for r in range(array_dim)
    )
    at = array_dim * n
    pi = None
    if with_pi:
        pi = polys[at : at + n]
        at += n
    cost = polys[at : at + 4]
    return ValidityInterval(
        raw.lo, raw.hi, True,
        pi=pi,
        space=space,
        cost=cost,
        total_time=cost[3],
        verified=raw.verified,
    )


def _check_range(mu_range: Sequence[int]) -> tuple[int, int]:
    lo, hi = (int(x) for x in mu_range)
    if not 1 <= lo <= hi:
        raise CompileError(f"need 1 <= mu_lo <= mu_hi, got ({lo}, {hi})")
    return lo, hi


def _family_dependence(family: AlgorithmFamily, lo: int, hi: int) -> list:
    dep_lo = family.algorithm(lo).dependence_matrix.tolist()
    if family.algorithm(hi).dependence_matrix.tolist() != dep_lo:
        raise CompileError(
            f"family {family.name!r} changes its dependence matrix with mu; "
            "the optimum cannot be size-regular"
        )
    return dep_lo


def _finish(task, family, lo, hi, params, intervals, samples, t0):
    return SymbolicSolution(
        task=task,
        family=family.name,
        mu_lo=lo,
        mu_hi=hi,
        params=params,
        intervals=tuple(intervals),
        samples=samples,
        compile_seconds=time.perf_counter() - t0,
    )


def schedule_compile_params(
    dependence: Sequence[Sequence[int]],
    space: Sequence[Sequence[int]],
    *,
    method: str = "auto",
    mu_range: Sequence[int] = DEFAULT_MU_RANGE,
    max_degree: int = DEFAULT_MAX_DEGREE,
    interior_samples: int = DEFAULT_INTERIOR_SAMPLES,
) -> dict:
    """The canonical (JSON-able) identity of one schedule compile.

    Everything that influences the compiled artifact and nothing that
    does not — :func:`solution_cache_key` digests exactly this dict, so
    the serve layer can locate a compiled solution without rebuilding
    the family object.
    """
    lo, hi = _check_range(mu_range)
    return {
        "task": "symbolic-schedule",
        "dependence": [list(map(int, row)) for row in dependence],
        "space": [list(map(int, row)) for row in space],
        "method": method,
        "mu_lo": lo,
        "mu_hi": hi,
        "max_degree": int(max_degree),
        "interior_samples": int(interior_samples),
    }


def space_compile_params(
    dependence: Sequence[Sequence[int]],
    pi: Sequence[RationalPoly],
    *,
    array_dim: int = 1,
    magnitude: int = 1,
    mu_range: Sequence[int] = DEFAULT_MU_RANGE,
    max_degree: int = DEFAULT_MAX_DEGREE,
    interior_samples: int = DEFAULT_INTERIOR_SAMPLES,
) -> dict:
    """Canonical identity of one space-task compile (see schedule twin)."""
    lo, hi = _check_range(mu_range)
    return {
        "task": "symbolic-space",
        "dependence": [list(map(int, row)) for row in dependence],
        "pi": [p.to_list() for p in pi],
        "array_dim": int(array_dim),
        "magnitude": int(magnitude),
        "mu_lo": lo,
        "mu_hi": hi,
        "max_degree": int(max_degree),
        "interior_samples": int(interior_samples),
    }


def joint_compile_params(
    dependence: Sequence[Sequence[int]],
    *,
    array_dim: int = 1,
    magnitude: int = 1,
    time_weight: float = 1.0,
    space_weight: float = 1.0,
    mu_range: Sequence[int] = DEFAULT_MU_RANGE,
    max_degree: int = DEFAULT_MAX_DEGREE,
    interior_samples: int = DEFAULT_INTERIOR_SAMPLES,
) -> dict:
    """Canonical identity of one joint-task compile (see schedule twin)."""
    lo, hi = _check_range(mu_range)
    return {
        "task": "symbolic-joint",
        "dependence": [list(map(int, row)) for row in dependence],
        "array_dim": int(array_dim),
        "magnitude": int(magnitude),
        "time_weight": float(time_weight),
        "space_weight": float(space_weight),
        "mu_lo": lo,
        "mu_hi": hi,
        "max_degree": int(max_degree),
        "interior_samples": int(interior_samples),
    }


def solution_cache_key(params: dict) -> str:
    """Cache key for a compile — canonical digest of its params dict."""
    return canonical_key(params)


def compile_schedule(
    family: AlgorithmFamily,
    space: Sequence[Sequence[int]],
    *,
    method: str = "auto",
    mu_range: Sequence[int] = DEFAULT_MU_RANGE,
    max_degree: int = DEFAULT_MAX_DEGREE,
    interior_samples: int = DEFAULT_INTERIOR_SAMPLES,
) -> SymbolicSolution:
    """Certify Procedure 5.1's optimum over ``mu in mu_range``.

    Each sample is one :func:`procedure_5_1` call at that ``mu``: the
    same ring search an enumerative query runs, so the compiled
    polynomial pieces and their certificates reproduce its optima
    (winner, total time) at every sampled size.
    """
    t0 = time.perf_counter()
    lo, hi = _check_range(mu_range)
    dep = _family_dependence(family, lo, hi)
    space_rows = [list(map(int, row)) for row in space]

    def sample(mu: int) -> _Sample:
        result = procedure_5_1(family.algorithm(mu), space_rows, method=method)
        if not result.found:
            return _Sample(_NONE_SHAPE, ())
        pi = tuple(int(x) for x in result.schedule.pi)
        return _Sample(("ok", len(pi)), (*pi, int(result.total_time)))

    with get_tracer().span(
        "symbolic.compile", task="schedule", family=family.name,
        mu_lo=lo, mu_hi=hi,
    ) as span:
        raw, samples = _compile_intervals(
            lo, hi, sample, max_degree, interior_samples
        )
        span.set(samples=samples, intervals=len(raw))
    params = schedule_compile_params(
        dep, space_rows, method=method, mu_range=(lo, hi),
        max_degree=max_degree, interior_samples=interior_samples,
    )
    return _finish(
        "schedule", family, lo, hi, params,
        [_unpack_schedule(r) for r in raw], samples, t0,
    )


def compile_space(
    family: AlgorithmFamily,
    pi: Sequence[RationalPoly | int],
    *,
    array_dim: int = 1,
    magnitude: int = 1,
    mu_range: Sequence[int] = DEFAULT_MU_RANGE,
    max_degree: int = DEFAULT_MAX_DEGREE,
    interior_samples: int = DEFAULT_INTERIOR_SAMPLES,
) -> SymbolicSolution:
    """Certify Problem 6.1's optimal space mapping for a schedule family.

    ``pi`` entries may be integers or :class:`RationalPoly` expressions
    in ``mu`` (e.g. the matmul optimum's ``mu - 1`` component), so one
    compile covers schedules that themselves scale with the size.
    """
    t0 = time.perf_counter()
    lo, hi = _check_range(mu_range)
    dep = _family_dependence(family, lo, hi)
    pi_polys = tuple(
        p if isinstance(p, RationalPoly) else RationalPoly.constant(int(p))
        for p in pi
    )

    def sample(mu: int) -> _Sample:
        pi_mu = [p.eval_int(mu) for p in pi_polys]
        try:
            result = solve_space_optimal(
                family.algorithm(mu), pi_mu,
                array_dim=array_dim, magnitude=magnitude,
            )
        except SpecError:
            raise  # a bad design-space bound fails at every size
        except ValueError:
            # Pi violates Pi D > 0 at this size: provably no design.
            return _Sample(_NONE_SHAPE, ())
        if not result.found:
            return _Sample(_NONE_SHAPE, ())
        return _flatten_design(result.best, with_pi=False)

    with get_tracer().span(
        "symbolic.compile", task="space", family=family.name,
        mu_lo=lo, mu_hi=hi,
    ) as span:
        raw, samples = _compile_intervals(
            lo, hi, sample, max_degree, interior_samples
        )
        span.set(samples=samples, intervals=len(raw))
    params = space_compile_params(
        dep, pi_polys, array_dim=array_dim, magnitude=magnitude,
        mu_range=(lo, hi), max_degree=max_degree,
        interior_samples=interior_samples,
    )
    return _finish(
        "space", family, lo, hi, params,
        [_unpack_design(r, with_pi=False) for r in raw], samples, t0,
    )


def compile_joint(
    family: AlgorithmFamily,
    *,
    array_dim: int = 1,
    magnitude: int = 1,
    time_weight: float = 1.0,
    space_weight: float = 1.0,
    mu_range: Sequence[int] = DEFAULT_MU_RANGE,
    max_degree: int = DEFAULT_MAX_DEGREE,
    interior_samples: int = DEFAULT_INTERIOR_SAMPLES,
) -> SymbolicSolution:
    """Certify Problem 6.2's joint schedule+space optimum over a range."""
    t0 = time.perf_counter()
    lo, hi = _check_range(mu_range)
    dep = _family_dependence(family, lo, hi)

    def sample(mu: int) -> _Sample:
        result = solve_joint_optimal(
            family.algorithm(mu),
            array_dim=array_dim, magnitude=magnitude,
            time_weight=time_weight, space_weight=space_weight,
        )
        if not result.found:
            return _Sample(_NONE_SHAPE, ())
        return _flatten_design(result.best, with_pi=True)

    with get_tracer().span(
        "symbolic.compile", task="joint", family=family.name,
        mu_lo=lo, mu_hi=hi,
    ) as span:
        raw, samples = _compile_intervals(
            lo, hi, sample, max_degree, interior_samples
        )
        span.set(samples=samples, intervals=len(raw))
    params = joint_compile_params(
        dep, array_dim=array_dim, magnitude=magnitude,
        time_weight=time_weight, space_weight=space_weight,
        mu_range=(lo, hi), max_degree=max_degree,
        interior_samples=interior_samples,
    )
    return _finish(
        "joint", family, lo, hi, params,
        [_unpack_design(r, with_pi=True) for r in raw], samples, t0,
    )


def load_or_compile(
    compile_fn: Callable[[], SymbolicSolution],
    params: dict,
    cache: ResultCache | None = None,
) -> tuple[SymbolicSolution, bool]:
    """Fetch a compiled solution from ``cache`` or compile and store it.

    Returns ``(solution, compiled)`` where ``compiled`` is ``True`` when
    the compiler actually ran (a cache miss).  The key is the canonical
    digest of ``params`` — the same dict the compile functions embed in
    ``SymbolicSolution.params`` — so any client that can name the
    compile inputs can locate the artifact.
    """
    key = solution_cache_key(params)
    if cache is not None:
        entry = cache.get(key)
        if entry is not None:
            try:
                return SymbolicSolution.from_dict(entry), False
            except (KeyError, TypeError, ValueError):
                pass  # malformed payload: recompile and overwrite
    solution = compile_fn()
    if cache is not None:
        cache.put(key, solution.to_dict())
    return solution, True
