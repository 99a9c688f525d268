"""Integer-programming formulations of Problem 2.2 (Section 5).

For co-rank-1 mappings (``T in Z^{(n-1) x n}``) the conflict-freedom
constraint is the disjunction

    ``exists i : |f_i(pi_1, ..., pi_n)| > mu_i``          (5.2 cond. 3)

where the ``f_i`` are the *linear* functionals of Proposition 3.2 (the
entries of the unique conflict vector, Equation 3.2), read off the
columns of :func:`~repro.core.conflict.adjugate_conflict_matrix`.
Following the appendix, the disjunctive program is partitioned into
``2n`` convex integer linear programs (one per conflict-vector entry and
sign), each solvable by exact extreme-point enumeration or
branch-and-bound; the best post-checked solution is the optimum.

The post-check matters: the formulation drops the ``gcd = 1``
normalization (the appendix discusses exactly this), so a vertex can
satisfy ``|f_i| >= mu_i + 1`` while its *normalized* conflict vector is
still non-feasible (the paper's ``Pi_1 = [1, 1, mu]`` for matmul).
Candidates are therefore re-verified with Theorem 3.1 before being
accepted, exactly as the appendix prescribes.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction

from ..ilp.branch_bound import solve_ilp
from ..ilp.problem import LinearProgram
from ..ilp.vertex_enum import enumerate_vertices
from ..model.algorithm import UniformDependenceAlgorithm
from .conditions import theorem_3_1
from .conflict import adjugate_conflict_matrix
from .mapping import MappingMatrix
from .schedule import LinearSchedule

__all__ = [
    "build_corank1_subproblems",
    "ILPMappingResult",
    "solve_corank1_optimal",
]


def build_corank1_subproblems(
    algorithm: UniformDependenceAlgorithm,
    space: Sequence[Sequence[int]],
    *,
    orthant: str = "auto",
) -> list[tuple[LinearProgram, dict]]:
    """The ``2n`` convex ILPs partitioning formulation (5.1)-(5.2).

    Each subproblem fixes one disjunct ``s * f_i(Pi) >= mu_i + 1``
    (``s in {+1, -1}``) alongside the dependence constraints
    ``Pi d >= 1`` (strict integral form of ``Pi D > 0``).

    Parameters
    ----------
    orthant:
        ``"positive"`` restricts to ``pi_j >= 1`` (valid whenever the
        dependence matrix contains all unit vectors, as in matmul —
        Example 5.1's reduction); ``"split"`` uses the general
        ``pi = p - q`` encoding with ``p, q >= 0``; ``"auto"`` picks
        ``"positive"`` exactly when every unit vector appears as a
        dependence column.

    Returns
    -------
    List of ``(program, info)`` where ``info`` records the disjunct
    (``i``, ``sign``) and the encoding, and ``program.names`` describes
    the variables.
    """
    n = algorithm.n
    mu = algorithm.mu
    d = algorithm.dependence_vectors()
    # Row i of M^T holds the coefficients of f_i: gamma(Pi) = Pi M.
    f_rows = adjugate_conflict_matrix(space, n).transpose()

    if orthant == "auto":
        units = {tuple(1 if r == c else 0 for r in range(n)) for c in range(n)}
        orthant = "positive" if units <= set(d) else "split"
    if orthant not in ("positive", "split"):
        raise ValueError(f"unknown orthant mode {orthant!r}")

    problems: list[tuple[LinearProgram, dict]] = []
    for i in range(n):
        if all(c == 0 for c in f_rows[i]):
            continue  # f_i identically zero: the disjunct is unsatisfiable
        for sign in (1, -1):
            if orthant == "positive":
                c = [float(m) for m in mu]
                a_ub: list[list[float]] = []
                b_ub: list[float] = []
                for dep in d:
                    a_ub.append([-float(x) for x in dep])
                    b_ub.append(-1.0)
                a_ub.append([-sign * float(x) for x in f_rows[i]])
                b_ub.append(-float(mu[i] + 1))
                bounds = [(1.0, None)] * n
                names = [f"pi_{j + 1}" for j in range(n)]
                prog = LinearProgram.build(
                    c, a_ub=a_ub, b_ub=b_ub, bounds=bounds, integer=True, names=names
                )
            else:
                # pi = p - q with p, q >= 0; objective sum mu_j (p_j + q_j)
                # upper-bounds sum mu_j |pi_j| and agrees at any optimum.
                c = [float(m) for m in mu] * 2
                a_ub = []
                b_ub = []
                for dep in d:
                    row = [-float(x) for x in dep] + [float(x) for x in dep]
                    a_ub.append(row)
                    b_ub.append(-1.0)
                frow = [-sign * float(x) for x in f_rows[i]] + [
                    sign * float(x) for x in f_rows[i]
                ]
                a_ub.append(frow)
                b_ub.append(-float(mu[i] + 1))
                bounds = [(0.0, None)] * (2 * n)
                names = [f"p_{j + 1}" for j in range(n)] + [
                    f"q_{j + 1}" for j in range(n)
                ]
                prog = LinearProgram.build(
                    c, a_ub=a_ub, b_ub=b_ub, bounds=bounds, integer=True, names=names
                )
            problems.append(
                (prog, {"disjunct": i, "sign": sign, "encoding": orthant})
            )
    return problems


@dataclass(frozen=True)
class ILPMappingResult:
    """Outcome of the ILP route to Problem 2.2.

    Attributes
    ----------
    schedule:
        The optimal schedule (post-checked conflict-free), or ``None``.
    mapping:
        The corresponding mapping matrix.
    objective:
        The objective value ``f = sum mu_i |pi_i|`` (total time is
        ``objective + 1``).
    candidates_checked:
        Vertices / ILP optima that went through the Theorem 3.1
        post-check.
    subproblems:
        Number of convex subproblems in the partition.
    rejected_by_gcd:
        Candidates whose raw ``f``-vector passed but whose normalized
        conflict vector failed Theorem 2.2 (the appendix's caveat).
    used_search_fallback:
        True when every vertex candidate failed the post-check and the
        optimum was recovered by a bounded Procedure-5.1 search
        (finding F3: at odd ``mu`` the matmul partition has *no*
        surviving integral vertex, and the true optimum is not an
        extreme point of any subproblem).
    """

    schedule: LinearSchedule | None
    mapping: MappingMatrix | None
    objective: int | None
    candidates_checked: int
    subproblems: int
    rejected_by_gcd: int
    used_search_fallback: bool = False

    @property
    def found(self) -> bool:
        return self.schedule is not None

    @property
    def total_time(self) -> int:
        if self.objective is None:
            raise ValueError("no solution found")
        return self.objective + 1


def _decode_pi(x: tuple[int, ...], info: dict, n: int) -> tuple[int, ...]:
    if info["encoding"] == "positive":
        return tuple(x[:n])
    return tuple(x[j] - x[n + j] for j in range(n))


def solve_corank1_optimal(
    algorithm: UniformDependenceAlgorithm,
    space: Sequence[Sequence[int]],
    *,
    orthant: str = "auto",
    solver: str = "vertices",
) -> ILPMappingResult:
    """End-to-end ILP solution of Problem 2.2 for co-rank-1 mappings.

    Collects candidate optima from every convex subproblem (all
    integral vertices with ``solver="vertices"``; the single B&B
    optimum per subproblem with ``solver="branch-bound"``), orders them
    by objective, and returns the first candidate that survives the
    Theorem 3.1 post-check together with the rank and strict
    dependence conditions.

    When *no* candidate survives — which genuinely happens (finding
    F3): for matmul at odd ``mu`` every integral vertex's conflict
    vector normalizes into the box — the optimum is not an extreme
    point of any subproblem and the appendix's technique is
    structurally incomplete.  A bounded Procedure-5.1 search then
    recovers the optimum, flagged via ``used_search_fallback``.
    """
    n = algorithm.n
    mu = algorithm.mu
    subs = build_corank1_subproblems(algorithm, space, orthant=orthant)
    space_rows = tuple(tuple(int(x) for x in row) for row in space)

    candidates: list[tuple[int, tuple[int, ...]]] = []
    seen: set[tuple[int, ...]] = set()
    for prog, info in subs:
        if solver == "vertices":
            for v in enumerate_vertices(prog):
                if any(x.denominator != 1 for x in v):
                    continue
                pi = _decode_pi(tuple(int(x) for x in v), info, n)
                if pi in seen:
                    continue
                seen.add(pi)
                obj = sum(m * abs(p) for m, p in zip(mu, pi))
                candidates.append((obj, pi))
        elif solver == "branch-bound":
            sol = solve_ilp(prog)
            if sol.ok:
                pi = _decode_pi(sol.x_int(), info, n)
                if pi not in seen:
                    seen.add(pi)
                    obj = sum(m * abs(p) for m, p in zip(mu, pi))
                    candidates.append((obj, pi))
        else:
            raise ValueError(f"unknown solver {solver!r}")

    candidates.sort()
    checked = 0
    rejected_gcd = 0
    for obj, pi in candidates:
        checked += 1
        t = MappingMatrix(space=space_rows, schedule=pi)
        if t.rank() != t.k:
            continue
        if not t.respects_dependences(algorithm):
            continue
        verdict = theorem_3_1(t, mu)
        if not verdict.holds:
            rejected_gcd += 1
            continue
        sched = LinearSchedule(pi=pi, index_set=algorithm.index_set)
        return ILPMappingResult(
            schedule=sched,
            mapping=t,
            objective=obj,
            candidates_checked=checked,
            subproblems=len(subs),
            rejected_by_gcd=rejected_gcd,
        )
    # No vertex survived: fall back to the enumerative search, starting
    # at the LP lower bound (the best vertex objective bounds the
    # relaxation, so nothing below it can be conflict-free and valid).
    from .optimize import procedure_5_1

    lower = candidates[0][0] if candidates else None
    search = procedure_5_1(
        algorithm,
        space_rows,
        method="auto",
        initial_bound=lower if lower is not None else sum(mu),
    )
    if search.found:
        return ILPMappingResult(
            schedule=search.schedule,
            mapping=search.mapping,
            objective=search.schedule.f,
            candidates_checked=checked + search.candidates_examined,
            subproblems=len(subs),
            rejected_by_gcd=rejected_gcd,
            used_search_fallback=True,
        )
    return ILPMappingResult(
        schedule=None,
        mapping=None,
        objective=None,
        candidates_checked=checked,
        subproblems=len(subs),
        rejected_by_gcd=rejected_gcd,
    )


def _frac(x: float) -> Fraction:  # pragma: no cover - helper for reports
    return Fraction(x).limit_denominator(10**9)
