"""The paper's conflict-freedom conditions, implemented as stated.

Each theorem of Sections 3-4 becomes a checker returning a
:class:`ConditionVerdict` carrying the boolean outcome *and* the
witnesses (which row ``i`` satisfied which clause), so the benchmark
harness can print the same justifications the paper's examples give.

Checker inventory (paper numbering):

========  ==========================================  ==================
Theorem   Statement                                   Function
========  ==========================================  ==================
3.1       co-rank 1: unique ``gamma`` feasible        :func:`theorem_3_1`
4.3       necessary: top-``k`` of each ``V`` column   :func:`theorem_4_3`
4.4       necessary: ``u_{k+1..n}`` feasible          :func:`theorem_4_4`
4.5       sufficient: gcd rows + nonsingular block    :func:`theorem_4_5`
4.6       sufficient, ``k = n-2``                     :func:`theorem_4_6`
4.7       necessary & sufficient, ``k = n-2``         :func:`theorem_4_7`
4.8       necessary & sufficient, ``k = n-3``         :func:`theorem_4_8`
========  ==========================================  ==================

A reproduction note (see DESIGN.md §5): the "necessary" directions of
Theorems 4.7/4.8 rest on a sign argument that rare cancellation
patterns can escape, so :func:`theorem_4_7`/:func:`theorem_4_8` can
return ``False`` for a mapping that the exact decider
(:func:`repro.core.conflict.is_conflict_free_kernel_box`) proves
conflict-free.  The *sufficient* direction ("checker says free implies
exactly free") always holds and is property-tested.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Any

from ..intlin.gcdutil import gcd_list
from ..intlin.hermite import hnf_cached
from ..intlin.intmat import IntMat
from .conflict import conflict_vector_corank1, is_feasible_conflict_vector
from .mapping import MappingMatrix

__all__ = [
    "ConditionVerdict",
    "theorem_3_1",
    "theorem_4_3",
    "theorem_4_4",
    "theorem_4_5",
    "theorem_4_6",
    "theorem_4_7",
    "theorem_4_8",
    "sign_pattern_condition",
    "subset_sign_pattern_condition",
    "check_conflict_free",
]


@dataclass(frozen=True)
class ConditionVerdict:
    """Outcome of one theorem check.

    Attributes
    ----------
    holds:
        Whether the theorem's condition is satisfied.
    theorem:
        Paper theorem label (e.g. ``"4.7"``).
    kind:
        ``"necessary"``, ``"sufficient"`` or ``"iff"`` — how the
        condition relates to conflict-freedom.
    witnesses:
        Clause-by-clause evidence (row indices, vectors, determinants).
        Excluded from equality and hashing: a verdict is a value object
        identified by ``(holds, theorem, kind)``, so it can key caches
        and sets; the witnesses are explanatory payload.
    """

    holds: bool
    theorem: str
    kind: str
    witnesses: dict[str, Any] = field(default_factory=dict, compare=False)

    def __bool__(self) -> bool:
        return self.holds


def _hermite_u(t: MappingMatrix) -> tuple[IntMat, IntMat, int]:
    res = hnf_cached(t.matrix)
    return res.u, res.v, res.rank


def theorem_3_1(t: MappingMatrix, mu: Sequence[int]) -> ConditionVerdict:
    """Necessary & sufficient condition 1 (co-rank 1).

    The mapping has a *unique* conflict vector (up to sign); ``T`` is
    conflict-free iff that vector is feasible (Theorem 2.2).
    """
    if t.corank != 1:
        raise ValueError(f"Theorem 3.1 applies to co-rank 1, got {t.corank}")
    gamma = conflict_vector_corank1(t)
    feasible = is_feasible_conflict_vector(gamma, mu)
    return ConditionVerdict(
        holds=feasible,
        theorem="3.1",
        kind="iff",
        witnesses={"gamma": tuple(gamma)},
    )


def theorem_4_3(t: MappingMatrix, mu: Sequence[int] | None = None) -> ConditionVerdict:
    """Necessary condition 2: every column of ``V`` has a non-zero entry
    among its first ``k`` rows.

    Violation exhibits a conflict vector with a single non-zero entry
    (a unit direction), which can never be feasible since ``mu_i >= 1``.
    """
    _u, v, k = _hermite_u(t)
    n = t.n
    bad_columns = [
        j for j in range(n) if all(v[i][j] == 0 for i in range(k))
    ]
    return ConditionVerdict(
        holds=not bad_columns,
        theorem="4.3",
        kind="necessary",
        witnesses={"violating_columns": tuple(bad_columns)},
    )


def theorem_4_4(t: MappingMatrix, mu: Sequence[int]) -> ConditionVerdict:
    """Necessary condition 3: the generators ``u_{k+1..n}`` are feasible."""
    u, _v, k = _hermite_u(t)
    n = t.n
    columns = [u.column(j) for j in range(k, n)]
    infeasible = [
        j for j, col in enumerate(columns)
        if not is_feasible_conflict_vector(col, mu)
    ]
    return ConditionVerdict(
        holds=not infeasible,
        theorem="4.4",
        kind="necessary",
        witnesses={
            "generators": tuple(columns),
            "infeasible_generator_indices": tuple(infeasible),
        },
    )


def theorem_4_5(t: MappingMatrix, mu: Sequence[int]) -> ConditionVerdict:
    """Sufficient condition 4: row-gcd + nonsingular sub-block.

    Exists rows ``i_1 < ... < i_{n-k}`` such that (1) for each, the gcd
    of ``(u_{i, k+1}, ..., u_{i, n})`` is at least ``mu_i + 1``, and (2)
    the ``(n-k) x (n-k)`` sub-block of ``U``'s last columns on those
    rows is nonsingular.  Then every conflict vector has ``|gamma_i|``
    at least the gcd of some such row, hence feasible.
    """
    u, _v, k = _hermite_u(t)
    n = t.n
    mu = [int(x) for x in mu]
    c = n - k
    eligible = [
        i for i in range(n)
        if gcd_list(u[i][k:]) >= mu[i] + 1
    ]
    for combo in itertools.combinations(eligible, c):
        block = u.submatrix(combo, range(k, n))
        if block.det() != 0:
            return ConditionVerdict(
                holds=True,
                theorem="4.5",
                kind="sufficient",
                witnesses={"rows": combo, "gcds": tuple(gcd_list(u[i][k:]) for i in combo)},
            )
    return ConditionVerdict(
        holds=False,
        theorem="4.5",
        kind="sufficient",
        witnesses={"eligible_rows": tuple(eligible)},
    )


def theorem_4_6(t: MappingMatrix, mu: Sequence[int]) -> ConditionVerdict:
    """Sufficient condition 5 for ``k = n-2``.

    (1) some row ``i`` has ``gcd(u_{i,n-1}, u_{i,n}) >= mu_i + 1``; (2)
    for the (up to sign unique) coprime ``beta`` annihilating that row,
    some other row ``j`` has ``|beta . (u_{j,n-1}, u_{j,n})| > mu_j``.
    """
    if t.corank != 2:
        raise ValueError(f"Theorem 4.6 applies to co-rank 2, got {t.corank}")
    u, _v, k = _hermite_u(t)
    n = t.n
    mu = [int(x) for x in mu]
    for i in range(n):
        a, b = u[i][k], u[i][k + 1]
        g = gcd_list([a, b])
        if g < mu[i] + 1:
            continue
        # beta with beta1*a + beta2*b == 0, coprime: (b, -a) / gcd.
        beta1, beta2 = b // g, -a // g
        cond2 = None
        for j in range(n):
            if j == i:
                continue
            val = beta1 * u[j][k] + beta2 * u[j][k + 1]
            if abs(val) > mu[j]:
                cond2 = j
                break
        if cond2 is not None:
            return ConditionVerdict(
                holds=True,
                theorem="4.6",
                kind="sufficient",
                witnesses={"i": i, "gcd": g, "beta": (beta1, beta2), "j": cond2},
            )
    return ConditionVerdict(holds=False, theorem="4.6", kind="sufficient")


def sign_pattern_condition(
    u: Sequence[Sequence[int]], k: int, mu: Sequence[int]
) -> ConditionVerdict:
    """The sign-pattern clauses shared by Theorems 4.7 and 4.8.

    For every sign vector ``sigma in {+1,-1}^{n-k}`` (up to global
    negation) there must be a row ``i`` whose last ``n-k`` entries are
    sign-compatible with ``sigma`` (zero counts as either sign) and
    whose sigma-weighted sum exceeds ``mu_i`` in magnitude.  For
    co-rank 2 these are exactly conditions (1)-(2) of Theorem 4.7; for
    co-rank 3 conditions (1)-(4) of Theorem 4.8.
    """
    n = len(u)
    c = n - k
    mu = [int(x) for x in mu]
    pattern_rows: dict[tuple[int, ...], int] = {}
    for sigma in itertools.product((1, -1), repeat=c):
        if sigma[0] == -1:
            continue  # global negation symmetry
        found = None
        for i in range(n):
            entries = u[i][k:]
            products = [s * e for s, e in zip(sigma, entries)]
            # Compatible when the products beta_l * u_{i,l} would all
            # share one sign (zero is sign-free), so magnitudes add.
            if not (all(p >= 0 for p in products) or all(p <= 0 for p in products)):
                continue
            total = sum(products)
            if abs(total) > mu[i]:
                found = i
                break
        if found is None:
            return ConditionVerdict(
                holds=False,
                theorem="sign-pattern",
                kind="sufficient",
                witnesses={"failing_pattern": sigma, "satisfied": dict(pattern_rows)},
            )
        pattern_rows[sigma] = found
    return ConditionVerdict(
        holds=True,
        theorem="sign-pattern",
        kind="sufficient",
        witnesses={"pattern_rows": pattern_rows},
    )


def subset_sign_pattern_condition(
    u: Sequence[Sequence[int]], k: int, mu: Sequence[int]
) -> ConditionVerdict:
    """Strengthened sufficient condition: sign patterns over *every* subset.

    The stated Theorem 4.8 has a gap its proof sketch misses: a
    coefficient vector ``beta`` with a zero entry combines only a
    *subset* of the generator columns, and the three-column sign
    conditions say nothing about two-column combinations (this
    reproduction exhibits concrete counterexamples — see
    EXPERIMENTS.md, finding F2).  Closing the gap is exactly Theorem
    4.7's own structure applied to every non-empty subset ``A`` of the
    last ``n-k`` columns: for every sign assignment on ``A`` there must
    be a row, sign-compatible on ``A``, whose ``A``-restricted weighted
    sum exceeds ``mu_i``.  Then for arbitrary ``beta`` with support
    ``A``, magnitudes add on that row and the conflict vector is
    feasible — a genuinely sufficient condition for any co-rank, which
    coincides with Theorem 4.7 at co-rank 2 (where subsets of size 1
    are its condition 3).
    """
    n = len(u)
    c = n - k
    mu = [int(x) for x in mu]
    failing: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
    for size in range(1, c + 1):
        for subset in itertools.combinations(range(c), size):
            for sigma in itertools.product((1, -1), repeat=size):
                if sigma[0] == -1:
                    continue  # global negation symmetry
                found = False
                for i in range(n):
                    entries = [u[i][k + l] for l in subset]
                    products = [s * e for s, e in zip(sigma, entries)]
                    if not (
                        all(p >= 0 for p in products)
                        or all(p <= 0 for p in products)
                    ):
                        continue
                    if abs(sum(products)) > mu[i]:
                        found = True
                        break
                if not found:
                    failing.append((subset, sigma))
    return ConditionVerdict(
        holds=not failing,
        theorem="subset-sign-pattern",
        kind="sufficient",
        witnesses={"failing": tuple(failing)},
    )


def theorem_4_7(t: MappingMatrix, mu: Sequence[int]) -> ConditionVerdict:
    """Necessary & sufficient condition 6 for ``k = n-2`` (as stated).

    (1) a same-sign row with ``|u_{i,n-1} + u_{i,n}| > mu_i``; (2) an
    opposite-sign row with ``|u_{j,n-1} - u_{j,n}| > mu_j``; (3) both
    generator columns feasible.  See the module docstring for the
    exactness caveat on the necessity direction.
    """
    if t.corank != 2:
        raise ValueError(f"Theorem 4.7 applies to co-rank 2, got {t.corank}")
    u, _v, k = _hermite_u(t)
    patterns = sign_pattern_condition(u, k, mu)
    columns = theorem_4_4(t, mu)
    holds = patterns.holds and columns.holds
    return ConditionVerdict(
        holds=holds,
        theorem="4.7",
        kind="iff",
        witnesses={
            "sign_patterns": patterns.witnesses,
            "generators": columns.witnesses,
            "condition_1_2": patterns.holds,
            "condition_3": columns.holds,
        },
    )


def theorem_4_8(t: MappingMatrix, mu: Sequence[int]) -> ConditionVerdict:
    """Necessary & sufficient condition 7 for ``k = n-3`` (as stated).

    Four sign-pattern clauses over the last three columns of ``U`` plus
    feasibility of each generator column.
    """
    if t.corank != 3:
        raise ValueError(f"Theorem 4.8 applies to co-rank 3, got {t.corank}")
    u, _v, k = _hermite_u(t)
    patterns = sign_pattern_condition(u, k, mu)
    columns = theorem_4_4(t, mu)
    holds = patterns.holds and columns.holds
    return ConditionVerdict(
        holds=holds,
        theorem="4.8",
        kind="iff",
        witnesses={
            "sign_patterns": patterns.witnesses,
            "generators": columns.witnesses,
        },
    )


def check_conflict_free(
    t: MappingMatrix,
    mu: Sequence[int],
    *,
    method: str = "auto",
) -> ConditionVerdict:
    """Dispatch to the strongest checker for the mapping's co-rank.

    Three modes:

    * ``method="paper"`` — the paper's Step 5(3) dispatch verbatim:
      Theorem 3.1 (co-rank 1), Theorem 4.7 (co-rank 2), Theorem 4.8
      (co-rank 3), Theorem 4.5 otherwise.  Faithful but, for co-rank
      >= 3, only *sufficient as corrected* (see finding F2): a positive
      Theorem 4.8 verdict can in rare cancellation cases be wrong.
    * ``method="exact"`` — the kernel-box oracle; exact at any co-rank.
    * ``method="auto"`` (default) — **exact**, with the sufficient
      conditions as a fast path: Theorem 3.1 decides co-rank 1 outright
      (it is genuinely iff); for higher co-ranks the strengthened
      subset-sign-pattern condition answers "free" without touching the
      lattice, and only its failures fall back to the exact oracle.
    """
    from .conflict import is_conflict_free_kernel_box

    corank = t.corank
    if corank == 0:
        return ConditionVerdict(
            holds=t.has_full_rank(),
            theorem="square",
            kind="iff",
            witnesses={"rank": t.rank()},
        )
    if method == "exact":
        return ConditionVerdict(
            holds=is_conflict_free_kernel_box(t, mu),
            theorem="kernel-box",
            kind="iff",
        )
    if method not in ("paper", "auto"):
        raise ValueError(f"unknown method {method!r}")
    if corank == 1:
        return theorem_3_1(t, mu)
    if method == "paper":
        if corank == 2:
            return theorem_4_7(t, mu)
        if corank == 3:
            return theorem_4_8(t, mu)
        return theorem_4_5(t, mu)
    u, _v, k = _hermite_u(t)
    fast = subset_sign_pattern_condition(u, k, mu)
    if fast.holds:
        return fast
    return ConditionVerdict(
        holds=is_conflict_free_kernel_box(t, mu),
        theorem="kernel-box",
        kind="iff",
        witnesses={"fast_path": fast.witnesses},
    )
