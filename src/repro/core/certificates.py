"""Machine-checkable optimality certificates for Problem 2.2.

Procedure 5.1's optimality argument is "we enumerated in non-decreasing
execution-time order and this is the first survivor".  A downstream
user adopting a mapping deserves more than trust in the enumerator:
this module materializes the argument as a *certificate* — for every
schedule strictly faster than the claimed optimum, a concrete
refutation:

* ``dependence``  — a dependence column ``d_i`` with ``Pi d_i <= 0``;
* ``rank``        — ``rank([S; Pi]) < k``;
* ``conflict``    — a non-feasible conflict vector together with the
  colliding index-point pair it produces (Theorem 2.2's constructive
  witness).

``verify_certificate`` re-checks every refutation from first
principles (no shared code with the generation path beyond the matrix
type), so a certificate can be audited independently of the solver
that produced it.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from ..model.algorithm import UniformDependenceAlgorithm
from .conflict import find_conflict_witness
from .mapping import MappingMatrix
from .optimize import enumerate_schedule_vectors

__all__ = [
    "Refutation",
    "OptimalityCertificate",
    "certify_optimality",
    "verify_certificate",
]


@dataclass(frozen=True)
class Refutation:
    """Why one candidate schedule cannot beat the optimum.

    ``kind`` is ``"dependence"``, ``"rank"`` or ``"conflict"``;
    ``witness`` carries the kind-specific evidence (the violated
    dependence column, the deficient rank, or the colliding index-point
    pair).
    """

    pi: tuple[int, ...]
    kind: str
    witness: tuple


@dataclass(frozen=True)
class OptimalityCertificate:
    """Claimed optimum plus a refutation for every faster candidate.

    Attributes
    ----------
    algorithm_mu, space:
        The problem instance the certificate speaks about.
    optimal_pi, optimal_time:
        The claimed optimum.
    refutations:
        One entry per integral ``Pi`` with ``f(Pi) < f(Pi*)``
        (up to the global ``Pi ~ -Pi`` symmetry being broken by both
        being enumerated).
    """

    algorithm_mu: tuple[int, ...]
    space: tuple[tuple[int, ...], ...]
    optimal_pi: tuple[int, ...]
    optimal_time: int
    refutations: tuple[Refutation, ...]


def certify_optimality(
    algorithm: UniformDependenceAlgorithm,
    space: Sequence[Sequence[int]],
    optimal_pi: Sequence[int],
) -> OptimalityCertificate:
    """Build the refutation list for a claimed optimal schedule.

    Raises :class:`ValueError` if some faster candidate cannot be
    refuted — i.e. the claimed optimum is *not* optimal (making this
    function double as an independent optimality checker).
    """
    mu = algorithm.mu
    space_rows = tuple(tuple(int(x) for x in row) for row in space)
    k = len(space_rows) + 1
    pi_star = tuple(int(x) for x in optimal_pi)
    f_star = sum(abs(p) * m for p, m in zip(pi_star, mu))

    refutations: list[Refutation] = []
    for pi in enumerate_schedule_vectors(mu, f_star - 1):
        # dependence condition
        violated = None
        for i, d in enumerate(algorithm.dependence_vectors()):
            if sum(p * x for p, x in zip(pi, d)) <= 0:
                violated = (i, d)
                break
        if violated is not None:
            refutations.append(
                Refutation(pi=pi, kind="dependence", witness=violated)
            )
            continue
        t = MappingMatrix(space=space_rows, schedule=pi)
        if t.rank() != k:
            refutations.append(
                Refutation(pi=pi, kind="rank", witness=(t.rank(), k))
            )
            continue
        witness = find_conflict_witness(t, algorithm.index_set)
        if witness is not None:
            refutations.append(
                Refutation(pi=pi, kind="conflict", witness=witness)
            )
            continue
        raise ValueError(
            f"claimed optimum is not optimal: Pi = {pi} is valid, "
            f"conflict-free, and faster (f = "
            f"{sum(abs(p) * m for p, m in zip(pi, mu))} < {f_star})"
        )

    return OptimalityCertificate(
        algorithm_mu=mu,
        space=space_rows,
        optimal_pi=pi_star,
        optimal_time=f_star + 1,
        refutations=tuple(refutations),
    )


def verify_certificate(
    algorithm: UniformDependenceAlgorithm,
    certificate: OptimalityCertificate,
) -> bool:
    """Audit a certificate from first principles.

    Checks (1) the instance matches, (2) the claimed optimum itself is
    valid and conflict-free, (3) every refutation's evidence really
    refutes its candidate, and (4) the refutations cover *all* faster
    candidates.  Returns ``True`` only if everything holds.
    """
    mu = algorithm.mu
    if certificate.algorithm_mu != mu:
        return False
    space_rows = certificate.space
    k = len(space_rows) + 1
    pi_star = certificate.optimal_pi
    f_star = sum(abs(p) * m for p, m in zip(pi_star, mu))
    if certificate.optimal_time != f_star + 1:
        return False

    # (2) the optimum itself.
    t_star = MappingMatrix(space=space_rows, schedule=pi_star)
    if not algorithm.is_acyclic_under(pi_star):
        return False
    if t_star.rank() != k:
        return False
    from .conflict import is_conflict_free_kernel_box

    if not is_conflict_free_kernel_box(t_star, mu):
        return False

    # (3) each refutation refutes.
    by_pi = {}
    for ref in certificate.refutations:
        if ref.pi in by_pi:
            return False  # duplicate entries are malformed
        by_pi[ref.pi] = ref
        if ref.kind == "dependence":
            i, d = ref.witness
            deps = algorithm.dependence_vectors()
            if i >= len(deps) or tuple(deps[i]) != tuple(d):
                return False
            if sum(p * x for p, x in zip(ref.pi, d)) > 0:
                return False
        elif ref.kind == "rank":
            t = MappingMatrix(space=space_rows, schedule=ref.pi)
            if t.rank() == k:
                return False
        elif ref.kind == "conflict":
            j1, j2 = ref.witness
            t = MappingMatrix(space=space_rows, schedule=ref.pi)
            if j1 == j2:
                return False
            if j1 not in algorithm.index_set or j2 not in algorithm.index_set:
                return False
            if t.tau(j1) != t.tau(j2):
                return False
        else:
            return False

    # (4) coverage of every faster candidate.
    for pi in enumerate_schedule_vectors(mu, f_star - 1):
        if pi not in by_pi:
            return False
    return True
