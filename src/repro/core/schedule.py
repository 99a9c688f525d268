"""Linear schedules and execution-time accounting (Section 2).

The time mapping is a row vector ``Pi``; computation ``j`` executes at
``Pi j``.  For constant-bounded index sets (Assumption 2.1) the total
execution time collapses to the closed form of Equation 2.7,

    ``t = 1 + sum_i |pi_i| * mu_i``,

which is monotonically increasing in each ``|pi_i|`` (Theorem 2.1) —
the fact both Procedure 5.1 and the ILP objective lean on.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from ..intlin.intmat import IntVec, as_intvec
from ..model.algorithm import UniformDependenceAlgorithm
from ..model.index_set import ConstantBoundedIndexSet

__all__ = [
    "LinearSchedule",
    "total_execution_time",
    "objective_f",
    "validate_schedule",
]


def objective_f(pi: Sequence[int], mu: Sequence[int]) -> int:
    """Problem 2.2's objective ``f = sum_i |pi_i| mu_i`` (Eq 2.6/2.7).

    Differs from the total execution time by exactly one cycle.
    """
    p = [int(x) for x in pi]
    m = [int(x) for x in mu]
    if len(p) != len(m):
        raise ValueError(f"pi has {len(p)} entries, mu has {len(m)}")
    return sum(abs(pi_i) * mu_i for pi_i, mu_i in zip(p, m))


def total_execution_time(pi: Sequence[int], mu: Sequence[int]) -> int:
    """Equation 2.7: ``t = 1 + sum_i |pi_i| mu_i``."""
    return 1 + objective_f(pi, mu)


def validate_schedule(
    pi: Sequence[int], algorithm: UniformDependenceAlgorithm
) -> list[int]:
    """Indices of dependence vectors violated by ``Pi`` (``Pi d_i <= 0``).

    An empty list means condition 1 of Definition 2.2 holds.
    """
    p = [int(x) for x in pi]
    bad = []
    for i, d in enumerate(algorithm.dependence_vectors()):
        if sum(a * b for a, b in zip(p, d)) <= 0:
            bad.append(i)
    return bad


@dataclass(frozen=True, order=False)
class LinearSchedule:
    """A linear schedule vector ``Pi`` bound to an index set.

    Provides execution-time accounting and dependence validation; the
    natural ordering compares total execution time (ties broken
    lexicographically on the vector for determinism in Procedure 5.1's
    sort).
    """

    pi: IntVec
    index_set: ConstantBoundedIndexSet

    def __post_init__(self) -> None:
        pi = as_intvec(self.pi)
        if len(pi) != self.index_set.dimension:
            raise ValueError(
                f"schedule has {len(pi)} entries, index set dimension is "
                f"{self.index_set.dimension}"
            )
        object.__setattr__(self, "pi", pi)

    @property
    def f(self) -> int:
        """Objective value ``sum |pi_i| mu_i``."""
        return objective_f(self.pi, self.index_set.mu)

    @property
    def total_time(self) -> int:
        """Total execution time ``t = f + 1`` (Equation 2.7)."""
        return self.f + 1

    def respects(self, algorithm: UniformDependenceAlgorithm) -> bool:
        """``Pi D > 0`` for the given algorithm."""
        return not validate_schedule(self.pi, algorithm)

    def time_of(self, j: Sequence[int]) -> int:
        """Execution time ``Pi j`` of index point ``j``."""
        return sum(p * int(x) for p, x in zip(self.pi, j))

    def sort_key(self) -> tuple[int, tuple[int, ...]]:
        """Stable ordering key: (execution time, vector)."""
        return (self.total_time, self.pi)

    def __lt__(self, other: "LinearSchedule") -> bool:
        return self.sort_key() < other.sort_key()
