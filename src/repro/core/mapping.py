"""Mapping matrices ``T = [S; Pi]`` (Definition 2.2).

A linear algorithm transformation maps an ``n``-dimensional uniform
dependence algorithm into a ``(k-1)``-dimensional processor array via
``tau(j) = T j`` where the first ``k-1`` rows (the space mapping ``S``)
give the processor coordinates and the last row (the linear schedule
``Pi``) gives the execution time.  This module holds the matrix object
and the structural conditions 1 and 4 of Definition 2.2; conflict
analysis (condition 3) lives in :mod:`repro.core.conflict` and the
interconnection condition 2 in :mod:`repro.systolic.interconnect`.

A :class:`MappingMatrix` is a hashable value object; its full matrix is
exposed as an immutable :class:`~repro.intlin.IntMat` (:attr:`matrix`,
built lazily and cached), which is what the conflict machinery and the
memoized normal-form kernels consume directly — no per-call list
round-trips.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import Any

from ..intlin.intmat import IntMat, IntVec, as_intmat, as_intvec
from ..model.algorithm import UniformDependenceAlgorithm

__all__ = ["MappingMatrix", "MappingError"]


class MappingError(ValueError):
    """Raised for structurally invalid mapping matrices."""


@dataclass(frozen=True)
class MappingMatrix:
    """``T = [S; Pi] in Z^{k x n}`` mapping into a ``(k-1)``-D array.

    Parameters
    ----------
    space:
        The space mapping ``S`` as a ``(k-1, n)`` matrix (possibly with
        zero rows for ``k = 1``, i.e. a "0-dimensional array" — a single
        processor — which the paper permits formally).
    schedule:
        The linear schedule vector ``Pi`` (length ``n``).

    Examples
    --------
    The paper's Example 5.1 mapping of matmul onto a linear array:

    >>> t = MappingMatrix(space=[[1, 1, -1]], schedule=[1, 4, 1])
    >>> t.k, t.n, t.corank
    (2, 3, 1)
    >>> t.tau((2, 3, 1))
    (4, 15)
    """

    space: tuple[IntVec, ...]
    schedule: IntVec

    def __post_init__(self) -> None:
        sched = as_intvec(self.schedule)
        raw_space = self.space
        if raw_space is None:
            raw_space = ()
        space_rows = tuple(as_intvec(row) for row in raw_space)
        n = len(sched)
        if n == 0:
            raise MappingError("schedule vector must be non-empty")
        for row in space_rows:
            if len(row) != n:
                raise MappingError(
                    f"space row has {len(row)} entries, schedule has {n}"
                )
        object.__setattr__(self, "space", space_rows)
        object.__setattr__(self, "schedule", sched)

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_rows(cls, rows: Any) -> "MappingMatrix":
        """Build from a full ``k x n`` matrix (last row is the schedule)."""
        m = as_intmat(rows)
        if not m.nrows:
            raise MappingError("mapping matrix must have at least one row")
        return cls(space=tuple(m[:-1]), schedule=m[-1])

    def with_schedule(self, pi: Sequence[int]) -> "MappingMatrix":
        """The same space mapping with a different schedule vector."""
        return MappingMatrix(space=self.space, schedule=as_intvec(pi))

    # -- shape -------------------------------------------------------------

    @property
    def n(self) -> int:
        """Algorithm dimension (number of columns)."""
        return len(self.schedule)

    @property
    def k(self) -> int:
        """Number of rows; the target array is ``(k-1)``-dimensional."""
        return len(self.space) + 1

    @property
    def array_dimension(self) -> int:
        """Dimension of the target processor array, ``k - 1``."""
        return len(self.space)

    @property
    def corank(self) -> int:
        """``n - k``: the dimension of the kernel when ``T`` has full rank.

        Co-rank 0 means a square (classical ``n -> n-1``-dimensional)
        mapping with no conflict vectors at all; the paper's subject is
        co-rank ``>= 1``.
        """
        return self.n - self.k

    @property
    def matrix(self) -> IntMat:
        """``T`` as an immutable :class:`IntMat` (lazily built, cached)."""
        cached = self.__dict__.get("_matrix")
        if cached is None:
            cached = IntMat(self.space + (self.schedule,))
            object.__setattr__(self, "_matrix", cached)
        return cached

    @property
    def space_matrix(self) -> IntMat:
        """``S`` alone as an :class:`IntMat` (lazily built, cached)."""
        cached = self.__dict__.get("_space_matrix")
        if cached is None:
            cached = IntMat(self.space)
            object.__setattr__(self, "_space_matrix", cached)
        return cached

    def rows(self) -> list[list[int]]:
        """``T`` as a list of row lists (space rows then the schedule)."""
        return self.matrix.rows()

    # -- Definition 2.2 conditions ------------------------------------------

    def rank(self) -> int:
        """Exact integer rank of ``T``."""
        return self.matrix.rank()

    def has_full_rank(self) -> bool:
        """Condition 4 of Definition 2.2: ``rank(T) == k``."""
        return self.rank() == self.k

    def respects_dependences(self, algorithm: UniformDependenceAlgorithm) -> bool:
        """Condition 1 of Definition 2.2: ``Pi D > 0`` componentwise."""
        return algorithm.is_acyclic_under(self.schedule)

    # -- evaluation ----------------------------------------------------------

    def tau(self, j: Sequence[int]) -> IntVec:
        """``tau(j) = T j``: processor coordinates followed by time."""
        return self.matrix.matvec(j)

    def processor(self, j: Sequence[int]) -> IntVec:
        """Processor coordinates ``S j`` (empty tuple for a single PE)."""
        if not self.space:
            return IntVec()
        return self.space_matrix.matvec(j)

    def time(self, j: Sequence[int]) -> int:
        """Execution time ``Pi j``."""
        return sum(p * int(x) for p, x in zip(self.schedule, j))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"MappingMatrix(space={self.space}, schedule={self.schedule})"
