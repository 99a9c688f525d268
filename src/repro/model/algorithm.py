"""Uniform dependence algorithms ``(J, D)`` (Definition 2.1).

A uniform dependence algorithm is characterized, for mapping purposes,
entirely by its index set ``J`` and dependence matrix ``D`` whose
columns are the constant dependence vectors ``d_i``: the computation at
index point ``j`` consumes the values produced at ``j - d_i``.  The
optional ``compute`` attribute attaches executable semantics (used by
the systolic functional simulator); the mapping theory never needs it.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ..intlin.intmat import IntMat, IntVec, as_intmat
from .index_set import ConstantBoundedIndexSet

__all__ = ["UniformDependenceAlgorithm", "DependenceError"]


class DependenceError(ValueError):
    """Raised for structurally invalid dependence matrices."""


@dataclass(frozen=True)
class UniformDependenceAlgorithm:
    """An algorithm ``(J, D)`` in the sense of Definition 2.1.

    Parameters
    ----------
    index_set:
        The constant-bounded iteration space ``J`` (Assumption 2.1).
    dependence_matrix:
        Integer matrix ``D`` of shape ``(n, m)``; column ``i`` is the
        dependence vector ``d_i``.  ``m = 0`` (no dependencies) is
        allowed — every schedule then trivially satisfies ``Pi D > 0``.
    name:
        Human-readable label used in reports and visualizations.
    compute:
        Optional executable semantics: ``compute(j, operands) -> value``
        where ``operands[i]`` is the value produced at ``j - d_i`` (or
        ``None`` when ``j - d_i`` falls outside ``J`` and the operand is
        an external input).  See :mod:`repro.systolic.semantics`.
    inputs:
        Optional callable providing boundary values:
        ``inputs(j, i) -> value`` for an operand of ``d_i`` read from
        outside the index set.
    """

    index_set: ConstantBoundedIndexSet
    dependence_matrix: IntMat
    name: str = "algorithm"
    compute: Callable[..., Any] | None = field(default=None, compare=False)
    inputs: Callable[..., Any] | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        d = as_intmat(self.dependence_matrix if self._has_deps() else ())
        n = self.index_set.dimension
        if d.nrows:
            if d.nrows != n:
                raise DependenceError(
                    f"dependence matrix has {d.nrows} rows, index set has dimension {n}"
                )
            for col, column in enumerate(d.columns()):
                if not any(column):
                    raise DependenceError(f"dependence vector {col} is the zero vector")
        object.__setattr__(self, "dependence_matrix", d)

    def _has_deps(self) -> bool:
        dm = self.dependence_matrix
        if dm is None or len(dm) == 0:
            return False
        first = dm[0]
        try:
            return len(first) > 0
        except TypeError:
            return True

    # -- structural accessors --------------------------------------------

    @property
    def n(self) -> int:
        """Algorithm dimension (depth of the loop nest)."""
        return self.index_set.dimension

    @property
    def m(self) -> int:
        """Number of dependence vectors."""
        return self.dependence_matrix.ncols if self.dependence_matrix.nrows else 0

    @property
    def mu(self) -> tuple[int, ...]:
        """Problem-size variables ``mu_i`` of the index set."""
        return self.index_set.mu

    def dependence_vectors(self) -> list[IntVec]:
        """The columns ``d_1, ..., d_m`` of ``D`` as vectors."""
        if not self.dependence_matrix.nrows:
            return []
        return self.dependence_matrix.columns()

    def dependence_array(self) -> np.ndarray:
        """``D`` as an ``(n, m)`` int64 array (empty ``(n, 0)`` when m=0)."""
        if self.m == 0:
            return np.zeros((self.n, 0), dtype=np.int64)
        return self.dependence_matrix.to_int64()

    # -- dependence-graph queries ----------------------------------------

    def predecessors(self, j: Sequence[int]) -> Iterator[tuple[int, tuple[int, ...]]]:
        """Yield ``(i, j - d_i)`` for the in-set predecessors of ``j``."""
        jt = tuple(int(x) for x in j)
        for i, d in enumerate(self.dependence_vectors()):
            pred = tuple(a - b for a, b in zip(jt, d))
            if pred in self.index_set:
                yield i, pred

    def is_acyclic_under(self, pi: Sequence[int]) -> bool:
        """True when ``Pi d_i > 0`` for every dependence (Def 2.2 cond 1)."""
        p = [int(x) for x in pi]
        return all(
            sum(a * b for a, b in zip(p, d)) > 0 for d in self.dependence_vectors()
        )

    def validate(self, limits=None) -> None:
        """Re-run structural validation (no-op if construction succeeded).

        With ``limits`` (a :class:`repro.model.validate.SpecLimits`),
        additionally enforce the untrusted-input size caps — the check
        the search entry points apply to specs from outside callers.
        """
        self.__post_init__()
        if limits is not None:
            from .validate import validate_algorithm

            validate_algorithm(self, limits)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"UniformDependenceAlgorithm(name={self.name!r}, n={self.n}, "
            f"m={self.m}, mu={self.mu})"
        )
