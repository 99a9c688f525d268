"""Baseline schedules from the prior work the paper compares against.

The paper's two quantitative claims (Examples 5.1 and 5.2) are
improvements over published schedules:

* **[23] (Lee & Kedem)** mapped 3-D matrix multiplication onto a linear
  array with the same space mapping ``S = [1, 1, -1]`` but schedule
  ``Pi' = [2, 1, mu]`` — total time ``t' = mu(mu+3) + 1`` and four
  buffers, versus the paper's ``t = mu(mu+2) + 1`` and three buffers.
* **[22] (Lee & Kedem's n->k procedure)** found
  ``Pi' = [2 mu + 1, 1, 1]`` for the reindexed transitive closure —
  total time ``t' = mu(2 mu + 3) + 1`` versus the paper's
  ``t = mu(mu+3) + 1``.

The original papers are not available to this reproduction; their
schedules, as quoted by Shang & Fortes, are implemented here as
explicit baselines so every benchmark can regenerate the comparison
rows (see DESIGN.md §4, substitution note).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..model.algorithm import UniformDependenceAlgorithm
from ..model.library import matrix_multiplication, transitive_closure
from .mapping import MappingMatrix
from .schedule import LinearSchedule

__all__ = [
    "BaselineMapping",
    "matmul_baseline_ref23",
    "matmul_optimal_paper",
    "transitive_closure_baseline_ref22",
    "transitive_closure_optimal_paper",
]


@dataclass(frozen=True)
class BaselineMapping:
    """A named (algorithm, mapping) pair with its published time formula.

    ``predicted_total_time`` evaluates the closed-form expression the
    source publication reports, so benchmarks can assert that the
    simulated/derived time matches the formula exactly.
    """

    label: str
    source: str
    algorithm: UniformDependenceAlgorithm
    mapping: MappingMatrix

    def schedule(self) -> LinearSchedule:
        return LinearSchedule(
            pi=self.mapping.schedule, index_set=self.algorithm.index_set
        )

    @property
    def total_time(self) -> int:
        return self.schedule().total_time


def matmul_baseline_ref23(mu: int) -> BaselineMapping:
    """Matmul with [23]'s schedule ``Pi' = [2, 1, mu]``: ``t = mu(mu+3)+1``."""
    algo = matrix_multiplication(mu)
    mapping = MappingMatrix(space=((1, 1, -1),), schedule=(2, 1, mu))
    return BaselineMapping(
        label="matmul/[23]",
        source="ref [23], quoted in Example 5.1",
        algorithm=algo,
        mapping=mapping,
    )


def matmul_optimal_paper(mu: int) -> BaselineMapping:
    """Matmul with the paper's optimum ``Pi° = [1, mu, 1]``: ``t = mu(mu+2)+1``."""
    algo = matrix_multiplication(mu)
    mapping = MappingMatrix(space=((1, 1, -1),), schedule=(1, mu, 1))
    return BaselineMapping(
        label="matmul/paper",
        source="Example 5.1",
        algorithm=algo,
        mapping=mapping,
    )


def transitive_closure_baseline_ref22(mu: int) -> BaselineMapping:
    """Transitive closure with [22]'s ``Pi' = [2mu+1, 1, 1]``: ``t = mu(2mu+3)+1``."""
    algo = transitive_closure(mu)
    mapping = MappingMatrix(space=((0, 0, 1),), schedule=(2 * mu + 1, 1, 1))
    return BaselineMapping(
        label="transitive_closure/[22]",
        source="ref [22], quoted in Section 1 and Example 5.2",
        algorithm=algo,
        mapping=mapping,
    )


def transitive_closure_optimal_paper(mu: int) -> BaselineMapping:
    """Transitive closure with the paper's ``Pi° = [mu+1, 1, 1]``: ``t = mu(mu+3)+1``."""
    algo = transitive_closure(mu)
    mapping = MappingMatrix(space=((0, 0, 1),), schedule=(mu + 1, 1, 1))
    return BaselineMapping(
        label="transitive_closure/paper",
        source="Example 5.2",
        algorithm=algo,
        mapping=mapping,
    )
