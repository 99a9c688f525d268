"""VLSI cost model for mapped arrays (Section 6's optimization criteria).

The paper's future-work problems (6.1, 6.2) optimize "the number of
processors plus the wire length of the array", possibly combined with
execution time.  This module supplies that cost model:

* **processor count** — ``|S(J)|``, the PEs actually used;
* **wire length** — total Manhattan length of all channel links, each
  physical link counted once (the paper's per-stream links of Figure 2);
* **buffer registers** — the Equation-2.3 slack summed over links;
* a combined :class:`ArrayCost` with a pluggable weighting.

Everything is computed from the same interconnection plan the
simulator executes, so cost numbers and behavior can never drift
apart.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from ..core.mapping import MappingMatrix
from ..model import UniformDependenceAlgorithm
from .array import array_geometry
from .interconnect import InterconnectionPlan, plan_interconnection

__all__ = ["ArrayCost", "evaluate_cost", "processor_count", "wire_length"]


@dataclass(frozen=True)
class ArrayCost:
    """Cost sheet of one mapped design (Problem 6.1's objective pieces).

    Attributes
    ----------
    processors:
        Number of distinct PE coordinates used.
    wire_length:
        Total Manhattan length of physical channel links (each link
        counted once per channel, as in Figure 2's dedicated streams).
    buffers:
        Total FIFO registers across all data links.
    total_time:
        The schedule's total execution time (Equation 2.7).
    """

    processors: int
    wire_length: int
    buffers: int
    total_time: int

    def combined(
        self,
        *,
        processor_weight: float = 1.0,
        wire_weight: float = 1.0,
        buffer_weight: float = 0.0,
        time_weight: float = 0.0,
    ) -> float:
        """The weighted objective; the paper's default is PEs + wire."""
        return (
            processor_weight * self.processors
            + wire_weight * self.wire_length
            + buffer_weight * self.buffers
            + time_weight * self.total_time
        )


def processor_count(
    algorithm: UniformDependenceAlgorithm, mapping: MappingMatrix
) -> int:
    """``|S(J)|``: distinct processor coordinates over the index set.

    For the common case of an interval/box image this is closed-form,
    but arbitrary ``S`` images need not be dense, so we count the
    distinct rows of the image ``S J`` exactly.
    """
    return len(array_geometry(algorithm, mapping).processors)


def wire_length(
    algorithm: UniformDependenceAlgorithm,
    mapping: MappingMatrix,
    plan: InterconnectionPlan | None = None,
) -> int:
    """Total Manhattan wire length across all per-dependence channels.

    Each dependence stream owns physical links between every PE pair it
    connects (Figure 2); a link's length is the Manhattan norm of its
    primitive step (1 for nearest-neighbor machines, more for
    long-range primitives).
    """
    if plan is None:
        plan = plan_interconnection(algorithm, mapping)
    return array_geometry(algorithm, mapping, plan).wire_length()


def evaluate_cost(
    algorithm: UniformDependenceAlgorithm,
    mapping: MappingMatrix,
    *,
    primitives: Sequence[Sequence[int]] | None = None,
) -> ArrayCost:
    """The full cost sheet for one mapping (plans the interconnect)."""
    plan = plan_interconnection(algorithm, mapping, primitives)
    geometry = array_geometry(algorithm, mapping, plan)
    from ..core.schedule import total_execution_time

    return ArrayCost(
        processors=len(geometry.processors),
        wire_length=geometry.wire_length(),
        buffers=plan.total_buffers,
        total_time=total_execution_time(mapping.schedule, algorithm.mu),
    )
