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

import numpy as np

from ..core.mapping import MappingMatrix
from ..intlin.intmat import as_intmat
from ..model.algorithm import UniformDependenceAlgorithm
from .array import array_geometry, stack_links, stack_processors
from .interconnect import InterconnectionPlan, RoutingError, check_budget, plan_interconnection
from .interconnect import nearest_neighbor_primitives, nearest_neighbor_usage

__all__ = ["ArrayCost", "evaluate_cost", "evaluate_costs", "processor_count", "wire_length"]


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
    return len(array_geometry(algorithm, mapping)[0])


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
    processors, links = array_geometry(algorithm, mapping, plan)
    dim = processors.shape[1]
    # Summed over Python ints: each step fits int64, their total may not.
    return int(np.abs(links[:, 2 + dim :] - links[:, 2 : 2 + dim]).sum(dtype=object))


def evaluate_cost(
    algorithm: UniformDependenceAlgorithm, mapping: MappingMatrix
) -> ArrayCost:
    """The full cost sheet for one mapping: :func:`evaluate_costs` of a
    stack of one, raising its :class:`RoutingError`."""
    cost = evaluate_costs(algorithm, [mapping])[0]
    if isinstance(cost, RoutingError):
        raise cost
    return cost


def evaluate_costs(
    algorithm: UniformDependenceAlgorithm, mappings: Sequence[MappingMatrix]
) -> list[ArrayCost | RoutingError]:
    """Cost sheets for a stack of mappings on the nearest-neighbour ``P``.

    ``out[i]`` is :func:`evaluate_cost` of ``mappings[i]``, or the
    :class:`RoutingError` it raises.  Each ``S`` is zero-padded to the
    widest (a zero row adds no PE coordinate and no hop); ``S J``, ``S D``
    and ``Pi D`` are one product each, routing is :func:`nearest_neighbor_usage`
    of all of ``S D``, and PEs and links are one dedupe each (each link
    is one unit hop, so wire length is the link count).  A stack not
    certified to fit int64 runs over Python ints.
    """
    from ..core.schedule import total_execution_time

    if not mappings:
        return []
    count, dim = len(mappings), max(1, *(t.array_dimension for t in mappings))
    pad = ((0,) * algorithm.n,)
    spaces = as_intmat([row for t in mappings for row in t.space + pad * (dim - len(t.space))])
    deps = algorithm.dependence_array()
    shifts = spaces.image_of_points(deps.T).reshape(-1, count, dim).swapaxes(0, 1)
    budgets = as_intmat([t.schedule for t in mappings]).image_of_points(deps.T).T
    usage = nearest_neighbor_usage(shifts)
    hops = usage.sum(axis=2, dtype=object)
    out: list = [None] * count
    for i in np.flatnonzero(((budgets <= 0) | (hops > budgets)).any(axis=1)):
        try:
            for c, d in enumerate(algorithm.dependence_vectors()):
                target = shifts[i, c, : mappings[i].array_dimension].tolist()
                check_budget(target, hops[i, c], budgets[i, c], d)
        except RoutingError as error:
            out[i] = error
    routed = np.flatnonzero([cost is None for cost in out])
    pts = algorithm.index_set.points_array()
    images = spaces.image_of_points(pts).reshape(-1, count, dim).swapaxes(0, 1)[routed]
    columns = np.arange(2 * dim)
    routes = [np.repeat(columns, k) for k in usage[routed].reshape(-1, 2 * dim).astype(np.int64)]
    steps = np.array(nearest_neighbor_primitives(dim)).T
    links = stack_links(algorithm, pts, images, shifts[routed], routes, steps)
    pes = np.bincount(stack_processors(images)[:, 0].astype(np.int64), minlength=len(routed))
    wires = np.bincount(links[:, 0].astype(np.int64), minlength=len(routed))
    for k, i in enumerate(routed):
        out[i] = ArrayCost(
            processors=int(pes[k]), wire_length=int(wires[k]),
            buffers=int(sum(budgets[i] - hops[i])),
            total_time=total_execution_time(mappings[i].schedule, algorithm.mu),
        )
    return out
