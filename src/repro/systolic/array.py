"""Processor array model: PE coordinates, links, occupancy geometry.

The array realized by a mapping is the image ``S(J)`` of the index set
under the space mapping — for the paper's linear-array examples a
contiguous segment of integers, for 2-D bit-level targets a set of
lattice points.  This module materializes that geometry (PE set, per-
dependence channel links, array extents) for the simulator, the
visualizer and the cost model, from one numpy image ``S J`` of the index
set; it contains no timing logic.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from ..model import UniformDependenceAlgorithm
from ..core.mapping import MappingMatrix
from ..intlin.intmat import INT64_MAX
from .interconnect import InterconnectionPlan

__all__ = [
    "ArrayGeometry", "Link", "ProcessorArray", "array_geometry", "build_array",
]


@dataclass(frozen=True)
class Link:
    """A directed channel segment used by one dependence's data stream.

    Attributes
    ----------
    channel:
        Dependence index (the paper draws one physical link per data
        stream: the ``A``, ``B`` and ``C`` links of Figure 2).
    source, target:
        PE coordinates.
    """

    channel: int
    source: tuple[int, ...]
    target: tuple[int, ...]


@dataclass(frozen=True)
class ProcessorArray:
    """The physical array induced by a mapping.

    Attributes
    ----------
    processors:
        All PE coordinates ``{S j : j in J}``, sorted.
    dimension:
        Array dimension ``k - 1``.
    links:
        Every channel link any token traverses (deduplicated).
    plan:
        The interconnection plan the links were expanded from.
    """

    processors: tuple[tuple[int, ...], ...]
    dimension: int
    links: tuple[Link, ...]
    plan: InterconnectionPlan

    @property
    def num_processors(self) -> int:
        return len(self.processors)

    def extent(self) -> tuple[tuple[int, int], ...]:
        """Per-axis (min, max) PE coordinates; empty for a 0-D array."""
        if self.dimension == 0 or not self.processors:
            return ()
        return tuple(
            (min(p[a] for p in self.processors), max(p[a] for p in self.processors))
            for a in range(self.dimension)
        )

    def links_by_channel(self, channel: int) -> Iterator[Link]:
        return (link for link in self.links if link.channel == channel)


@dataclass(frozen=True)
class ArrayGeometry:
    """The PE set and the per-channel links of a mapping, as row arrays.

    Attributes
    ----------
    processors:
        ``(|S(J)|, dim)`` distinct PE coordinates, lexicographically
        sorted.
    links:
        Per dependence, a ``(links, 2 dim)`` array of distinct
        ``[source | target]`` rows, lexicographically sorted; empty when
        the geometry was built without a plan.

    Arrays are ``int64`` when every coordinate a route visits provably
    fits, and exact ``object`` arrays of Python ints otherwise.
    """

    processors: np.ndarray
    links: tuple[np.ndarray, ...]

    def wire_length(self) -> int:
        """Total Manhattan length of all links, each counted once.

        Summed over Python ints: each step fits int64, their total may not.
        """
        dim = self.processors.shape[1]
        return sum(
            int(np.abs(rows[:, dim:] - rows[:, :dim]).sum(dtype=object))
            for rows in self.links
        )


def _unique_rows(rows: np.ndarray) -> np.ndarray:
    """Distinct rows in lexicographic order, the order ``np.unique(rows,
    axis=0)`` gives: ``np.lexsort`` with column 0 as the primary key, then
    every row that differs from its predecessor.  Exact on ``object``
    arrays too, where the sort compares Python ints.
    """
    if rows.shape[1] == 0:
        return rows[:1]
    rows = rows[np.lexsort(rows.T[::-1])]
    keep = np.ones(len(rows), dtype=bool)
    np.any(rows[1:] != rows[:-1], axis=1, out=keep[1:])
    return rows[keep]


def array_geometry(
    algorithm: UniformDependenceAlgorithm,
    mapping: MappingMatrix,
    plan: InterconnectionPlan | None = None,
) -> ArrayGeometry:
    """The PE set ``S(J)`` and, given a plan, every channel link.

    One image ``S J`` of the whole index set gives the PEs.  For each
    dependence ``d`` with a non-empty route, the producers are the
    points ``j - d`` still in ``J``; their PEs ``S j - S d`` walk the
    planned route as whole-array steps, and each step's
    ``[source | target]`` rows are the links the channel uses.  (Walking
    from every PE would fabricate phantom links past the array edge.)
    """
    dim = mapping.array_dimension
    index_set = algorithm.index_set
    pts = index_set.points_array()
    images = (
        mapping.space_matrix.image_of_points(pts)
        if dim
        else np.zeros((len(pts), 0), dtype=np.int64)
    )
    processors = _unique_rows(images)
    if plan is None:
        return ArrayGeometry(processors=processors, links=())

    steps = list(zip(*plan.primitives))
    deps = algorithm.dependence_vectors()
    shifts = [mapping.space_matrix.matvec(d) if dim else () for d in deps]
    reach = max(
        (
            max(map(abs, shift), default=0)
            + sum(max(map(abs, steps[c])) for c in route)
            for shift, route in zip(shifts, plan.routes)
        ),
        default=0,
    )
    if (
        images.dtype != object
        and int(np.abs(images).max(initial=0)) + reach > INT64_MAX
    ):
        images = images.astype(object)
    dtype = images.dtype
    empty = np.empty((0, 2 * dim), dtype=dtype)

    links: list[np.ndarray] = []
    for d, shift, route in zip(deps, shifts, plan.routes):
        if not route or not index_set.admits_translation(d):
            links.append(empty)
            continue
        inside = index_set.contains_all(pts - np.asarray(d, dtype=np.int64))
        pos = images[inside] - np.array(shift, dtype=dtype)
        hops = []
        for c in route:
            nxt = pos + np.array(steps[c], dtype=dtype)
            hops.append(np.concatenate([pos, nxt], axis=1))
            pos = nxt
        links.append(_unique_rows(np.concatenate(hops)))
    return ArrayGeometry(processors=processors, links=tuple(links))


def build_array(
    algorithm: UniformDependenceAlgorithm,
    mapping: MappingMatrix,
    plan: InterconnectionPlan,
) -> ProcessorArray:
    """Materialize the PE set and all channel links for a mapped algorithm.

    Reads :func:`array_geometry`: every PE ``S j``, and on each channel
    every directed link segment some token traverses.
    """
    dim = mapping.array_dimension
    geometry = array_geometry(algorithm, mapping, plan)
    return ProcessorArray(
        processors=tuple(map(tuple, geometry.processors.tolist())),
        dimension=dim,
        links=tuple(
            Link(channel=i, source=tuple(row[:dim]), target=tuple(row[dim:]))
            for i, rows in enumerate(geometry.links)
            for row in rows.tolist()
        ),
        plan=plan,
    )
