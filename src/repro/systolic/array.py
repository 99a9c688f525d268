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

from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from ..model.algorithm import UniformDependenceAlgorithm
from ..core.mapping import MappingMatrix
from ..intlin.batch import batch_rows
from ..intlin.intmat import INT64_MAX
from .interconnect import InterconnectionPlan

__all__ = [
    "Link", "ProcessorArray", "array_geometry", "build_array", "stack_links", "stack_processors",
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


def _unique_rows(rows: np.ndarray) -> np.ndarray:
    """Distinct rows in lexicographic order, the order ``np.unique(rows,
    axis=0)`` gives: ``np.lexsort`` with column 0 as the primary key, then
    every row that differs from its predecessor.  Exact on ``object``
    arrays too, where the sort compares Python ints.
    """
    rows = rows[np.lexsort(rows.T[::-1])]
    keep = np.ones(len(rows), dtype=bool)
    np.any(rows[1:] != rows[:-1], axis=1, out=keep[1:])
    return rows[keep]


def stack_processors(images: np.ndarray) -> np.ndarray:
    """Distinct ``[i | S_i j]`` rows of an ``(M, N, dim)`` image stack:
    every mapping's PEs, keyed by its stack index, in lexicographic order."""
    count, points, dim = images.shape
    keys = np.repeat(np.arange(count, dtype=np.int64), points)[:, None]
    return _unique_rows(np.concatenate([keys, images.reshape(count * points, dim)], axis=1))


def stack_links(
    algorithm: UniformDependenceAlgorithm, pts: np.ndarray, images: np.ndarray,
    shifts: np.ndarray, routes: Sequence[Sequence[int]], steps: np.ndarray,
) -> np.ndarray:
    """Distinct ``[i, c | source | target]`` rows, in lexicographic order:
    every link channel ``c`` of mapping ``i`` uses.

    ``images`` is the ``(M, N, dim)`` stack of images ``S_i j`` of the
    points ``pts`` and ``shifts`` the ``(M, m, dim)`` stack of ``S_i d_c``.
    ``routes[i m + c]`` lists the primitive columns of ``steps`` that
    channel ``c`` of mapping ``i`` takes, in travel order.  The
    producers of channel ``c`` are the points ``j - d_c`` still in ``J``:
    their PEs ``S_i j - S_i d_c`` walk the route as whole-array steps,
    each hop's ``[source | target]`` rows being links (walking from every
    PE would fabricate phantom links past the array edge).  The walk is
    int64 when every coordinate it visits provably fits, else Python ints.
    """
    dim = images.shape[2]
    owners = np.repeat(np.arange(len(routes)), [len(route) for route in routes])
    if not len(owners):
        return np.empty((0, 2 + 2 * dim), dtype=images.dtype)
    step = steps[np.concatenate(routes).astype(np.int64)]
    reach = int(np.abs(shifts).max(initial=0)) + int(np.abs(step).sum(dtype=object))
    if images.dtype != object and int(np.abs(images).max(initial=0)) + reach > INT64_MAX:
        images = images.astype(object)
    step, shifts = step.astype(images.dtype), shifts.astype(images.dtype)
    # Each hop's offset from its route's start: the steps taken before it.
    before = np.cumsum(step, axis=0) - step
    first = np.r_[True, owners[1:] != owners[:-1]]
    before -= before[np.maximum.accumulate(np.where(first, np.arange(len(owners)), 0))]
    mapping_of, channel_of = np.divmod(owners, shifts.shape[1])
    rows = []
    for c, d in enumerate(algorithm.dependence_vectors()):
        hop = np.flatnonzero(channel_of == c)
        inside = algorithm.index_set.contains_all(pts - np.asarray(d, dtype=np.int64))
        i = mapping_of[hop]
        src = images[:, inside][i] - shifts[i, c][:, None] + before[hop][:, None]
        key = np.stack([i, channel_of[hop]], axis=1).astype(images.dtype)[:, None]
        key = np.broadcast_to(key, (len(hop), src.shape[1], 2))
        hops = np.concatenate([key, src, src + step[hop][:, None]], axis=2)
        rows.append(hops.reshape(-1, 2 + 2 * dim))
    return _unique_rows(np.concatenate(rows))


def array_geometry(
    algorithm: UniformDependenceAlgorithm,
    mapping: MappingMatrix,
    plan: InterconnectionPlan | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """The PE set ``S(J)`` and, given a plan, every channel link.

    Returns the distinct PE rows and the :func:`stack_links` rows
    ``[0, c | source | target]`` (none without a plan), both sorted: one
    image ``S J`` of the index set, and the plan's routes walked as a
    stack of one.  Arrays are ``int64`` when every coordinate provably
    fits, and exact ``object`` arrays of Python ints otherwise.
    """
    dim = mapping.array_dimension
    pts = algorithm.index_set.points_array()
    smat = mapping.space_matrix
    images = (smat.image_of_points(pts) if dim else np.zeros((len(pts), 0), np.int64))[None]
    processors = stack_processors(images)[:, 1:]
    if plan is None:
        return processors, np.empty((0, 2 + 2 * dim), dtype=processors.dtype)
    deps = algorithm.dependence_vectors()
    shifts = batch_rows([smat.matvec(d) if dim else () for d in deps])[None]
    steps = batch_rows(list(zip(*plan.primitives)))
    return processors, stack_links(algorithm, pts, images, shifts, plan.routes, steps)


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
    processors, links = array_geometry(algorithm, mapping, plan)
    return ProcessorArray(
        processors=tuple(map(tuple, processors.tolist())),
        dimension=dim,
        links=tuple(
            Link(channel=row[1], source=tuple(row[2 : 2 + dim]), target=tuple(row[2 + dim :]))
            for row in links.tolist()
        ),
        plan=plan,
    )
