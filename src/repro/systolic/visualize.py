"""ASCII renderings of the paper's figures.

* :func:`render_index_set_2d` — Figure 1: a 2-D index set with conflict
  vectors drawn from the origin, marking which lattice points they hit;
* :func:`render_array_diagram` — Figure 2: the linear-array block
  diagram with per-channel directions and buffer counts;
* :func:`render_space_time` — Figure 3: the space-time execution table
  (rows = processors, columns = cycles, cells = index points).

All functions return plain strings so examples and benchmarks can print
them and tests can assert on their structure.
"""

from __future__ import annotations

from collections.abc import Sequence

from ..model.algorithm import UniformDependenceAlgorithm
from ..model.index_set import ConstantBoundedIndexSet
from ..core.mapping import MappingMatrix
from .interconnect import InterconnectionPlan

__all__ = [
    "render_index_set_2d",
    "render_array_diagram",
    "render_space_time",
    "render_array_2d",
]


def render_index_set_2d(
    index_set: ConstantBoundedIndexSet,
    gammas: Sequence[Sequence[int]] = (),
) -> str:
    """Figure 1: the lattice with conflict-vector rays from the origin.

    Lattice points are ``.``; points hit by the ``g``-th conflict
    vector's integer multiples are labeled with the digit ``g+1``
    (showing *which* computations would share a processor-time slot).
    A feasible conflict vector marks no point other than the origin.
    """
    if index_set.dimension != 2:
        raise ValueError("Figure-1 rendering is for 2-D index sets")
    mu1, mu2 = index_set.mu
    label: dict[tuple[int, int], str] = {}
    for g_idx, gamma in enumerate(gammas):
        g1, g2 = int(gamma[0]), int(gamma[1])
        mult = 1
        while True:
            p = (mult * g1, mult * g2)
            if p not in index_set:
                break
            label[p] = str(g_idx + 1)
            mult += 1
    lines = []
    header = "   " + " ".join(f"{j1:>2d}" for j1 in range(mu1 + 1))
    lines.append(header)
    for j2 in range(mu2, -1, -1):
        row = [f"{j2:>2d} "]
        for j1 in range(mu1 + 1):
            row.append(f" {label.get((j1, j2), '.')}" + " ")
        lines.append("".join(row).rstrip())
    legend = [
        f"gamma_{g + 1} = {tuple(int(x) for x in gamma)}"
        + (" (non-feasible: hits lattice points)" if any(
            (m * int(gamma[0]), m * int(gamma[1])) in index_set for m in (1,)
        ) else " (feasible)")
        for g, gamma in enumerate(gammas)
    ]
    return "\n".join(lines + [""] + legend)


def render_array_diagram(
    mapping: MappingMatrix,
    plan: InterconnectionPlan,
    *,
    channel_names: Sequence[str] | None = None,
    num_processors: int | None = None,
) -> str:
    """Figure 2: block diagram of a linear array with channels and buffers.

    Only 1-D arrays are drawn (the paper's figure); each dependence
    channel gets one line showing travel direction (``-->`` / ``<--`` /
    ``(local)``) and its planned FIFO depth.
    """
    if mapping.array_dimension != 1:
        raise ValueError("block-diagram rendering is for linear arrays")
    names = list(channel_names) if channel_names else [
        f"d{i + 1}" for i in range(len(plan.routes))
    ]
    pes = num_processors if num_processors is not None else 5
    box_row = "  ".join("[PE]" for _ in range(pes))
    lines = [box_row]
    for i, route in enumerate(plan.routes):
        displacement = 0
        for prim_col in route:
            displacement += plan.primitives[0][prim_col]
        if displacement > 0:
            arrow = "-->"
        elif displacement < 0:
            arrow = "<--"
        else:
            arrow = "(local)"
        lines.append(
            f"  {names[i]:<8s} {arrow:>7s}   hops={len(route)}  "
            f"buffers={plan.buffers[i]}"
        )
    return "\n".join(lines)


def render_space_time(
    algorithm: UniformDependenceAlgorithm,
    mapping: MappingMatrix,
    *,
    max_width: int = 2000,
) -> str:
    """Figure 3: the space-time table of a linear-array execution.

    Rows are processors (``S j``), columns are cycles (``Pi j``), each
    cell shows the index point computed there (or ``.`` when idle).
    Raises when the mapping has computational conflicts — the table
    would need two labels in one cell, which is exactly the defect the
    paper's theory rules out.
    """
    if mapping.array_dimension != 1:
        raise ValueError("space-time rendering is for linear arrays")
    smat = mapping.space_matrix
    cells: dict[tuple[int, int], tuple[int, ...]] = {}
    pes: set[int] = set()
    ts: set[int] = set()
    for j in algorithm.index_set:
        pe = smat.matvec(j)[0]
        t = mapping.time(j)
        if (pe, t) in cells:
            raise ValueError(
                f"computational conflict at PE {pe}, cycle {t}: "
                f"{cells[(pe, t)]} and {tuple(j)}"
            )
        cells[(pe, t)] = tuple(j)
        pes.add(pe)
        ts.add(t)

    t_lo, t_hi = min(ts), max(ts)
    cell_w = max(len(_fmt_point(p)) for p in cells.values()) + 1
    if (t_hi - t_lo + 1) * cell_w > max_width:
        raise ValueError(
            f"table would be {(t_hi - t_lo + 1) * cell_w} columns wide; "
            f"raise max_width to render"
        )
    lines = [
        "PE\\t " + "".join(f"{t:>{cell_w}d}" for t in range(t_lo, t_hi + 1))
    ]
    for pe in sorted(pes):
        row = [f"{pe:>4d} "]
        for t in range(t_lo, t_hi + 1):
            row.append(f"{_fmt_point(cells.get((pe, t))):>{cell_w}s}")
        lines.append("".join(row))
    return "\n".join(lines)


def render_array_2d(array) -> str:
    """A 2-D array floor plan: PE grid with per-cell channel degrees.

    Each cell shows how many distinct channel links leave that PE —
    a quick visual check of interconnect density for the bit-level
    targets (GAPP/DAP-class machines are uniform: every interior cell
    shows the same degree).
    """
    if array.dimension != 2:
        raise ValueError("floor-plan rendering is for 2-D arrays")
    (x_lo, x_hi), (y_lo, y_hi) = array.extent()
    degree: dict[tuple[int, int], int] = {}
    for link in array.links:
        degree[link.source] = degree.get(link.source, 0) + 1
    pes = set(array.processors)
    lines = []
    for y in range(y_hi, y_lo - 1, -1):
        row = []
        for x in range(x_lo, x_hi + 1):
            if (x, y) in pes:
                row.append(f"[{degree.get((x, y), 0):>2d}]")
            else:
                row.append("  . ")
        lines.append(" ".join(row))
    lines.append(
        f"({array.num_processors} PEs, {len(array.links)} channel links; "
        "cell = outgoing link count)"
    )
    return "\n".join(lines)


def _fmt_point(p: tuple[int, ...] | None) -> str:
    if p is None:
        return "."
    return "".join(str(x) for x in p)
