"""Structural netlists for designed arrays.

Once a mapping is chosen, an array designer needs the *structure* of
the machine: the PE instances, the per-channel wires between them, and
the FIFO registers Equation 2.3's slack demands.  This module
materializes that as a :class:`Netlist` — cells (PEs and FIFOs), nets
(directed channel wires), and boundary ports (from the I/O schedule) —
with JSON and Graphviz-dot exporters, so a design can leave the
simulator and enter real tooling.

Consistency invariants (tested): every net endpoint is a declared cell
or port; FIFO depth per channel matches the interconnection plan; the
cell count is ``#PEs + #(channel, link)-FIFOs``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from ..core.mapping import MappingMatrix
from ..model.algorithm import UniformDependenceAlgorithm
from .array import ProcessorArray, build_array
from .interconnect import InterconnectionPlan, plan_interconnection
from .io_schedule import derive_io_schedule

__all__ = ["Cell", "Net", "Netlist", "build_netlist"]


def _pe_name(coord: tuple[int, ...]) -> str:
    inner = "_".join(str(x).replace("-", "m") for x in coord) or "scalar"
    return f"pe_{inner}"


@dataclass(frozen=True)
class Cell:
    """One hardware instance: a PE or a FIFO register bank.

    ``kind`` is ``"pe"`` or ``"fifo"``; ``params`` carries
    kind-specific attributes (PE coordinates, FIFO depth/channel).
    """

    name: str
    kind: str
    params: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Net:
    """A directed wire on one dependence channel."""

    name: str
    channel: int
    source: str
    target: str


@dataclass(frozen=True)
class Netlist:
    """The structural description of a designed array."""

    cells: tuple[Cell, ...]
    nets: tuple[Net, ...]
    boundary_ports: tuple[str, ...]

    def cell_names(self) -> set[str]:
        return {c.name for c in self.cells}

    def cells_of_kind(self, kind: str) -> list[Cell]:
        return [c for c in self.cells if c.kind == kind]

    def validate(self) -> None:
        """Raise :class:`ValueError` on dangling net endpoints."""
        known = self.cell_names() | set(self.boundary_ports)
        for net in self.nets:
            if net.source not in known:
                raise ValueError(f"net {net.name} has unknown source {net.source}")
            if net.target not in known:
                raise ValueError(f"net {net.name} has unknown target {net.target}")
        if len({c.name for c in self.cells}) != len(self.cells):
            raise ValueError("duplicate cell names")

    # -- exporters ---------------------------------------------------------

    def to_json(self) -> str:
        """Serialize to a stable JSON document."""
        return json.dumps(
            {
                "cells": [
                    {"name": c.name, "kind": c.kind, "params": c.params}
                    for c in self.cells
                ],
                "nets": [
                    {
                        "name": n.name,
                        "channel": n.channel,
                        "source": n.source,
                        "target": n.target,
                    }
                    for n in self.nets
                ],
                "boundary_ports": list(self.boundary_ports),
            },
            indent=2,
            sort_keys=True,
        )

    def to_dot(self) -> str:
        """Graphviz digraph: PEs as boxes, FIFOs as small ellipses."""
        lines = ["digraph array {", "  rankdir=LR;"]
        for c in self.cells:
            shape = "box" if c.kind == "pe" else "ellipse"
            label = c.name if c.kind == "pe" else f"{c.name}\\n(depth {c.params.get('depth', 0)})"
            lines.append(f'  "{c.name}" [shape={shape}, label="{label}"];')
        for p in self.boundary_ports:
            lines.append(f'  "{p}" [shape=plaintext];')
        for n in self.nets:
            lines.append(
                f'  "{n.source}" -> "{n.target}" [label="ch{n.channel}"];'
            )
        lines.append("}")
        return "\n".join(lines)


def build_netlist(
    algorithm: UniformDependenceAlgorithm,
    mapping: MappingMatrix,
    *,
    plan: InterconnectionPlan | None = None,
    array: ProcessorArray | None = None,
    include_boundary: bool = True,
) -> Netlist:
    """Materialize the structural netlist of a mapped design.

    Each physical channel link becomes either a direct net (zero
    buffers on the channel) or a net into a FIFO cell and a net out of
    it (buffered channel).  Boundary injection ports (one per channel
    and boundary PE, from the I/O schedule) are included when
    ``include_boundary`` is set.
    """
    if plan is None:
        plan = plan_interconnection(algorithm, mapping)
    if array is None:
        array = build_array(algorithm, mapping, plan)

    cells: list[Cell] = [
        Cell(name=_pe_name(pe), kind="pe", params={"coord": list(pe)})
        for pe in array.processors
    ]
    nets: list[Net] = []
    net_id = 0
    for link in array.links:
        depth = plan.buffers[link.channel]
        src = _pe_name(link.source)
        dst = _pe_name(link.target)
        if depth > 0:
            fifo = Cell(
                name=f"fifo_ch{link.channel}_{src}_to_{dst}",
                kind="fifo",
                params={"depth": depth, "channel": link.channel},
            )
            cells.append(fifo)
            nets.append(
                Net(
                    name=f"n{net_id}",
                    channel=link.channel,
                    source=src,
                    target=fifo.name,
                )
            )
            net_id += 1
            nets.append(
                Net(
                    name=f"n{net_id}",
                    channel=link.channel,
                    source=fifo.name,
                    target=dst,
                )
            )
            net_id += 1
        else:
            nets.append(
                Net(name=f"n{net_id}", channel=link.channel, source=src, target=dst)
            )
            net_id += 1

    ports: list[str] = []
    if include_boundary:
        io = derive_io_schedule(algorithm, mapping, plan=plan)
        seen_ports: set[tuple[int, tuple[int, ...]]] = set()
        pe_names = {_pe_name(pe) for pe in array.processors}
        for event in io.injections:
            key = (event.channel, event.port)
            if key in seen_ports:
                continue
            seen_ports.add(key)
            port_name = f"in_ch{event.channel}_{_pe_name(event.port)}"
            ports.append(port_name)
            # Wire the port to the channel entry PE (the consumer-side
            # PE when the port coincides with it, else the port's PE).
            target = (
                _pe_name(event.port)
                if _pe_name(event.port) in pe_names
                else _pe_name(mapping.processor(event.point))
            )
            nets.append(
                Net(
                    name=f"n{net_id}",
                    channel=event.channel,
                    source=port_name,
                    target=target,
                )
            )
            net_id += 1

    netlist = Netlist(
        cells=tuple(cells), nets=tuple(nets), boundary_ports=tuple(ports)
    )
    netlist.validate()
    return netlist
