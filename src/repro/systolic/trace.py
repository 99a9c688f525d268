"""Execution trace export: per-cycle activity for external tooling.

The simulator audits a mapping; designers additionally want the raw
activity record — which PE computes what in each cycle, which links
carry tokens — in formats downstream tools ingest.  This module
derives that trace from an algorithm + mapping pair and exports it as

* **CSV** (one row per event: cycle, kind, location, payload) for
  spreadsheets and pandas,
* **VCD-lite** (a value-change-dump-shaped text with one signal per PE,
  value = the index point being computed) for waveform-style viewing.

The trace is re-derived from first principles (placement and route
walks), so tests can cross-check it against the simulator's report.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

from ..core.mapping import MappingMatrix
from ..model.algorithm import UniformDependenceAlgorithm
from .interconnect import InterconnectionPlan, plan_interconnection

__all__ = ["TraceEvent", "ExecutionTrace", "derive_trace"]


@dataclass(frozen=True)
class TraceEvent:
    """One activity record.

    ``kind`` is ``"compute"`` (payload = index point) or ``"transfer"``
    (payload = (channel, consumer index point)); ``location`` is a PE
    coordinate for computes and a ``(source, target)`` PE pair for
    transfers.
    """

    cycle: int
    kind: str
    location: tuple
    payload: tuple


@dataclass(frozen=True)
class ExecutionTrace:
    """A complete, cycle-ordered activity record of one execution."""

    events: tuple[TraceEvent, ...]
    num_processors: int
    first_cycle: int
    last_cycle: int

    def computes(self) -> list[TraceEvent]:
        return [e for e in self.events if e.kind == "compute"]

    def transfers(self) -> list[TraceEvent]:
        return [e for e in self.events if e.kind == "transfer"]

    def busy_processors(self, cycle: int) -> set[tuple]:
        return {
            e.location for e in self.events
            if e.kind == "compute" and e.cycle == cycle
        }

    # -- exporters ---------------------------------------------------------

    def to_csv(self) -> str:
        """``cycle,kind,location,payload`` rows, header included."""
        lines = ["cycle,kind,location,payload"]
        for e in self.events:
            loc = "|".join(map(str, e.location)) if e.location else "-"
            payload = "|".join(map(str, e.payload))
            lines.append(f"{e.cycle},{e.kind},{loc},{payload}")
        return "\n".join(lines)

    def to_vcd(self) -> str:
        """A VCD-shaped dump: one string-valued signal per processor.

        Not a bit-accurate IEEE-1364 VCD (values are index-point labels,
        not bit vectors), but waveform viewers that accept string
        signals — and humans with a pager — can follow the execution.
        """
        pes = sorted({e.location for e in self.computes()})
        ids = {pe: f"s{i}" for i, pe in enumerate(pes)}
        lines = [
            "$timescale 1 cycle $end",
            "$scope module array $end",
        ]
        for pe, sid in ids.items():
            name = "pe_" + "_".join(str(x).replace("-", "m") for x in pe)
            lines.append(f"$var string 1 {sid} {name} $end")
        lines.append("$upscope $end")
        lines.append("$enddefinitions $end")
        by_cycle: dict[int, list[TraceEvent]] = defaultdict(list)
        for e in self.computes():
            by_cycle[e.cycle].append(e)
        for cycle in range(self.first_cycle, self.last_cycle + 1):
            lines.append(f"#{cycle - self.first_cycle}")
            for e in sorted(by_cycle.get(cycle, []), key=lambda x: x.location):
                label = "".join(map(str, e.payload))
                lines.append(f"s{label} {ids[e.location]}")
        return "\n".join(lines)


def derive_trace(
    algorithm: UniformDependenceAlgorithm,
    mapping: MappingMatrix,
    *,
    plan: InterconnectionPlan | None = None,
    include_transfers: bool = True,
) -> ExecutionTrace:
    """Build the cycle-ordered activity trace of a mapped execution."""
    if plan is None:
        plan = plan_interconnection(algorithm, mapping)
    smat = mapping.space_matrix
    deps = algorithm.dependence_vectors()

    events: list[TraceEvent] = []
    pe_of: dict[tuple[int, ...], tuple[int, ...]] = {}
    time_of: dict[tuple[int, ...], int] = {}
    for j in algorithm.index_set:
        pe = tuple(smat.matvec(j)) if smat.nrows else ()
        t = mapping.time(j)
        pe_of[tuple(j)] = pe
        time_of[tuple(j)] = t
        events.append(
            TraceEvent(cycle=t, kind="compute", location=pe, payload=tuple(j))
        )

    if include_transfers:
        for j, pe in pe_of.items():
            for i, d in enumerate(deps):
                src = tuple(a - b for a, b in zip(j, d))
                if src not in pe_of:
                    continue
                route = plan.routes[i]
                pos = list(pe_of[src])
                depart = time_of[src]
                for l, prim_col in enumerate(route, start=1):
                    step = [
                        plan.primitives[row][prim_col]
                        for row in range(len(plan.primitives))
                    ]
                    nxt = [a + b for a, b in zip(pos, step)]
                    events.append(
                        TraceEvent(
                            cycle=depart + l,
                            kind="transfer",
                            location=(tuple(pos), tuple(nxt)),
                            payload=(i, j),
                        )
                    )
                    pos = nxt

    events.sort(key=lambda e: (e.cycle, e.kind, str(e.location)))
    cycles = [e.cycle for e in events]
    return ExecutionTrace(
        events=tuple(events),
        num_processors=len(set(pe_of.values())),
        first_cycle=min(cycles),
        last_cycle=max(cycles),
    )
