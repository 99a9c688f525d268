"""Array boundary I/O schedules: when and where data enter and leave.

Figure 3's execution only works if the input streams arrive at the
array boundary *skewed* exactly right — ``b[j3, j2]`` must be injected
at the PE and cycle of its first consumer, and results must be drained
where their accumulation chain ends.  The paper treats this implicitly
(the figure shows the skew); production array designs need it explicit.

For every dependence ``d_i`` this module derives:

* the **injection schedule** — for each index point ``j`` whose
  predecessor ``j - d_i`` falls outside ``J`` (a boundary consumer),
  the PE ``S j`` and cycle ``Pi j`` at which the external datum must be
  present; with one hop per primitive (Equation 2.3's timing) the datum
  must enter the array ``hops_i`` cycles earlier at PE
  ``S j - S d_i``;
* the **drain schedule** — for each ``j`` with no in-set successor
  along ``d_i`` (the end of a chain), where and when the final value is
  available.

Consistency properties (asserted in the tests, reported by the
benchmark): at most one injection per (channel, PE, cycle) for a
conflict-free mapping, and the injection count equals the number of
boundary consumers.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

from ..core.mapping import MappingMatrix
from ..model.algorithm import UniformDependenceAlgorithm
from .interconnect import InterconnectionPlan, plan_interconnection

__all__ = ["IOEvent", "IOSchedule", "derive_io_schedule"]


@dataclass(frozen=True)
class IOEvent:
    """One boundary transfer.

    ``port`` is the PE where the datum crosses the array boundary,
    ``time`` the cycle it must be present there, ``consumer``/
    ``producer`` the index point that consumes (injection) or produced
    (drain) the value.
    """

    channel: int
    port: tuple[int, ...]
    time: int
    point: tuple[int, ...]


@dataclass(frozen=True)
class IOSchedule:
    """Injection and drain schedules for every dependence channel."""

    injections: tuple[IOEvent, ...]
    drains: tuple[IOEvent, ...]

    def injections_by_channel(self, channel: int) -> list[IOEvent]:
        return [e for e in self.injections if e.channel == channel]

    def drains_by_channel(self, channel: int) -> list[IOEvent]:
        return [e for e in self.drains if e.channel == channel]

    def port_conflicts(self) -> list[tuple[IOEvent, IOEvent]]:
        """Pairs of injections contending for one (channel, port, cycle).

        Empty for conflict-free mappings: two boundary consumers with
        the same channel, port, and time would themselves collide.
        """
        seen: dict[tuple, IOEvent] = {}
        clashes: list[tuple[IOEvent, IOEvent]] = []
        for e in self.injections:
            key = (e.channel, e.port, e.time)
            if key in seen:
                clashes.append((seen[key], e))
            else:
                seen[key] = e
        return clashes


def derive_io_schedule(
    algorithm: UniformDependenceAlgorithm,
    mapping: MappingMatrix,
    *,
    plan: InterconnectionPlan | None = None,
) -> IOSchedule:
    """Compute boundary injection and drain events for a mapped algorithm.

    Injection timing backs the datum off by its hop count: with
    ``h_i`` primitive hops planned for channel ``i``, an operand
    consumed at cycle ``Pi j`` on PE ``S j`` must enter at the channel's
    upstream port ``S j - S d_i`` at cycle ``Pi j - h_i`` (it then
    pipelines through the same links in-set data use).
    """
    if plan is None:
        plan = plan_interconnection(algorithm, mapping)
    smat = mapping.space_matrix
    deps = algorithm.dependence_vectors()
    in_set = algorithm.index_set

    injections: list[IOEvent] = []
    drains: list[IOEvent] = []
    for j in in_set:
        pe = tuple(smat.matvec(j)) if smat.nrows else ()
        t = mapping.time(j)
        for i, d in enumerate(deps):
            pred = tuple(a - b for a, b in zip(j, d))
            if pred not in in_set:
                hops = plan.hops(i)
                displacement = (
                    smat.matvec(d) if smat.nrows else []
                )
                port = tuple(p - s for p, s in zip(pe, displacement))
                injections.append(
                    IOEvent(channel=i, port=port, time=t - hops, point=j)
                )
            succ = tuple(a + b for a, b in zip(j, d))
            if succ not in in_set:
                drains.append(IOEvent(channel=i, port=pe, time=t, point=j))

    injections.sort(key=lambda e: (e.channel, e.time, e.port))
    drains.sort(key=lambda e: (e.channel, e.time, e.port))
    return IOSchedule(injections=tuple(injections), drains=tuple(drains))


def render_injection_profile(schedule: IOSchedule, channel: int) -> str:
    """Small ASCII profile: injections per cycle for one channel."""
    per_cycle: dict[int, int] = defaultdict(int)
    for e in schedule.injections_by_channel(channel):
        per_cycle[e.time] += 1
    if not per_cycle:
        return f"channel {channel}: no boundary injections"
    lines = [f"channel {channel} injections per cycle:"]
    for t in range(min(per_cycle), max(per_cycle) + 1):
        count = per_cycle.get(t, 0)
        lines.append(f"  t={t:>4d} {'#' * count}{' ' if count else '(idle)'}")
    return "\n".join(lines)
