"""Cycle-accurate simulation of a mapped algorithm.

The simulator is the behavioral referee for the whole theory: it takes
an algorithm ``(J, D)`` and a mapping ``T = [S; Pi]`` and *executes*
the mapping literally —

* every computation ``j`` is placed at processor ``S j`` and cycle
  ``Pi j``; two computations landing on the same (PE, cycle) is a
  **computational conflict**, precisely Definition 2.3's event, detected
  here without any lattice theory;
* every dependence datum travels its planned hop route one link per
  cycle and then waits in the destination FIFO until its consumer
  fires; two tokens crossing the same channel link in the same cycle is
  a **link collision** (the condition from [23] that the appendix
  discusses); an operand that has not arrived by its consumer's cycle
  is a **latency violation** (Equation 2.3 broken);
* when the algorithm carries executable semantics, values are computed
  in schedule order and returned for numerical verification.

The conflict-freedom theorems of Section 4 are thus testable end to
end: a mapping certified conflict-free must simulate with zero
conflicts, and the certified-optimal schedules must finish in exactly
``1 + sum |pi_i| mu_i`` cycles (Equation 2.7).
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Sequence
from dataclasses import dataclass, field

from ..model.algorithm import UniformDependenceAlgorithm
from ..core.mapping import MappingMatrix
from ..obs.tracer import get_tracer
from .array import ProcessorArray, build_array
from .interconnect import InterconnectionPlan, plan_interconnection

__all__ = [
    "ComputationalConflict",
    "LinkCollision",
    "LatencyViolation",
    "SimulationReport",
    "simulate_mapping",
]


@dataclass(frozen=True)
class ComputationalConflict:
    """Two or more computations on one PE in one cycle."""

    processor: tuple[int, ...]
    time: int
    points: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class LinkCollision:
    """Two tokens on the same channel link in the same cycle."""

    channel: int
    source: tuple[int, ...]
    target: tuple[int, ...]
    time: int
    tokens: tuple[tuple[int, ...], ...]  # consumer index points


@dataclass(frozen=True)
class LatencyViolation:
    """An operand that would arrive after its consumer executes."""

    channel: int
    consumer: tuple[int, ...]
    needed_at: int
    arrives_at: int


@dataclass(frozen=True)
class SimulationReport:
    """Everything observed during one simulated execution.

    Attributes
    ----------
    start_time, finish_time:
        First and last busy cycles (``Pi j`` extremes over ``J``).
    makespan:
        ``finish_time - start_time + 1`` — the total execution time of
        Equation 2.4 realized behaviorally.
    conflicts, link_collisions, latency_violations:
        Defect lists; all empty for a correct conflict-free mapping.
    max_buffer_occupancy:
        Per dependence channel, the peak number of in-flight-but-
        unconsumed tokens waiting at any single PE — compare against
        the planned FIFO depth.  Under ``hop_policy="eager"`` tokens
        wait at the *destination* FIFO; under ``"lazy"`` they wait at
        the *source*, so the same traffic shows up against different
        PEs.
    fifo_peaks:
        The per-PE breakdown behind ``max_buffer_occupancy``: one
        ``(channel, pe, peak)`` triple for every FIFO that ever held a
        waiting token, sorted by channel then PE.
    values:
        Functional results per index point (``None`` without
        semantics).
    array:
        The materialized processor array.
    plan:
        The interconnection plan used for routing.
    """

    start_time: int
    finish_time: int
    makespan: int
    num_computations: int
    num_processors: int
    conflicts: tuple[ComputationalConflict, ...]
    link_collisions: tuple[LinkCollision, ...]
    latency_violations: tuple[LatencyViolation, ...]
    max_buffer_occupancy: tuple[int, ...]
    fifo_peaks: tuple[tuple[int, tuple[int, ...], int], ...]
    values: dict | None
    array: ProcessorArray
    plan: InterconnectionPlan
    utilization: float

    @property
    def ok(self) -> bool:
        """No conflicts, no collisions, no latency violations."""
        return not (self.conflicts or self.link_collisions or self.latency_violations)


def simulate_mapping(
    algorithm: UniformDependenceAlgorithm,
    mapping: MappingMatrix,
    *,
    primitives: Sequence[Sequence[int]] | None = None,
    functional: bool | None = None,
    plan: InterconnectionPlan | None = None,
    hop_policy: str = "eager",
) -> SimulationReport:
    """Execute a mapped algorithm cycle-accurately and audit it.

    Parameters
    ----------
    functional:
        ``True`` to execute semantics (requires ``algorithm.compute``),
        ``False`` to skip, ``None`` to auto-detect.
    plan:
        Reuse a pre-computed interconnection plan (otherwise planned
        here with the given or default ``primitives``).
    hop_policy:
        When a route has slack (``Pi d_i > hops``), ``"eager"`` moves
        the token immediately after production (waiting at the
        destination FIFO — Figure 2's buffer placement), while
        ``"lazy"`` holds it at the source and moves it just in time
        (waiting at the source PE, where ``max_buffer_occupancy`` then
        accounts for it).  The two policies stress different links at
        different cycles, so a multi-hop design clean under one may
        collide under the other; both satisfy Equation 2.3.

    Notes
    -----
    Token timing model (eager): a datum produced at ``j_src = j - d_i``
    leaves at cycle ``Pi j_src``, crosses hop ``l`` of its route during
    cycle ``Pi j_src + l``, arrives after ``h_i`` hops and waits in the
    destination FIFO until cycle ``Pi j``.  This realizes Equation 2.3
    ("one time unit per interconnection primitive") and reproduces the
    buffer counts of Figure 2.  Lazy timing shifts every hop by the
    slack: hop ``l`` crosses at ``Pi j - h_i + l``.
    """
    if hop_policy not in ("eager", "lazy"):
        raise ValueError(f"unknown hop_policy {hop_policy!r}")
    tracer = get_tracer()
    root = tracer.span(
        "systolic.simulate",
        algorithm=algorithm.name,
        hop_policy=hop_policy,
    )
    with root:
        if plan is None:
            with tracer.span("sim.plan"):
                plan = plan_interconnection(algorithm, mapping, primitives)
        array = build_array(algorithm, mapping, plan)
        if functional is None:
            functional = algorithm.compute is not None
        if functional and algorithm.compute is None:
            raise ValueError("functional simulation requires algorithm.compute")

        smat = mapping.space_matrix
        deps = algorithm.dependence_vectors()
        m = len(deps)

        placement: dict[tuple, list[tuple[int, ...]]] = defaultdict(list)
        times: list[int] = []
        schedule_of: dict[tuple[int, ...], int] = {}
        pe_of: dict[tuple[int, ...], tuple[int, ...]] = {}

        with tracer.span("sim.place"):
            for j in algorithm.index_set:
                t = mapping.time(j)
                pe = tuple(smat.matvec(j)) if smat.nrows else ()
                placement[(pe, t)].append(j)
                times.append(t)
                schedule_of[j] = t
                pe_of[j] = pe

        conflicts = tuple(
            ComputationalConflict(processor=pe, time=t, points=tuple(points))
            for (pe, t), points in sorted(placement.items())
            if len(points) > 1
        )

        # -- token routing -------------------------------------------------
        link_use: dict[tuple, list[tuple[int, ...]]] = defaultdict(list)
        latency: list[LatencyViolation] = []
        # (channel, pe) -> list of (enter, leave) waiting intervals for the
        # FIFO at that PE: under "eager" a token waits at its destination
        # between arrival and consumption; under "lazy" it waits at its
        # source between production and departure.
        fifo_intervals: dict[tuple, list[tuple[int, int]]] = defaultdict(list)

        with tracer.span("sim.route"):
            for j in algorithm.index_set:
                for i, d in enumerate(deps):
                    src = tuple(a - b for a, b in zip(j, d))
                    if src not in schedule_of:
                        continue  # boundary input, injected from outside
                    depart = schedule_of[src]
                    route = plan.routes[i]
                    consume = schedule_of[j]
                    hop_base = (
                        depart if hop_policy == "eager" else consume - len(route)
                    )
                    pos = list(pe_of[src])
                    for l, prim_col in enumerate(route, start=1):
                        step = [
                            plan.primitives[row][prim_col]
                            for row in range(len(plan.primitives))
                        ]
                        nxt = [a + b for a, b in zip(pos, step)]
                        link_use[(i, tuple(pos), tuple(nxt), hop_base + l)].append(j)
                        pos = nxt
                    if tuple(pos) != pe_of[j]:
                        raise RuntimeError(
                            f"route for dependence {i} ends at {tuple(pos)}, "
                            f"consumer is at {pe_of[j]} — interconnection plan "
                            "inconsistent"
                        )
                    # Equation 2.3's audit: eager tokens must not arrive late;
                    # lazy tokens must not need to leave before being produced.
                    if depart + len(route) > consume:
                        latency.append(
                            LatencyViolation(
                                channel=i,
                                consumer=j,
                                needed_at=consume,
                                arrives_at=depart + len(route),
                            )
                        )
                    if hop_policy == "eager":
                        fifo_intervals[(i, pe_of[j])].append(
                            (depart + len(route), consume)
                        )
                    else:
                        fifo_intervals[(i, pe_of[src])].append(
                            (depart, consume - len(route))
                        )

        collisions = tuple(
            LinkCollision(
                channel=key[0], source=key[1], target=key[2], time=key[3],
                tokens=tuple(consumers),
            )
            for key, consumers in sorted(link_use.items())
            if len(consumers) > 1
        )

        # -- peak FIFO occupancy per channel and per PE --------------------
        max_occupancy = [0] * m
        fifo_peaks: list[tuple[int, tuple[int, ...], int]] = []
        with tracer.span("sim.fifo"):
            for (channel, pe), intervals in sorted(fifo_intervals.items()):
                events: dict[int, int] = defaultdict(int)
                for enter, leave in intervals:
                    if leave > enter:  # waits [enter, leave)
                        events[enter] += 1
                        events[leave] -= 1
                depth = 0
                peak = 0
                for t in sorted(events):
                    depth += events[t]
                    peak = max(peak, depth)
                if peak > 0:
                    fifo_peaks.append((channel, pe, peak))
                max_occupancy[channel] = max(max_occupancy[channel], peak)

        if tracer.enabled:
            # Link-utilization histogram: tokens-per-link distribution,
            # aggregated over time (how hot is the hottest wire?).
            per_link: dict[tuple, int] = defaultdict(int)
            for (i, src_pe, dst_pe, _t), consumers in link_use.items():
                per_link[(i, src_pe, dst_pe)] += len(consumers)
            histogram: dict[str, int] = defaultdict(int)
            for tokens in per_link.values():
                histogram[str(tokens)] += 1
            tracer.event(
                "sim.link_utilization",
                links=len(per_link),
                max_tokens_per_link=max(per_link.values(), default=0),
                histogram=dict(histogram),
            )

        # -- functional execution ------------------------------------------
        values: dict | None = None
        if functional:
            with tracer.span("sim.execute"):
                values = {}
                for j in sorted(schedule_of, key=lambda p: (schedule_of[p], p)):
                    operands = []
                    for i, d in enumerate(deps):
                        src = tuple(a - b for a, b in zip(j, d))
                        if src in values:
                            operands.append(values[src])
                        elif algorithm.inputs is not None:
                            operands.append(algorithm.inputs(j, i))
                        else:
                            operands.append(None)
                    values[j] = algorithm.compute(j, operands)

        start = min(times)
        finish = max(times)
        makespan = finish - start + 1
        busy = sum(1 for points in placement.values() if points)
        utilization = busy / (array.num_processors * makespan)
        root.set(
            makespan=makespan,
            processors=array.num_processors,
            ok=not (conflicts or collisions or latency),
        )

    return SimulationReport(
        start_time=start,
        finish_time=finish,
        makespan=makespan,
        num_computations=len(schedule_of),
        num_processors=array.num_processors,
        conflicts=conflicts,
        link_collisions=collisions,
        latency_violations=tuple(latency),
        max_buffer_occupancy=tuple(max_occupancy),
        fifo_peaks=tuple(fifo_peaks),
        values=values,
        array=array,
        plan=plan,
        utilization=utilization,
    )


_ = field  # grouped dataclass import for linters
