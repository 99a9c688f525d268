"""Processor-array substrate: interconnects, simulation, verification.

The paper's target machines (bit-level arrays like GAPP/DAP/MPP and
custom systolic designs) are simulated here: interconnection planning
(``S D = P K`` under Equation 2.3), a cycle-accurate executor that
detects computational conflicts, link collisions and latency
violations behaviorally, functional semantics checking, and ASCII
renderings of Figures 1-3.
"""

from .array import Link, ProcessorArray, build_array
from .cost import ArrayCost, evaluate_cost, evaluate_costs, processor_count, wire_length
from .netlist import Cell, Net, Netlist, build_netlist
from .trace import ExecutionTrace, TraceEvent, derive_trace
from .io_schedule import IOEvent, IOSchedule, derive_io_schedule, render_injection_profile
from .interconnect import (
    InterconnectionPlan,
    RoutingError,
    nearest_neighbor_primitives,
    plan_interconnection,
)
from .semantics import (
    extract_convolution_result,
    extract_lu_result,
    extract_matmul_result,
    reference_transitive_closure,
    verify_convolution,
    verify_lu,
    verify_matmul,
)
from .simulator import (
    ComputationalConflict,
    LatencyViolation,
    LinkCollision,
    SimulationReport,
    simulate_mapping,
)
from .visualize import (
    render_array_2d,
    render_array_diagram,
    render_index_set_2d,
    render_space_time,
)

__all__ = [
    "ArrayCost",
    "Cell",
    "ExecutionTrace",
    "ComputationalConflict",
    "IOEvent",
    "IOSchedule",
    "InterconnectionPlan",
    "LatencyViolation",
    "Link",
    "LinkCollision",
    "Net",
    "Netlist",
    "ProcessorArray",
    "RoutingError",
    "SimulationReport",
    "TraceEvent",
    "build_array",
    "build_netlist",
    "derive_io_schedule",
    "derive_trace",
    "evaluate_cost",
    "evaluate_costs",
    "processor_count",
    "wire_length",
    "extract_convolution_result",
    "extract_lu_result",
    "extract_matmul_result",
    "nearest_neighbor_primitives",
    "plan_interconnection",
    "reference_transitive_closure",
    "render_array_2d",
    "render_array_diagram",
    "render_index_set_2d",
    "render_injection_profile",
    "render_space_time",
    "simulate_mapping",
    "verify_convolution",
    "verify_lu",
    "verify_matmul",
]
