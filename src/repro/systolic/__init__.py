"""Processor-array substrate: interconnects, simulation, verification.

The paper's target machines (bit-level arrays like GAPP/DAP/MPP and
custom systolic designs) are simulated here: interconnection planning
(``S D = P K`` under Equation 2.3), a cycle-accurate executor that
detects computational conflicts, link collisions and latency
violations behaviorally, functional semantics checking, and ASCII
renderings of Figures 1-3.
"""

from .. import _lazy

__all__, __getattr__, __dir__ = _lazy.exports(__name__, globals(), {
    ".array": ("Link", "ProcessorArray", "build_array"),
    ".cost": (
        "ArrayCost", "evaluate_cost", "evaluate_costs", "processor_count", "wire_length",
    ),
    ".netlist": ("Cell", "Net", "Netlist", "build_netlist"),
    ".trace": ("ExecutionTrace", "TraceEvent", "derive_trace"),
    ".io_schedule": (
        "IOEvent", "IOSchedule", "derive_io_schedule", "render_injection_profile",
    ),
    ".interconnect": (
        "InterconnectionPlan", "RoutingError", "nearest_neighbor_primitives",
        "plan_interconnection",
    ),
    ".semantics": (
        "extract_convolution_result", "extract_lu_result", "extract_matmul_result",
        "reference_transitive_closure", "verify_convolution", "verify_lu", "verify_matmul",
    ),
    ".simulator": (
        "ComputationalConflict", "LatencyViolation", "LinkCollision", "SimulationReport",
        "simulate_mapping",
    ),
    ".visualize": (
        "render_array_2d", "render_array_diagram", "render_index_set_2d",
        "render_space_time",
    ),
})
