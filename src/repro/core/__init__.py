"""The paper's primary contribution: conflict-free time-optimal mappings.

Mapping matrices (Definition 2.2), conflict vectors and exact deciders
(Sections 2-3), the Hermite-form conditions of Section 4, Procedure 5.1
and the integer-programming formulations of Section 5, plus the
published baselines and Proposition 8.1.
"""

from .. import _lazy

__all__, __getattr__, __dir__ = _lazy.exports(__name__, globals(), {
    ".baselines": (
        "BaselineMapping", "matmul_baseline_ref23", "matmul_optimal_paper",
        "transitive_closure_baseline_ref22", "transitive_closure_optimal_paper",
    ),
    ".certificates": (
        "OptimalityCertificate", "Refutation", "certify_optimality", "verify_certificate",
    ),
    ".conditions": (
        "ConditionVerdict", "check_conflict_free", "sign_pattern_condition",
        "subset_sign_pattern_condition", "theorem_3_1", "theorem_4_3", "theorem_4_4",
        "theorem_4_5", "theorem_4_6", "theorem_4_7", "theorem_4_8",
    ),
    ".bitlevel": (
        "Formulation56Verdict", "check_formulation_5_6", "solve_bitlevel_formulation",
    ),
    ".conflict": (
        "ConflictAnalysis", "analyze_conflicts", "conflict_generators", "conflict_margin",
        "conflict_vector_corank1", "distinct_image_count", "find_conflict_witness",
        "is_conflict_free_bruteforce", "is_conflict_free_bruteforce_vectorized",
        "is_conflict_free_kernel_box", "is_feasible_conflict_vector",
    ),
    ".free_schedule": ("FreeScheduleResult", "conflict_penalty", "optimal_free_schedule"),
    ".ilp_formulation": (
        "ILPMappingResult", "build_corank1_subproblems", "solve_corank1_optimal",
    ),
    ".mapping": ("MappingError", "MappingMatrix"),
    ".optimize": (
        "SearchResult", "enumerate_schedule_vectors", "find_all_optima", "procedure_5_1",
    ),
    ".pipeline": ("MappingResult", "find_time_optimal_mapping"),
    ".prop81": ("Prop81Result", "prop81_applicable", "prop81_columns"),
    ".space_optimize": (
        "SpaceDesign", "SpaceOptimizationResult", "enumerate_space_mappings",
        "enumerate_space_rows", "joint_objective", "pareto_frontier", "search_designs",
        "solve_joint_optimal", "solve_space_optimal",
    ),
    ".schedule": (
        "LinearSchedule", "objective_f", "total_execution_time", "validate_schedule",
    ),
})
