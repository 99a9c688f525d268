"""The paper's primary contribution: conflict-free time-optimal mappings.

Mapping matrices (Definition 2.2), conflict vectors and exact deciders
(Sections 2-3), the Hermite-form conditions of Section 4, Procedure 5.1
and the integer-programming formulations of Section 5, plus the
published baselines and Proposition 8.1.
"""

from .baselines import (
    BaselineMapping,
    matmul_baseline_ref23,
    matmul_optimal_paper,
    transitive_closure_baseline_ref22,
    transitive_closure_optimal_paper,
)
from .certificates import (
    OptimalityCertificate,
    Refutation,
    certify_optimality,
    verify_certificate,
)
from .conditions import (
    ConditionVerdict,
    check_conflict_free,
    sign_pattern_condition,
    subset_sign_pattern_condition,
    theorem_3_1,
    theorem_4_3,
    theorem_4_4,
    theorem_4_5,
    theorem_4_6,
    theorem_4_7,
    theorem_4_8,
)
from .bitlevel import (
    Formulation56Verdict,
    check_formulation_5_6,
    solve_bitlevel_formulation,
)
from .conflict import (
    ConflictAnalysis,
    analyze_conflicts,
    conflict_generators,
    conflict_margin,
    conflict_vector_corank1,
    conflict_vector_via_adjugate,
    distinct_image_count,
    find_conflict_witness,
    is_conflict_free_bruteforce,
    is_conflict_free_bruteforce_vectorized,
    is_conflict_free_kernel_box,
    is_feasible_conflict_vector,
)
from .free_schedule import (
    FreeScheduleResult,
    conflict_penalty,
    optimal_free_schedule,
)
from .ilp_formulation import (
    ILPMappingResult,
    build_corank1_subproblems,
    conflict_functional_rows,
    solve_corank1_optimal,
)
from .mapping import MappingError, MappingMatrix
from .optimize import (
    SearchResult,
    enumerate_schedule_vectors,
    find_all_optima,
    procedure_5_1,
)
from .pipeline import MappingResult, find_time_optimal_mapping
from .prop81 import Prop81Result, prop81_applicable, prop81_columns
from .space_optimize import (
    SpaceDesign,
    SpaceOptimizationResult,
    enumerate_space_mappings,
    enumerate_space_rows,
    joint_objective,
    pareto_frontier,
    search_designs,
    solve_joint_optimal,
    solve_space_optimal,
)
from .schedule import (
    LinearSchedule,
    objective_f,
    total_execution_time,
    validate_schedule,
)

__all__ = [
    "BaselineMapping",
    "ConditionVerdict",
    "ConflictAnalysis",
    "Formulation56Verdict",
    "FreeScheduleResult",
    "OptimalityCertificate",
    "Refutation",
    "ILPMappingResult",
    "LinearSchedule",
    "MappingError",
    "MappingMatrix",
    "MappingResult",
    "Prop81Result",
    "SearchResult",
    "SpaceDesign",
    "SpaceOptimizationResult",
    "analyze_conflicts",
    "build_corank1_subproblems",
    "certify_optimality",
    "check_conflict_free",
    "conflict_penalty",
    "check_formulation_5_6",
    "conflict_functional_rows",
    "conflict_generators",
    "conflict_margin",
    "conflict_vector_corank1",
    "conflict_vector_via_adjugate",
    "distinct_image_count",
    "enumerate_schedule_vectors",
    "enumerate_space_mappings",
    "enumerate_space_rows",
    "find_all_optima",
    "find_conflict_witness",
    "find_time_optimal_mapping",
    "is_conflict_free_bruteforce",
    "is_conflict_free_bruteforce_vectorized",
    "is_conflict_free_kernel_box",
    "is_feasible_conflict_vector",
    "joint_objective",
    "matmul_baseline_ref23",
    "matmul_optimal_paper",
    "objective_f",
    "optimal_free_schedule",
    "pareto_frontier",
    "search_designs",
    "procedure_5_1",
    "prop81_applicable",
    "prop81_columns",
    "sign_pattern_condition",
    "subset_sign_pattern_condition",
    "solve_bitlevel_formulation",
    "solve_corank1_optimal",
    "solve_joint_optimal",
    "solve_space_optimal",
    "theorem_3_1",
    "theorem_4_3",
    "theorem_4_4",
    "theorem_4_5",
    "theorem_4_6",
    "theorem_4_7",
    "theorem_4_8",
    "total_execution_time",
    "transitive_closure_baseline_ref22",
    "transitive_closure_optimal_paper",
    "validate_schedule",
    "verify_certificate",
]
