"""repro — Time-optimal and conflict-free mappings of uniform dependence
algorithms into lower dimensional processor arrays.

A complete reproduction of Shang & Fortes (ICPP 1990 / Purdue TR-EE
90-29).  The package maps ``n``-dimensional uniform dependence
algorithms (nested loops with constant dependence vectors) onto
``(k-1)``-dimensional processor arrays with ``k < n`` such that no two
computations collide in the same processor at the same time, and such
that total execution time is provably minimal.

Quickstart
----------
>>> from repro import matrix_multiplication, find_time_optimal_mapping
>>> algo = matrix_multiplication(4)            # C = A B, 5x5 matrices
>>> result = find_time_optimal_mapping(algo, space=[[1, 1, -1]])
>>> result.schedule.pi, result.total_time
((1, 4, 1), 25)

Sub-packages
------------
``repro.intlin``
    Exact integer linear algebra (HNF, Smith, kernels, diophantine).
``repro.model``
    Index sets, uniform dependence algorithms, the algorithm zoo, and
    a loop-nest front-end.
``repro.core``
    The mapping theory: conflict vectors, the Section-4 theorems,
    Procedure 5.1, the ILP formulations, baselines, Proposition 8.1.
``repro.ilp``
    Branch-and-bound ILP and exact vertex enumeration.
``repro.systolic``
    Cycle-accurate processor-array simulation and visualization.
"""

from . import _lazy

__version__ = "1.0.0"

__all__, __getattr__, __dir__ = _lazy.exports(__name__, globals(), {
    ".core": (
        "LinearSchedule", "MappingMatrix", "MappingResult", "analyze_conflicts",
        "check_conflict_free", "find_time_optimal_mapping", "procedure_5_1",
        "solve_corank1_optimal",
    ),
    ".model": (
        "Access", "ConstantBoundedIndexSet", "LoopNest", "UniformDependenceAlgorithm",
        "bit_level_convolution", "bit_level_matrix_multiplication", "convolution_1d",
        "lu_decomposition", "matrix_multiplication", "transitive_closure",
    ),
    ".systolic": ("plan_interconnection", "simulate_mapping"),
})
__all__.append("__version__")
