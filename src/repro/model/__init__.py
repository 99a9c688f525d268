"""Algorithm model: index sets, uniform dependence algorithms, zoo, front-end.

Implements Definition 2.1 (uniform dependence algorithms), Assumption
2.1 (constant-bounded index sets, Equation 2.5), the paper's worked
algorithms (matmul, transitive closure, convolution, LU, bit-level
variants) and a loop-nest front-end that extracts ``(J, D)`` from a
single-statement nested loop.
"""

from .. import _lazy

__all__, __getattr__, __dir__ = _lazy.exports(__name__, globals(), {
    ".algorithm": ("DependenceError", "UniformDependenceAlgorithm"),
    ".alignment": ("AlignmentResult", "StatementDependence", "align_statements"),
    ".generators": ("random_algorithm", "random_schedulable_algorithm"),
    ".index_set": ("ConstantBoundedIndexSet",),
    ".library": (
        "bit_level_convolution", "bit_level_lu_decomposition", "convolution_2d",
        "bit_level_matrix_multiplication", "convolution_1d", "example_2_1_algorithm",
        "lu_decomposition", "matrix_multiplication", "stencil_2d", "transitive_closure",
    ),
    ".loopnest": ("Access", "LoopNest", "SubscriptError", "parse_affine"),
    ".validate": (
        "DEFAULT_LIMITS", "SpecBoundsError", "SpecDimensionError", "SpecError",
        "SpecLimits", "SpecShapeError", "SpecSizeError", "validate_algorithm",
        "validate_algorithm_spec", "validate_dependence_matrix", "validate_mu",
        "validate_space", "validate_vector",
    ),
})
