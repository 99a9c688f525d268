"""Exact integer linear algebra substrate.

Arbitrary-precision, fraction-free linear algebra over the integers:
gcd machinery, Bareiss determinants, adjugates, Hermite and Smith
normal forms with unimodular multipliers, saturated kernel bases and a
linear diophantine solver.  These are the tools the paper's theory
(Sections 3-4) is phrased in; everything downstream in
:mod:`repro.core` is built on this package.

All matrix-valued results are immutable, hashable :class:`IntMat`
values (see :mod:`repro.intlin.intmat`) carrying a checked int64 fast
path with automatic promotion to arbitrary-precision arithmetic; the
memoized normal-form kernels key directly on the matrix.
"""

from .. import _lazy

__all__, __getattr__, __dir__ = _lazy.exports(__name__, globals(), {
    ".batch": ("batch_dependence_mask", "batch_matmul", "batch_rows"),
    ".diophantine": ("DiophantineSolution", "solve_diophantine"),
    ".gcdutil": (
        "bezout_row", "extended_gcd", "gcd_list", "is_primitive", "lcm_list",
        "normalize_primitive", "primitive_part",
    ),
    ".hermite": (
        "HermiteResult", "hermite_normal_form", "hnf", "hnf_cached", "kernel_basis",
        "verify_hermite",
    ),
    ".intmat": ("INT64_MAX", "INT64_MIN", "IntMat", "IntVec", "as_intmat", "as_intvec"),
    ".lattice": ("Lattice",),
    ".reduction": ("lll_reduce", "shortest_vector"),
    ".matrix": (
        "adjugate", "as_int_matrix", "as_int_vector", "cofactor", "det_bareiss", "identity",
        "inverse_unimodular", "is_integer_matrix", "matmul", "matvec", "minor", "rank",
        "to_array", "transpose",
    ),
    ".smith": (
        "SmithResult", "smith_normal_form", "smith_normal_form_cached", "verify_smith",
    ),
    ".unimodular": ("is_unimodular", "random_full_rank", "random_unimodular"),
})
