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


from .batch import (
    batch_dependence_mask,
    batch_matmul,
    batch_rows,
)
from .diophantine import DiophantineSolution, solve_diophantine
from .gcdutil import (
    bezout_row,
    extended_gcd,
    gcd_list,
    is_primitive,
    lcm_list,
    normalize_primitive,
    primitive_part,
)
from .hermite import (
    HermiteResult,
    hermite_normal_form,
    hnf,
    hnf_cached,
    kernel_basis,
    verify_hermite,
)
from .intmat import INT64_MAX, INT64_MIN, IntMat, IntVec, as_intmat, as_intvec
from .lattice import Lattice
from .reduction import lll_reduce, shortest_vector
from .matrix import (
    adjugate,
    as_int_matrix,
    as_int_vector,
    cofactor,
    det_bareiss,
    identity,
    inverse_unimodular,
    is_integer_matrix,
    matmul,
    matvec,
    minor,
    rank,
    to_array,
    transpose,
)
from .smith import SmithResult, smith_normal_form, smith_normal_form_cached, verify_smith
from .unimodular import is_unimodular, random_full_rank, random_unimodular

__all__ = [
    "INT64_MAX",
    "INT64_MIN",
    "DiophantineSolution",
    "HermiteResult",
    "IntMat",
    "IntVec",
    "Lattice",
    "SmithResult",
    "adjugate",
    "as_int_matrix",
    "as_int_vector",
    "as_intmat",
    "as_intvec",
    "batch_dependence_mask",
    "batch_matmul",
    "batch_rows",
    "bezout_row",
    "cofactor",
    "det_bareiss",
    "extended_gcd",
    "gcd_list",
    "hermite_normal_form",
    "hnf",
    "hnf_cached",
    "identity",
    "inverse_unimodular",
    "is_integer_matrix",
    "is_primitive",
    "is_unimodular",
    "kernel_basis",
    "lcm_list",
    "lll_reduce",
    "matmul",
    "matvec",
    "minor",
    "normalize_primitive",
    "primitive_part",
    "random_full_rank",
    "random_unimodular",
    "rank",
    "shortest_vector",
    "smith_normal_form",
    "smith_normal_form_cached",
    "solve_diophantine",
    "to_array",
    "transpose",
    "verify_hermite",
    "verify_smith",
]

