"""Symbolic design compiler: solve once in ``mu``, serve any size.

Public surface:

* :class:`RationalPoly` — exact rational polynomials in ``mu``.
* :class:`AlgorithmFamily` / :func:`family_from_algorithm` — algorithms
  parameterized by one uniform size.
* :func:`compile_schedule` / :func:`compile_space` /
  :func:`compile_joint` — run the enumerative engine at sample sizes
  and certify piecewise-polynomial optima over a range.
* :class:`SymbolicSolution` — the compiled artifact; ``eval(mu)``
  answers a concrete size in O(1), or ``None`` outside the certificate.
* :func:`load_or_compile` — cache-backed compile keyed by the canonical
  digest of the compile parameters.
"""

from .. import _lazy

__all__, __getattr__, __dir__ = _lazy.exports(__name__, globals(), {
    ".compiler": (
        "DEFAULT_INTERIOR_SAMPLES", "DEFAULT_MAX_DEGREE", "DEFAULT_MU_RANGE",
        "AlgorithmFamily", "CompileError", "compile_joint", "compile_schedule",
        "compile_space", "family_from_algorithm", "joint_compile_params", "load_or_compile",
        "schedule_compile_params", "solution_cache_key", "space_compile_params",
    ),
    ".poly": ("RationalPoly", "fit_polynomial", "poly_from_samples"),
    ".solution": ("SymbolicAnswer", "SymbolicSolution", "ValidityInterval"),
})
