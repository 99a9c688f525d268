"""Functional verification helpers: simulated results vs direct NumPy.

The simulator executes an algorithm's attached semantics in schedule
order; these helpers extract the mathematical result from the per-point
values and compare it with a straightforward NumPy computation, closing
the loop from "the mapping is conflict-free in theory" to "the mapped
array computes the right matrix".
"""

from __future__ import annotations

import numpy as np

from ..model.algorithm import UniformDependenceAlgorithm

__all__ = [
    "extract_matmul_result",
    "verify_matmul",
    "extract_convolution_result",
    "verify_convolution",
    "reference_transitive_closure",
]


def extract_matmul_result(values: dict, mu: int) -> np.ndarray:
    """Read ``C`` off the matmul value lattice.

    The accumulation runs along ``j3``; the finished ``c[j1, j2]`` is
    the third component of the value at ``(j1, j2, mu)``.
    """
    size = mu + 1
    c = np.empty((size, size), dtype=np.asarray(values[(0, 0, mu)][2]).dtype)
    for j1 in range(size):
        for j2 in range(size):
            c[j1, j2] = values[(j1, j2, mu)][2]
    return c


def verify_matmul(
    values: dict, a: np.ndarray, b: np.ndarray
) -> tuple[bool, np.ndarray, np.ndarray]:
    """Compare the simulated product with ``a @ b``.

    Returns ``(matches, simulated, reference)``.
    """
    mu = a.shape[0] - 1
    simulated = extract_matmul_result(values, mu)
    reference = a @ b
    return bool(np.array_equal(simulated, reference)), simulated, reference


def extract_convolution_result(values: dict, taps: int, samples: int) -> np.ndarray:
    """Read ``y`` off the convolution value lattice (accumulation along k)."""
    y = np.empty(samples + 1, dtype=np.asarray(values[(0, taps)][0]).dtype)
    for i in range(samples + 1):
        y[i] = values[(i, taps)][0]
    return y


def verify_convolution(
    values: dict,
    weights: np.ndarray,
    signal: np.ndarray,
    taps: int,
    samples: int,
) -> tuple[bool, np.ndarray, np.ndarray]:
    """Compare the simulated convolution against a direct evaluation.

    The algorithm computes ``y[i] = sum_{k=0..taps} w[k] * x[i - k]``
    with the signal pre-shifted by ``taps`` (see
    :func:`repro.model.library.convolution_1d`).
    """
    w = np.asarray(weights)
    x = np.asarray(signal)
    simulated = extract_convolution_result(values, taps, samples)
    reference = np.array(
        [
            sum(w[k] * x[i - k + taps] for k in range(taps + 1))
            for i in range(samples + 1)
        ]
    )
    return bool(np.array_equal(simulated, reference)), simulated, reference


def extract_lu_result(values: dict, mu: int) -> tuple[list[list], list[list]]:
    """Read ``(L, U)`` off the LU value lattice (exact Fractions).

    The final elimination step is ``k = mu``; the combined matrix at
    ``(mu, i, j)`` holds ``U`` on/above the diagonal and the unit-lower
    ``L`` multipliers strictly below it.
    """
    from fractions import Fraction

    size = mu + 1
    combined = [[values[(mu, i, j)][0] for j in range(size)] for i in range(size)]
    l_mat = [
        [
            combined[i][j] if j < i else (Fraction(1) if i == j else Fraction(0))
            for j in range(size)
        ]
        for i in range(size)
    ]
    u_mat = [
        [combined[i][j] if j >= i else Fraction(0) for j in range(size)]
        for i in range(size)
    ]
    return l_mat, u_mat


def verify_lu(values: dict, a: np.ndarray) -> tuple[bool, list[list], list[list]]:
    """Exact check ``L @ U == A`` over rationals.

    Returns ``(matches, L, U)``; no tolerance is involved — the
    simulated factorization is correct or it is not.
    """
    from fractions import Fraction

    mu = a.shape[0] - 1
    l_mat, u_mat = extract_lu_result(values, mu)
    size = mu + 1
    ok = True
    for i in range(size):
        for j in range(size):
            acc = sum(l_mat[i][p] * u_mat[p][j] for p in range(size))
            if acc != Fraction(int(a[i, j])):
                ok = False
    return ok, l_mat, u_mat


def reference_transitive_closure(adjacency: np.ndarray) -> np.ndarray:
    """Boolean transitive closure by Warshall's algorithm (NumPy).

    The reindexed systolic algorithm of Example 5.2 computes this
    relation; the uniformized dataflow itself carries no attached
    semantics in this reproduction (the mapping theory needs only
    ``(J, D)``), so this reference is used by the examples to show what
    the mapped array would compute.
    """
    a = np.asarray(adjacency, dtype=bool).copy()
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError("adjacency must be square")
    for k in range(n):
        a |= np.outer(a[:, k], a[k, :])
    return a


def functional_fidelity_report(
    algorithm: UniformDependenceAlgorithm, values: dict
) -> dict:
    """Small summary of a functional run: points computed, value types."""
    return {
        "algorithm": algorithm.name,
        "points": len(values),
        "complete": len(values) == len(algorithm.index_set),
    }
