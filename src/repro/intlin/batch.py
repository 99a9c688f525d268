"""Batch operations on stacks of integer candidate vectors.

Procedure 5.1 evaluates thousands of structurally identical candidate
schedule vectors per ring; the space searches judge stacks of candidate
space rows the same way.  This module supplies the vectorized products
those funnels run on, with the same exactness contract as
:class:`~repro.intlin.intmat.IntMat`: every operation certifies an
a-priori int64 overflow bound before vectorizing, and promotes **only
the rows that fail the bound** to exact arbitrary-precision
Python-int arithmetic — never the whole stack.  Results are
bit-identical whichever backend computed each row, and each function
reports how many rows were promoted so the searches can surface the
``fastpath_promotions`` telemetry.

All functions accept either an ``(N, n)`` NumPy array (``int64`` or
``object`` dtype) or a sequence of row sequences, and return NumPy
arrays — ``int64`` when every row was certified, ``object`` dtype
otherwise (exact Python ints in every cell either way).
"""

from __future__ import annotations

from typing import Any

import numpy as np

from .intmat import INT64_MAX, IntMat, as_intmat

__all__ = [
    "batch_rows",
    "batch_matmul",
    "batch_dependence_mask",
]


def batch_rows(vecs: Any) -> np.ndarray:
    """Normalize a stack of integer vectors to an ``(N, n)`` array.

    Entries that fit int64 produce an ``int64`` array; anything larger
    produces an exact ``object``-dtype array of Python ints.  Bool and
    float dtypes are rejected, matching :class:`IntMat`'s entry rules.
    """
    if isinstance(vecs, np.ndarray):
        if vecs.ndim != 2:
            raise ValueError(f"expected a 2-D stack, got ndim={vecs.ndim}")
        if vecs.dtype == object or np.issubdtype(vecs.dtype, np.integer):
            return vecs
        raise ValueError(f"expected integer rows, got dtype {vecs.dtype}")
    rows = [[int(x) for x in row] for row in vecs]
    if rows and any(len(r) != len(rows[0]) for r in rows):
        raise ValueError("ragged row stack")
    big = any(abs(x) > INT64_MAX for r in rows for x in r)
    if big:
        arr = np.empty((len(rows), len(rows[0]) if rows else 0), dtype=object)
        for i, r in enumerate(rows):
            arr[i] = r
        return arr
    width = len(rows[0]) if rows else 0
    return np.array(rows, dtype=np.int64).reshape(len(rows), width)


def _row_threshold(mat: IntMat) -> int:
    """Largest per-row magnitude certified overflow-free against ``mat``.

    A product row ``v @ mat`` is safe when ``max|v| * max|mat| * n``
    stays within int64; computed in Python-int arithmetic so the check
    itself cannot wrap.
    """
    bound = mat.max_abs() * max(1, mat.nrows)
    if bound == 0:
        return INT64_MAX
    return min(INT64_MAX, INT64_MAX // bound)


def _exact_row_product(row: list[int], cols: list) -> list[int]:
    return [sum(a * b for a, b in zip(row, col)) for col in cols]


def batch_matmul(vecs: Any, mat: Any) -> tuple[np.ndarray, int]:
    """``vecs @ mat`` for an ``(N, n)`` row stack, overflow-checked per row.

    Returns ``(product, promoted)`` where ``product`` is the exact
    ``(N, m)`` result and ``promoted`` counts the rows whose int64
    bound could not be certified and were computed over Python ints.
    The fast rows still run vectorized; only the overflowing rows pay
    for exactness.
    """
    mat = as_intmat(mat)
    a = batch_rows(vecs)
    if a.shape[1] != mat.nrows:
        raise ValueError(f"shape mismatch: {a.shape} @ {mat.shape}")
    n_rows = a.shape[0]
    if a.dtype == object or mat.arr is None:
        cols = mat.columns()
        out = np.empty((n_rows, mat.ncols), dtype=object)
        for i in range(n_rows):
            out[i] = _exact_row_product([int(x) for x in a[i]], cols)
        return out, n_rows
    if n_rows == 0:
        return np.empty((0, mat.ncols), dtype=np.int64), 0
    thr = _row_threshold(mat)
    row_max = np.abs(a).max(axis=1, initial=0)
    safe = row_max <= thr
    if bool(safe.all()):
        return a @ mat.arr, 0
    out = np.empty((n_rows, mat.ncols), dtype=object)
    if bool(safe.any()):
        fast = a[safe] @ mat.arr
        out[safe] = fast.astype(object)
    cols = mat.columns()
    promoted_idx = np.nonzero(~safe)[0]
    for i in promoted_idx:
        out[i] = _exact_row_product([int(x) for x in a[i]], cols)
    return out, int(promoted_idx.size)


def batch_dependence_mask(pis: Any, dependence: Any) -> tuple[np.ndarray, int]:
    """Vectorized dependence check ``Pi D > 0`` over a candidate stack.

    Returns ``(mask, promoted)``: ``mask[i]`` is True iff every entry
    of ``pis[i] @ D`` is strictly positive (vacuously True when ``D``
    has no columns, matching the scalar
    :meth:`~repro.core.schedule.LinearSchedule.respects`).
    """
    prod, promoted = batch_matmul(pis, dependence)
    if prod.shape[1] == 0:
        return np.ones(prod.shape[0], dtype=bool), promoted
    return np.asarray((prod > 0).all(axis=1), dtype=bool), promoted
