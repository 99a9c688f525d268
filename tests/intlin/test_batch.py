"""Unit tests for the batched candidate-stack operations.

The contract under test: every batch product is bit-identical to the
row-by-row exact computation, and only the rows whose
int64 overflow bound cannot be certified are promoted to the exact
Python-int path — promotion counts are part of the API.
"""

import numpy as np
import pytest

from repro.intlin import (
    INT64_MAX,
    as_intmat,
    batch_dependence_mask,
    batch_matmul,
    batch_rows,
)

BIG = INT64_MAX // 2  # overflows any product bound, still fits int64


def exact_matmul(rows, mat):
    cols = as_intmat(mat).columns()
    return [
        [sum(int(a) * int(b) for a, b in zip(row, col)) for col in cols]
        for row in rows
    ]


class TestBatchRows:
    def test_lists_become_int64(self):
        arr = batch_rows([[1, 2], [3, 4]])
        assert arr.dtype == np.int64
        assert arr.shape == (2, 2)

    def test_oversized_entries_become_object(self):
        arr = batch_rows([[1, 2], [INT64_MAX + 1, 0]])
        assert arr.dtype == object
        assert arr[1][0] == INT64_MAX + 1

    def test_empty_stack(self):
        assert batch_rows([]).shape == (0, 0)

    def test_passes_integer_ndarray_through(self):
        a = np.array([[1, 2]], dtype=np.int64)
        assert batch_rows(a) is a

    def test_rejects_float_dtype(self):
        with pytest.raises(ValueError):
            batch_rows(np.array([[1.5]]))

    def test_rejects_ragged(self):
        with pytest.raises(ValueError):
            batch_rows([[1, 2], [3]])

    def test_rejects_wrong_ndim(self):
        with pytest.raises(ValueError):
            batch_rows(np.array([1, 2, 3]))


class TestBatchMatmul:
    MAT = [[1, 2, 0], [0, -1, 3], [2, 0, 1]]

    def test_fast_path_matches_exact(self):
        rows = [[1, 2, 3], [-4, 0, 5], [0, 0, 0]]
        out, promoted = batch_matmul(rows, self.MAT)
        assert promoted == 0
        assert out.dtype == np.int64
        assert out.tolist() == exact_matmul(rows, self.MAT)

    def test_only_overflowing_rows_promote(self):
        rows = [[1, 2, 3], [BIG, BIG, BIG], [4, 5, 6]]
        out, promoted = batch_matmul(rows, self.MAT)
        assert promoted == 1
        assert out.dtype == object
        assert [list(r) for r in out] == exact_matmul(rows, self.MAT)

    def test_object_input_promotes_every_row(self):
        rows = [[INT64_MAX + 1, 0, 0], [1, 1, 1]]
        out, promoted = batch_matmul(rows, self.MAT)
        assert promoted == 2
        assert [list(r) for r in out] == exact_matmul(rows, self.MAT)

    def test_promotion_boundary_is_sharp(self):
        # Largest certified magnitude vs one past it: same exact values,
        # different backends; the results must agree bit-for-bit.
        mat = as_intmat(self.MAT)
        thr = INT64_MAX // (mat.max_abs() * mat.nrows)
        rows = [[thr, 0, 0], [thr + 1, 0, 0]]
        out, promoted = batch_matmul(rows, self.MAT)
        assert promoted == 1
        assert [list(r) for r in out] == exact_matmul(rows, self.MAT)

    def test_empty_stack(self):
        # An empty list normalizes to shape (0, 0), which cannot name a
        # width; an explicit (0, n) ndarray keeps it.
        out, promoted = batch_matmul(
            np.empty((0, 3), dtype=np.int64), self.MAT
        )
        assert out.shape == (0, 3) and promoted == 0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            batch_matmul([[1, 2]], self.MAT)


class TestBatchMasks:
    D = [[1, 0], [0, 1], [1, 1]]  # columns are dependence vectors

    def test_dependence_mask_matches_scalar_rule(self):
        pis = [[1, 1, 1], [1, -1, 0], [0, 0, 0]]
        mask, promoted = batch_dependence_mask(pis, self.D)
        # Pi D > 0 componentwise: [1,1,1] -> (1,1)+... strictly positive.
        expected = [
            all(s > 0 for s in row) for row in exact_matmul(pis, self.D)
        ]
        assert mask.tolist() == expected
        assert promoted == 0

    def test_dependence_mask_vacuous_without_columns(self):
        mask, _ = batch_dependence_mask(
            [[1, 2]], np.empty((2, 0), dtype=np.int64)
        )
        assert mask.tolist() == [True]
