"""Cached == uncached for the memoized normal-form kernels.

The design-space searches call the Hermite and Smith routines on the
same handful of matrices thousands of times; ``hnf_cached`` /
``smith_normal_form_cached`` memoize them keyed directly on the
hashable :class:`IntMat` value.  These tests pin the contracts that
make that safe: identical results on arbitrary inputs, key
equivalence across input spellings (lists, tuples, arrays, IntMat),
and immutability of the shared result objects.
"""

import warnings

import pytest

import repro.intlin as intlin
from repro.intlin import (
    as_intmat,
    hnf,
    hnf_cached,
    random_full_rank,
    smith_normal_form,
    smith_normal_form_cached,
    verify_hermite,
    verify_smith,
)
from repro.intlin.hermite import _hnf_memo
from repro.intlin.smith import _smith_memo


def _random_matrices(rng, count=25):
    for _ in range(count):
        k = rng.randint(1, 4)
        n = rng.randint(k, 5)
        yield random_full_rank(k, n, rng=rng, magnitude=7)


class TestDeprecatedFreezeSurface:
    def test_freeze_shims_are_gone(self):
        for name in ("freeze_matrix", "FrozenIntMatrix"):
            assert not hasattr(intlin, name)
            assert name not in intlin.__all__

    def test_no_other_deprecated_attributes(self):
        with pytest.raises(AttributeError):
            intlin.no_such_symbol


class TestHnfCached:
    def test_equals_uncached_on_random_matrices(self, rng):
        for a in _random_matrices(rng):
            cold = hnf(a)
            cached = hnf_cached(a)
            assert cached == cold
            assert verify_hermite(a, cached)

    def test_canonical_variant_matches(self, rng):
        for a in _random_matrices(rng, count=10):
            assert hnf_cached(a, canonical=True) == hnf(a, canonical=True)

    def test_repeated_calls_hit_the_cache(self):
        _hnf_memo.cache_clear()
        a = [[1, 7, 1, 1], [1, 7, 1, 0]]
        first = hnf_cached(a)
        second = hnf_cached(a)
        assert first == second
        info = _hnf_memo.cache_info()
        assert info.hits >= 1 and info.misses >= 1

    def test_cache_hits_share_the_result_object(self):
        a = [[2, 4], [6, 9]]
        assert hnf_cached(a) is hnf_cached([(2, 4), (6, 9)])
        assert hnf_cached(a) is hnf_cached(as_intmat(a))

    def test_results_are_immutable(self):
        res = hnf_cached([[2, 4], [6, 9]])
        with pytest.raises(TypeError):
            res.h[0][0] = 999
        with pytest.raises(TypeError):
            res.u[0] = (0, 0)


class TestSmithCached:
    def test_equals_uncached_on_random_matrices(self, rng):
        for a in _random_matrices(rng):
            cold = smith_normal_form(a)
            cached = smith_normal_form_cached(a)
            assert cached == cold
            assert verify_smith(a, cached)

    def test_repeated_calls_hit_the_cache(self):
        _smith_memo.cache_clear()
        a = [[2, 0], [0, 6]]
        first = smith_normal_form_cached(a)
        second = smith_normal_form_cached(a)
        assert first == second
        info = _smith_memo.cache_info()
        assert info.hits >= 1 and info.misses >= 1

    def test_cache_hits_share_the_result_object(self):
        a = [[4, 6], [10, 15]]
        assert smith_normal_form_cached(a) is smith_normal_form_cached(
            as_intmat(a)
        )

    def test_results_are_immutable(self):
        res = smith_normal_form_cached([[4, 6], [10, 15]])
        with pytest.raises(TypeError):
            res.d[0][0] = 999
        with pytest.raises(TypeError):
            res.p[0] = (0, 0)


class TestNoWarningsOnModernSurface:
    def test_plain_import_surface_is_warning_free(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            as_intmat([[1, 2], [3, 4]])
            hnf_cached([[1, 0], [0, 1]])
            smith_normal_form_cached([[1, 0], [0, 1]])
