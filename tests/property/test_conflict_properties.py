"""Property-based tests of the conflict theory against exact oracles.

The central quantified claims of the reproduction:

* the kernel-box decider agrees with brute force over all index points;
* Theorem 2.2's algebraic feasibility equals the geometric statement;
* Theorem 3.1 is exactly the truth for co-rank 1;
* the sufficient conditions of Section 4 never produce false positives;
* the necessary conditions never produce false negatives.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    MappingMatrix,
    check_conflict_free,
    conflict_vector_corank1,
    is_conflict_free_bruteforce,
    is_conflict_free_kernel_box,
    is_feasible_conflict_vector,
    theorem_3_1,
    theorem_4_3,
    theorem_4_4,
)
from repro.intlin import hnf, normalize_primitive, rank
from repro.model import ConstantBoundedIndexSet


@st.composite
def mapping_and_mu(draw, k, n, magnitude=4, mu_max=3):
    entries = st.integers(-magnitude, magnitude)
    for _ in range(30):
        rows = draw(
            st.lists(
                st.lists(entries, min_size=n, max_size=n),
                min_size=k,
                max_size=k,
            )
        )
        if rank(rows) == k:
            mu = tuple(
                draw(st.integers(1, mu_max)) for _ in range(n)
            )
            return MappingMatrix.from_rows(rows), mu
    t = [[1 if j == i else 0 for j in range(n)] for i in range(k)]
    return MappingMatrix.from_rows(t), (1,) * n


class TestOracleAgreement:
    @given(mapping_and_mu(k=2, n=3))
    def test_corank1_kernel_box_equals_bruteforce(self, tm):
        t, mu = tm
        j = ConstantBoundedIndexSet(mu)
        assert is_conflict_free_kernel_box(t, mu) == is_conflict_free_bruteforce(t, j)

    @given(mapping_and_mu(k=2, n=4, mu_max=2))
    @settings(max_examples=40)
    def test_corank2_kernel_box_equals_bruteforce(self, tm):
        t, mu = tm
        j = ConstantBoundedIndexSet(mu)
        assert is_conflict_free_kernel_box(t, mu) == is_conflict_free_bruteforce(t, j)

    @given(mapping_and_mu(k=1, n=3, mu_max=2))
    def test_corank2_single_row(self, tm):
        t, mu = tm
        j = ConstantBoundedIndexSet(mu)
        assert is_conflict_free_kernel_box(t, mu) == is_conflict_free_bruteforce(t, j)


class TestTheorem22:
    @given(
        st.lists(st.integers(-6, 6), min_size=3, max_size=3),
        st.lists(st.integers(1, 4), min_size=3, max_size=3),
    )
    def test_algebraic_equals_geometric(self, gamma, mu):
        if all(g == 0 for g in gamma):
            return
        j = ConstantBoundedIndexSet(tuple(mu))
        assert is_feasible_conflict_vector(gamma, mu) == (
            not j.admits_translation(gamma)
        )


class TestTheorem31Exactness:
    @given(mapping_and_mu(k=2, n=3))
    def test_iff_against_oracle(self, tm):
        t, mu = tm
        assert theorem_3_1(t, mu).holds == is_conflict_free_kernel_box(t, mu)

    @given(mapping_and_mu(k=3, n=4, magnitude=3))
    @settings(max_examples=40)
    def test_iff_at_n4(self, tm):
        t, mu = tm
        assert theorem_3_1(t, mu).holds == is_conflict_free_kernel_box(t, mu)

    @given(mapping_and_mu(k=2, n=3))
    def test_adjugate_equals_hnf_route(self, tm):
        t, _mu = tm
        [column] = hnf(t.matrix).kernel_columns()
        assert conflict_vector_corank1(t) == normalize_primitive(column)


class TestNecessaryConditions:
    @given(mapping_and_mu(k=2, n=4, mu_max=2))
    @settings(max_examples=60)
    def test_free_implies_43_and_44(self, tm):
        t, mu = tm
        if is_conflict_free_kernel_box(t, mu):
            assert theorem_4_3(t).holds
            assert theorem_4_4(t, mu).holds


class TestSufficientConditions:
    @given(mapping_and_mu(k=2, n=4, mu_max=2))
    @settings(max_examples=60)
    def test_auto_dispatch_is_exact(self, tm):
        t, mu = tm
        assert check_conflict_free(t, mu).holds == is_conflict_free_kernel_box(t, mu)

    @given(mapping_and_mu(k=2, n=5, magnitude=3, mu_max=2))
    @settings(max_examples=30)
    def test_auto_dispatch_exact_corank3(self, tm):
        t, mu = tm
        assert check_conflict_free(t, mu).holds == is_conflict_free_kernel_box(t, mu)

    @given(mapping_and_mu(k=2, n=4, mu_max=2))
    @settings(max_examples=60)
    def test_paper_47_sufficiency(self, tm):
        """Theorem 4.7 positive implies exact positive (co-rank 2)."""
        t, mu = tm
        from repro.core import theorem_4_7

        if theorem_4_7(t, mu).holds:
            assert is_conflict_free_kernel_box(t, mu)

    @given(mapping_and_mu(k=2, n=4, mu_max=2))
    @settings(max_examples=60)
    def test_45_sufficiency(self, tm):
        t, mu = tm
        from repro.core import theorem_4_5

        if theorem_4_5(t, mu).holds:
            assert is_conflict_free_kernel_box(t, mu)

    @given(mapping_and_mu(k=2, n=4, mu_max=2))
    @settings(max_examples=60)
    def test_46_sufficiency(self, tm):
        t, mu = tm
        from repro.core import theorem_4_6

        if theorem_4_6(t, mu).holds:
            assert is_conflict_free_kernel_box(t, mu)


class TestWitnessSoundness:
    @given(mapping_and_mu(k=2, n=3))
    def test_witness_exists_iff_conflicted(self, tm):
        from repro.core import find_conflict_witness

        t, mu = tm
        j = ConstantBoundedIndexSet(mu)
        w = find_conflict_witness(t, j)
        free = is_conflict_free_kernel_box(t, mu)
        assert (w is None) == free
        if w is not None:
            j1, j2 = w
            assert j1 != j2
            assert t.tau(j1) == t.tau(j2)
            assert j1 in j and j2 in j

    @given(mapping_and_mu(k=1, n=3, mu_max=2))
    @settings(max_examples=40)
    def test_witness_exists_iff_conflicted_corank2(self, tm):
        from repro.core import find_conflict_witness

        t, mu = tm
        j = ConstantBoundedIndexSet(mu)
        w = find_conflict_witness(t, j)
        assert (w is None) == is_conflict_free_kernel_box(t, mu)
        if w is not None:
            j1, j2 = w
            assert j1 != j2
            assert t.tau(j1) == t.tau(j2)
            assert j1 in j and j2 in j
