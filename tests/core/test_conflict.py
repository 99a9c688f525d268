"""Unit tests for repro.core.conflict (Definition 2.3, Theorems 2.2, 3.1, 4.2)."""

import pytest

from repro.core import (
    MappingMatrix,
    analyze_conflicts,
    conflict_generators,
    conflict_margin,
    conflict_vector_corank1,
    find_conflict_witness,
    is_conflict_free_bruteforce,
    is_conflict_free_kernel_box,
    is_feasible_conflict_vector,
)
from repro.intlin import hnf, matvec, normalize_primitive
from repro.model import ConstantBoundedIndexSet


class TestFeasibility:
    """Theorem 2.2."""

    def test_feasible_when_entry_exceeds(self):
        assert is_feasible_conflict_vector((3, 5), (4, 4))

    def test_non_feasible_inside_box(self):
        assert not is_feasible_conflict_vector((1, 1), (4, 4))

    def test_boundary_is_not_feasible(self):
        # |gamma_i| == mu_i still connects points (strict inequality).
        assert not is_feasible_conflict_vector((4, -4), (4, 4))

    def test_negative_entries(self):
        assert is_feasible_conflict_vector((0, -5), (4, 4))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            is_feasible_conflict_vector((1, 2, 3), (4, 4))

    def test_matches_translation_geometry(self):
        """Feasible iff the index set admits no translation (Thm 2.2)."""
        j = ConstantBoundedIndexSet((3, 2))
        for g1 in range(-4, 5):
            for g2 in range(-4, 5):
                if g1 == 0 and g2 == 0:
                    continue
                assert is_feasible_conflict_vector((g1, g2), j.mu) == (
                    not j.admits_translation((g1, g2))
                )


class TestCorank1Vector:
    """Equation 3.2 / Theorem 3.1."""

    def test_example_3_1_shape(self):
        # gamma = (-pi2-pi3, pi1+pi3, pi1-pi2) up to normalization.
        t = MappingMatrix(space=((1, 1, -1),), schedule=(2, 1, 4))
        gamma = conflict_vector_corank1(t)
        expected = normalize_primitive([-(1 + 4), 2 + 4, 2 - 1])
        assert gamma == expected

    def test_example_3_2_shape(self):
        # S = [0,0,1]: gamma = (pi2, -pi1, 0).
        t = MappingMatrix(space=((0, 0, 1),), schedule=(5, 1, 1))
        assert conflict_vector_corank1(t) == normalize_primitive([1, -5, 0])

    def test_in_kernel(self):
        t = MappingMatrix(space=((1, 1, -1),), schedule=(1, 4, 1))
        gamma = conflict_vector_corank1(t)
        assert matvec(t.rows(), gamma) == [0, 0]

    def test_normalization_convention(self):
        t = MappingMatrix(space=((1, 1, -1),), schedule=(1, 4, 1))
        gamma = conflict_vector_corank1(t)
        first_nonzero = next(x for x in gamma if x != 0)
        assert first_nonzero > 0
        from repro.intlin import gcd_list

        assert gcd_list(gamma) == 1

    def test_wrong_corank_rejected(self):
        t = MappingMatrix(space=(), schedule=(1, 2, 3))  # co-rank 2
        with pytest.raises(ValueError):
            conflict_vector_corank1(t)

    def test_adjugate_construction_agrees(self, rng):
        """Equation 3.2's cofactor form vs the HNF kernel — must match."""
        from repro.intlin import random_full_rank

        for _ in range(25):
            rows = random_full_rank(3, 4, rng=rng)
            t = MappingMatrix.from_rows(rows)
            [column] = hnf(t.matrix).kernel_columns()
            assert conflict_vector_corank1(t) == normalize_primitive(column)

    def test_adjugate_with_singular_leading_block(self):
        """A rank-deficient T has gamma = 0: rejected cleanly."""
        t = MappingMatrix.from_rows([[0, 0, 1], [0, 0, 2]])
        with pytest.raises(ValueError, match="full row rank"):
            conflict_vector_corank1(t)

    def test_adjugate_singular_but_full_rank(self):
        # First two columns dependent but T full rank: the cofactor
        # expansion needs no non-singular leading block.
        t = MappingMatrix.from_rows([[1, 2, 0], [2, 4, 1]])
        gamma = conflict_vector_corank1(t)
        assert matvec(t.rows(), gamma) == [0, 0]
        [column] = hnf(t.matrix).kernel_columns()
        assert gamma == normalize_primitive(column)


class TestGenerators:
    """Theorem 4.2: HNF kernel columns generate all conflict vectors."""

    def test_example_4_2(self, paper_T_example21):
        gens = conflict_generators(paper_T_example21)
        assert len(gens) == 2
        for g in gens:
            assert matvec(paper_T_example21.rows(), g) == [0, 0]

    def test_trap_vector_is_integral_combination(self, paper_T_example21):
        """[1,0,-1,0] must be an integral combo of the generators."""
        from repro.intlin import solve_diophantine

        gens = conflict_generators(paper_T_example21)
        mat = [[col[i] for col in gens] for i in range(4)]
        assert solve_diophantine(mat, [1, 0, -1, 0]) is not None

    def test_square_mapping_no_generators(self):
        t = MappingMatrix(space=((1, 0),), schedule=(0, 1))
        assert conflict_generators(t) == []


class TestExactDeciders:
    def test_example_2_1_not_free(self, paper_T_example21):
        j = ConstantBoundedIndexSet((6, 6, 6, 6))
        assert not is_conflict_free_kernel_box(paper_T_example21, j.mu)
        assert not is_conflict_free_bruteforce(paper_T_example21, j)

    def test_example_5_1_free(self, matmul4):
        t = MappingMatrix(space=((1, 1, -1),), schedule=(1, 4, 1))
        assert is_conflict_free_kernel_box(t, matmul4.mu)
        assert is_conflict_free_bruteforce(t, matmul4.index_set)

    def test_example_5_1_baseline_free(self, matmul4):
        t = MappingMatrix(space=((1, 1, -1),), schedule=(2, 1, 4))
        assert is_conflict_free_kernel_box(t, matmul4.mu)

    def test_known_conflicted_schedule(self, matmul4):
        # Pi = [1,1,4]: conflict vector normalizes to [1,-1,0] (the
        # appendix's rejected extreme point).
        t = MappingMatrix(space=((1, 1, -1),), schedule=(1, 1, 4))
        assert not is_conflict_free_kernel_box(t, matmul4.mu)
        assert not is_conflict_free_bruteforce(t, matmul4.index_set)

    def test_deciders_agree_on_random_mappings(self, rng):
        from repro.intlin import random_full_rank

        j = ConstantBoundedIndexSet((3, 3, 3))
        for _ in range(30):
            rows = random_full_rank(2, 3, rng=rng, magnitude=4)
            t = MappingMatrix.from_rows(rows)
            assert is_conflict_free_kernel_box(t, j.mu) == is_conflict_free_bruteforce(
                t, j
            )

    def test_deciders_agree_corank2(self, rng):
        from repro.intlin import random_full_rank

        j = ConstantBoundedIndexSet((2, 2, 2, 2))
        for _ in range(15):
            rows = random_full_rank(2, 4, rng=rng, magnitude=3)
            t = MappingMatrix.from_rows(rows)
            assert is_conflict_free_kernel_box(t, j.mu) == is_conflict_free_bruteforce(
                t, j
            )

    def test_mu_argument_validation(self, paper_T_example21):
        with pytest.raises(ValueError):
            is_conflict_free_kernel_box(paper_T_example21, (6, 6))
        with pytest.raises(ValueError):
            is_conflict_free_kernel_box(paper_T_example21)

    def test_index_set_argument(self, paper_T_example21):
        j = ConstantBoundedIndexSet((6, 6, 6, 6))
        assert is_conflict_free_kernel_box(paper_T_example21, index_set=j) is False

    def test_square_full_rank_always_free(self):
        t = MappingMatrix(space=((1, 0),), schedule=(0, 1))
        assert is_conflict_free_kernel_box(t, (100, 100))


class TestWitness:
    def test_witness_collides(self, paper_T_example21):
        j = ConstantBoundedIndexSet((6, 6, 6, 6))
        w = find_conflict_witness(paper_T_example21, j)
        assert w is not None
        j1, j2 = w
        assert j1 != j2
        assert j1 in j and j2 in j
        assert paper_T_example21.tau(j1) == paper_T_example21.tau(j2)

    def test_no_witness_when_free(self, matmul4):
        t = MappingMatrix(space=((1, 1, -1),), schedule=(1, 4, 1))
        assert find_conflict_witness(t, matmul4.index_set) is None

    def test_no_witness_square(self):
        t = MappingMatrix(space=((1, 0),), schedule=(0, 1))
        assert find_conflict_witness(t, ConstantBoundedIndexSet((3, 3))) is None

    def test_witness_whenever_decider_says_conflicted(self):
        """Regression: the witness search enumerates exactly the set the
        kernel-box decider checks, so ``not free`` always yields a pair."""
        cases = [
            (((1, 1, -1),), (1, 1, 4), (4, 4, 4)),
            (((1, 1, -1),), (1, 1, 3), (3, 3, 3)),
            (((0, 0, 1),), (2, 2, 1), (4, 4, 4)),
            (((1, 2, 0),), (0, 0, 1), (2, 2, 2)),
        ]
        for space, pi, mu in cases:
            t = MappingMatrix(space=space, schedule=pi)
            j = ConstantBoundedIndexSet(mu)
            free = is_conflict_free_kernel_box(t, mu)
            w = find_conflict_witness(t, j)
            assert free == (w is None), (space, pi, mu)
            if w is not None:
                j1, j2 = w
                assert j1 != j2 and j1 in j and j2 in j
                assert t.tau(j1) == t.tau(j2)


class TestConflictMargin:
    def test_rejects_zero_mu_entry(self):
        t = MappingMatrix(space=((1, 1, -1),), schedule=(1, 4, 1))
        with pytest.raises(ValueError, match="positive"):
            conflict_margin(t, (4, 0, 4))

    def test_rejects_negative_mu_entry(self):
        t = MappingMatrix(space=((1, 1, -1),), schedule=(1, 4, 1))
        with pytest.raises(ValueError, match="positive"):
            conflict_margin(t, (4, -1, 4))

    def test_positive_mu_still_works(self):
        from fractions import Fraction

        t = MappingMatrix(space=((1, 1, -1),), schedule=(1, 4, 1))
        assert conflict_margin(t, (4, 4, 4)) == Fraction(5, 4)


class TestAnalyze:
    def test_full_analysis_conflicted(self, paper_T_example21):
        j = ConstantBoundedIndexSet((6, 6, 6, 6))
        a = analyze_conflicts(paper_T_example21, j)
        assert not a.conflict_free
        assert a.witness is not None
        assert len(a.generators) == 2
        assert len(a.generator_feasible) == 2

    def test_full_analysis_free(self, matmul4):
        t = MappingMatrix(space=((1, 1, -1),), schedule=(1, 4, 1))
        a = analyze_conflicts(t, matmul4.index_set)
        assert a.conflict_free
        assert a.witness is None
        assert all(a.generator_feasible)


class TestVectorizedBruteforce:
    """The NumPy-vectorized referee must agree with the scalar one."""

    def test_agrees_on_paper_examples(self, matmul4, paper_T_example21):
        from repro.core import is_conflict_free_bruteforce_vectorized
        from repro.model import ConstantBoundedIndexSet

        t_good = MappingMatrix(space=((1, 1, -1),), schedule=(1, 4, 1))
        assert is_conflict_free_bruteforce_vectorized(t_good, matmul4.index_set)
        j4 = ConstantBoundedIndexSet((6, 6, 6, 6))
        assert not is_conflict_free_bruteforce_vectorized(paper_T_example21, j4)

    def test_agrees_on_random_mappings(self, rng):
        from repro.core import is_conflict_free_bruteforce_vectorized
        from repro.intlin import random_full_rank
        from repro.model import ConstantBoundedIndexSet

        j = ConstantBoundedIndexSet((3, 3, 3))
        for _ in range(30):
            rows = random_full_rank(2, 3, rng=rng, magnitude=4)
            t = MappingMatrix.from_rows(rows)
            assert is_conflict_free_bruteforce_vectorized(t, j) == (
                is_conflict_free_bruteforce(t, j)
            )

    def test_zero_d_mapping(self):
        from repro.core import is_conflict_free_bruteforce_vectorized
        from repro.model import ConstantBoundedIndexSet

        j = ConstantBoundedIndexSet((2, 2))
        injective = MappingMatrix(space=(), schedule=(1, 3))
        collapsing = MappingMatrix(space=(), schedule=(1, 1))
        assert is_conflict_free_bruteforce_vectorized(injective, j)
        assert not is_conflict_free_bruteforce_vectorized(collapsing, j)
