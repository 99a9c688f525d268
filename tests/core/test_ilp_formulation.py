"""Unit tests for repro.core.ilp_formulation (Section 5 formulations)."""

import pytest

from repro.core import (
    MappingMatrix,
    build_corank1_subproblems,
    conflict_vector_corank1,
    procedure_5_1,
    solve_corank1_optimal,
)
from repro.core.conflict import adjugate_conflict_matrix
from repro.intlin import normalize_primitive
from repro.model import convolution_1d, matrix_multiplication, transitive_closure


class TestFunctionalRows:
    """Proposition 3.2's functionals ``f_i``: the rows of ``M`` transposed."""

    def test_equation_3_5(self):
        """S = [1,1,-1]: gamma = +-(pi2+pi3, -(pi1+pi3), -(pi1-pi2))."""
        rows = adjugate_conflict_matrix([[1, 1, -1]], 3).transpose()
        assert rows.rows() == [[0, 1, 1], [-1, 0, -1], [-1, 1, 0]]
        # Evaluate at several Pi and compare with the normalized kernel.
        for pi in [(1, 4, 1), (2, 1, 4), (3, 1, 1)]:
            f_vals = [sum(c * p for c, p in zip(row, pi)) for row in rows]
            t = MappingMatrix(space=((1, 1, -1),), schedule=pi)
            gamma = conflict_vector_corank1(t)
            assert normalize_primitive(f_vals) == gamma

    def test_equation_3_7(self):
        """S = [0,0,1]: gamma proportional to (pi2, -pi1, 0)."""
        rows = adjugate_conflict_matrix([[0, 0, 1]], 3).transpose()
        for pi in [(5, 1, 1), (9, 1, 1), (7, 3, 2)]:
            f_vals = [sum(c * p for c, p in zip(row, pi)) for row in rows]
            expected = normalize_primitive([pi[1], -pi[0], 0])
            assert normalize_primitive(f_vals) == expected

    def test_linearity(self):
        """Proposition 3.2: each f_i is linear in Pi."""
        rows = adjugate_conflict_matrix([[1, 1, -1]], 3).transpose()
        pi_a, pi_b = (1, 2, 3), (4, 5, 6)
        for row in rows:
            fa = sum(c * p for c, p in zip(row, pi_a))
            fb = sum(c * p for c, p in zip(row, pi_b))
            fab = sum(c * (a + b) for c, a, b in zip(row, pi_a, pi_b))
            assert fab == fa + fb

    def test_kernel_identity(self):
        """T . f(Pi) == 0 for every Pi (f is the kernel direction)."""
        rows = adjugate_conflict_matrix([[1, 1, -1]], 3).transpose()
        for pi in [(1, 4, 1), (10, -3, 7)]:
            f_vals = [sum(c * p for c, p in zip(row, pi)) for row in rows]
            t = MappingMatrix(space=((1, 1, -1),), schedule=pi)
            from repro.intlin import matvec

            assert matvec(t.rows(), f_vals) == [0, 0]

    def test_wrong_space_shape_rejected(self):
        with pytest.raises(ValueError, match="needs 1 space rows, got 2"):
            adjugate_conflict_matrix([[1, 1, -1], [0, 1, 0]], 3)


class TestSubproblems:
    def test_matmul_partition_size(self, matmul4):
        subs = build_corank1_subproblems(matmul4, [[1, 1, -1]])
        # n = 3 functionals, all non-zero, two signs each.
        assert len(subs) == 6

    def test_tc_partition_drops_zero_functional(self, tc4):
        # f_3 is identically zero for S = [0,0,1] (Eq 3.7).
        subs = build_corank1_subproblems(tc4, [[0, 0, 1]])
        assert len(subs) == 4

    def test_auto_orthant_positive_for_matmul(self, matmul4):
        subs = build_corank1_subproblems(matmul4, [[1, 1, -1]])
        assert all(info["encoding"] == "positive" for _p, info in subs)

    def test_auto_orthant_split_when_units_missing(self):
        algo = convolution_1d(3, 8)
        subs = build_corank1_subproblems(algo, [])
        # convolution's D lacks unit vector coverage of... actually it
        # has (0,1) and (1,0); with n=2, S has 0 rows.  Units present:
        # positive encoding chosen.
        assert all(info["encoding"] == "positive" for _p, info in subs)

    def test_split_encoding_requested(self, matmul4):
        subs = build_corank1_subproblems(matmul4, [[1, 1, -1]], orthant="split")
        prog, info = subs[0]
        assert info["encoding"] == "split"
        assert prog.num_vars == 6

    def test_bad_orthant_rejected(self, matmul4):
        with pytest.raises(ValueError):
            build_corank1_subproblems(matmul4, [[1, 1, -1]], orthant="diagonal")

    def test_programs_have_dependence_rows(self, matmul4):
        subs = build_corank1_subproblems(matmul4, [[1, 1, -1]])
        prog, _ = subs[0]
        # 3 dependence rows + 1 disjunct row.
        assert prog.a_ub.shape == (4, 3)


class TestSolve:
    def test_example_5_1(self, matmul4):
        res = solve_corank1_optimal(matmul4, [[1, 1, -1]])
        assert res.found
        assert res.schedule.pi in ((1, 4, 1), (4, 1, 1))
        assert res.total_time == 25

    def test_example_5_1_gcd_rejection_happens(self, matmul4):
        """The appendix's Pi_1 = [1,1,mu] must be found and rejected."""
        res = solve_corank1_optimal(matmul4, [[1, 1, -1]])
        assert res.rejected_by_gcd >= 1

    def test_example_5_2(self, tc4):
        res = solve_corank1_optimal(tc4, [[0, 0, 1]])
        assert res.schedule.pi == (5, 1, 1)
        assert res.total_time == 29

    def test_branch_bound_solver_agrees(self, matmul4):
        v = solve_corank1_optimal(matmul4, [[1, 1, -1]], solver="vertices")
        b = solve_corank1_optimal(matmul4, [[1, 1, -1]], solver="branch-bound")
        assert v.total_time == b.total_time

    def test_unknown_solver_rejected(self, matmul4):
        with pytest.raises(ValueError):
            solve_corank1_optimal(matmul4, [[1, 1, -1]], solver="oracle")

    def test_agrees_with_procedure_5_1_across_mu(self):
        for mu in (2, 3, 5, 6):
            algo = matrix_multiplication(mu)
            ilp = solve_corank1_optimal(algo, [[1, 1, -1]])
            search = procedure_5_1(algo, [[1, 1, -1]])
            assert ilp.total_time == search.total_time, f"mu={mu}"

    def test_agrees_on_tc_across_mu(self):
        for mu in (2, 3, 5):
            algo = transitive_closure(mu)
            ilp = solve_corank1_optimal(algo, [[0, 0, 1]])
            search = procedure_5_1(algo, [[0, 0, 1]])
            assert ilp.total_time == search.total_time, f"mu={mu}"

    def test_split_encoding_same_optimum(self, matmul4):
        pos = solve_corank1_optimal(matmul4, [[1, 1, -1]], orthant="positive")
        split = solve_corank1_optimal(matmul4, [[1, 1, -1]], orthant="split")
        assert pos.total_time == split.total_time

    def test_result_mapping_conflict_free(self, matmul4):
        from repro.core import is_conflict_free_kernel_box

        res = solve_corank1_optimal(matmul4, [[1, 1, -1]])
        assert is_conflict_free_kernel_box(res.mapping, matmul4.mu)

    def test_counters_populated(self, matmul4):
        res = solve_corank1_optimal(matmul4, [[1, 1, -1]])
        assert res.subproblems == 6
        assert res.candidates_checked >= 1
