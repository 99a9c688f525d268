"""Unit tests for repro.ilp.branch_bound."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.ilp import LinearProgram, solve_ilp, solve_lp_relaxation


class TestLPRelaxation:
    def test_simple_lp(self):
        # min x + y  s.t. x + y >= 2, x,y >= 0  -> 2.
        p = LinearProgram.build(
            [1, 1], a_ub=[[-1, -1]], b_ub=[-2], bounds=[(0, None)] * 2
        )
        sol = solve_lp_relaxation(p)
        assert sol.ok
        assert sol.objective == pytest.approx(2.0)

    def test_infeasible(self):
        p = LinearProgram.build(
            [1], a_ub=[[1], [-1]], b_ub=[0, -1], bounds=[(None, None)]
        )
        assert solve_lp_relaxation(p).status == "infeasible"

    def test_unbounded(self):
        p = LinearProgram.build([-1], bounds=[(0, None)])
        assert solve_lp_relaxation(p).status == "unbounded"


class TestBranchBound:
    def test_integer_rounding_needed(self):
        # min -x  s.t. 2x <= 5: LP optimum x=2.5, ILP optimum x=2.
        p = LinearProgram.build([-1], a_ub=[[2]], b_ub=[5], bounds=[(0, None)])
        sol = solve_ilp(p)
        assert sol.ok
        assert sol.x_int() == (2,)
        assert sol.objective == pytest.approx(-2.0)

    def test_knapsack_style(self):
        # max 5a + 4b  s.t. 6a + 4b <= 11, a,b in {0..}: a=1,b=1 -> 9.
        p = LinearProgram.build(
            [-5, -4], a_ub=[[6, 4]], b_ub=[11], bounds=[(0, None)] * 2
        )
        sol = solve_ilp(p)
        assert sol.x_int() == (1, 1)
        assert sol.objective == pytest.approx(-9.0)

    def test_equality_constrained(self):
        # min x + y  s.t. x + 2y == 7, x,y >= 0 integer: (1,3) -> 4.
        p = LinearProgram.build(
            [1, 1], a_eq=[[1, 2]], b_eq=[7], bounds=[(0, None)] * 2
        )
        sol = solve_ilp(p)
        assert sol.ok
        x, y = sol.x_int()
        assert x + 2 * y == 7
        assert x + y == 4

    def test_integer_infeasible_but_lp_feasible(self):
        # 2x == 1 has LP solution 0.5 but no integer solution.
        p = LinearProgram.build([1], a_eq=[[2]], b_eq=[1], bounds=[(0, None)])
        assert solve_ilp(p).status == "infeasible"

    def test_lp_infeasible(self):
        p = LinearProgram.build(
            [1], a_ub=[[1], [-1]], b_ub=[0, -1], bounds=[(None, None)]
        )
        assert solve_ilp(p).status == "infeasible"

    def test_unbounded_root(self):
        p = LinearProgram.build([-1], bounds=[(0, None)])
        assert solve_ilp(p).status == "unbounded"

    def test_already_integral_root(self):
        p = LinearProgram.build(
            [1, 1], a_ub=[[-1, 0], [0, -1]], b_ub=[-1, -2], bounds=[(0, None)] * 2
        )
        sol = solve_ilp(p)
        assert sol.x_int() == (1, 2)
        assert sol.nodes >= 1

    def test_mixed_integer(self):
        # y continuous: min -x - y s.t. x + y <= 2.5, x integer.
        p = LinearProgram.build(
            [-1, -1],
            a_ub=[[1, 1]],
            b_ub=[2.5],
            bounds=[(0, None), (0, None)],
            integer=[True, False],
        )
        sol = solve_ilp(p)
        assert sol.ok
        assert sol.objective == pytest.approx(-2.5)
        assert float(sol.x[0]).is_integer()

    def test_node_budget_enforced(self):
        # A problem needing branching with budget 0 nodes must raise.
        p = LinearProgram.build([-1], a_ub=[[2]], b_ub=[5], bounds=[(0, None)])
        with pytest.raises(RuntimeError, match="node budget"):
            solve_ilp(p, max_nodes=0)

    def test_paper_scale_problem(self):
        """The matmul formulation subproblem I at mu = 4 (Eq 8.1)."""
        mu = 4
        p = LinearProgram.build(
            [mu, mu, mu],
            a_ub=[[0, -1, -1]],
            b_ub=[-(mu + 1)],
            bounds=[(1, None)] * 3,
        )
        sol = solve_ilp(p)
        assert sol.ok
        pi = sol.x_int()
        assert pi[1] + pi[2] >= mu + 1
        assert sol.objective == pytest.approx(mu * (1 + mu + 1))

    def test_negative_variables_allowed(self):
        p = LinearProgram.build(
            [1], a_ub=[[-1]], b_ub=[3], bounds=[(None, None)]
        )
        sol = solve_ilp(p)
        assert sol.ok
        assert sol.x_int() == (-3,)


class TestLazyScipy:
    def test_entry_points_do_not_import_scipy(self):
        """scipy loads on the first LP solve, not on import."""
        src = Path(__file__).resolve().parents[2] / "src"
        code = (
            "import sys\n"
            "import repro, repro.cli, repro.dse.executor, repro.serve.server\n"
            "print('scipy' in sys.modules)\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True, text=True, check=True,
        )
        assert out.stdout.strip() == "False"
