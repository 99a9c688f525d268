"""Unit tests for repro.core.space_optimize (Problems 6.1 / 6.2)."""

import pytest

from repro.core import (
    enumerate_space_mappings,
    enumerate_space_rows,
    is_conflict_free_kernel_box,
    solve_joint_optimal,
    solve_space_optimal,
)
from repro.dse.executor import explore_joint, explore_space
from repro.model import SpecBoundsError, matrix_multiplication, transitive_closure


class TestEnumeration:
    def test_rows_normalized(self):
        rows = enumerate_space_rows(3, 1)
        # 26 non-zero sign vectors collapse to 13 primitive directions.
        assert len(rows) == 13
        for r in rows:
            first = next(x for x in r if x != 0)
            assert first > 0

    def test_rows_magnitude_2_includes_non_primitive_directions(self):
        rows = enumerate_space_rows(2, 2)
        assert (2, 1) in rows
        assert (1, 2) in rows
        # (2, 2) normalizes to (1, 1): not listed separately.
        assert (2, 2) not in rows

    def test_mappings_full_rank(self):
        for space in enumerate_space_mappings(3, 2, 1):
            from repro.intlin import rank

            assert rank([list(r) for r in space]) == 2

    def test_mappings_count_1d(self):
        assert len(list(enumerate_space_mappings(3, 1, 1))) == 13


class TestProblem61:
    def test_matmul_finds_cheaper_than_paper(self):
        """Given Pi = [1,2,1] (mu=2 optimum), the space search finds a
        5-PE design — cheaper than the paper's 7-PE S = [1,1,-1]."""
        algo = matrix_multiplication(2)
        res = solve_space_optimal(algo, (1, 2, 1))
        assert res.found
        assert res.best.cost.processors == 5
        paper = [d for d in res.ranking if d.mapping.space == ((1, 1, -1),)]
        assert paper and paper[0].cost.processors == 7
        assert res.best.objective < paper[0].objective

    def test_all_ranked_designs_conflict_free(self):
        algo = matrix_multiplication(2)
        res = solve_space_optimal(algo, (1, 2, 1))
        for design in res.ranking:
            assert is_conflict_free_kernel_box(design.mapping, algo.mu)

    def test_invalid_pi_rejected(self):
        algo = matrix_multiplication(2)
        with pytest.raises(ValueError, match="Pi D"):
            solve_space_optimal(algo, (1, 0, 1))

    def test_custom_objective(self):
        algo = matrix_multiplication(2)
        res = solve_space_optimal(
            algo, (1, 2, 1), objective=lambda c: c.buffers
        )
        assert res.found
        # The winner minimizes buffers, not PEs.
        assert res.best.cost.buffers == min(d.cost.buffers for d in res.ranking)

    def test_accounting(self):
        algo = matrix_multiplication(2)
        res = solve_space_optimal(algo, (1, 2, 1))
        assert res.candidates_examined == 13
        assert (
            res.rejected_conflicts
            + res.rejected_routing
            + len([d for d in res.ranking])
            <= res.candidates_examined
        )

    def test_tc_design(self):
        algo = transitive_closure(2)
        res = solve_space_optimal(algo, (3, 1, 1))
        assert res.found
        assert is_conflict_free_kernel_box(res.best.mapping, algo.mu)

    def test_keep_ranking_limit(self):
        algo = matrix_multiplication(2)
        res = solve_space_optimal(algo, (1, 2, 1), keep_ranking=2)
        assert len(res.ranking) <= 2
        assert res.best == res.ranking[0]


class TestProblem61Pins:
    """Matmul with ``Pi = [1, mu, 1]``: rankings and counters, pinned.

    The spaces and their order are the same at every ``mu``; only the
    objectives (processors + wire length) scale.
    """

    SPACES = {
        1: [((0, 1, -1),), ((1, -1, 0),), ((1, -1, -1),), ((1, 1, -1),)],
        2: [
            ((0, 1, 0), (0, 0, 1)), ((1, 0, 0), (0, 0, 1)), ((1, 0, 0), (0, 1, 0)),
            ((0, 1, 0), (0, 1, -1)), ((0, 1, 1), (0, 1, 0)),
            ((1, -1, 0), (0, 1, 0)), ((1, 1, 0), (0, 1, 0)),
            ((1, -1, 0), (0, 0, 1)), ((1, 0, -1), (0, 1, 0)), ((1, 0, 0), (0, 1, -1)),
        ],
    }
    # (enumerated, pruned, conflicts rejected, routing rejected)
    COUNTERS = {1: (13, 0, 9, 0), 2: (78, 6, 0, 54)}
    OBJECTIVES = {
        (4, 1): [25, 25, 49, 49],
        (4, 2): [65] * 3 + [85] * 4 + [161] * 3,
        (10, 1): [61, 61, 121, 121],
        (10, 2): [341] * 3 + [451] * 4 + [881] * 3,
        (50, 1): [301, 301, 601, 601],
        (50, 2): [7701] * 3 + [10251] * 4 + [20401] * 3,
    }

    @pytest.mark.parametrize("array_dim", [1, 2])
    @pytest.mark.parametrize("mu", [4, 10, 50])
    def test_ranking(self, mu, array_dim):
        res = solve_space_optimal(
            matrix_multiplication(mu), (1, mu, 1), array_dim=array_dim
        )
        assert [(d.mapping.space, d.objective) for d in res.ranking] == list(
            zip(self.SPACES[array_dim], self.OBJECTIVES[mu, array_dim])
        )
        stats = res.stats
        assert (
            stats.candidates_enumerated, stats.candidates_pruned,
            stats.conflicts_rejected, stats.routing_rejected,
        ) == self.COUNTERS[array_dim]


class TestProblem62:
    def test_joint_matmul(self):
        algo = matrix_multiplication(2)
        res = solve_joint_optimal(algo)
        assert res.found
        best = res.best
        assert is_conflict_free_kernel_box(best.mapping, algo.mu)
        # The joint optimum is at least as good as fixing the paper's S.
        from repro.core import procedure_5_1
        from repro.systolic import evaluate_cost

        fixed = procedure_5_1(algo, [[1, 1, -1]])
        fixed_cost = evaluate_cost(algo, fixed.mapping)
        fixed_obj = fixed_cost.total_time + (
            fixed_cost.processors + fixed_cost.wire_length
        )
        assert best.objective <= fixed_obj

    def test_weights_change_winner_ordering(self):
        algo = matrix_multiplication(2)
        time_heavy = solve_joint_optimal(algo, time_weight=100.0, space_weight=0.0)
        space_heavy = solve_joint_optimal(algo, time_weight=0.0, space_weight=100.0)
        assert time_heavy.found and space_heavy.found
        # Pure-time winner achieves the global optimal t = 9.
        assert time_heavy.best.cost.total_time == 9
        # Pure-space winner has minimal PEs+wire among all designs.
        min_space = min(
            d.cost.processors + d.cost.wire_length for d in space_heavy.ranking
        )
        assert (
            space_heavy.best.cost.processors + space_heavy.best.cost.wire_length
            == min_space
        )

    def test_every_candidate_schedule_optimal_for_its_space(self):
        algo = matrix_multiplication(2)
        res = solve_joint_optimal(algo, keep_ranking=5)
        from repro.core import procedure_5_1

        for design in res.ranking[:3]:
            redo = procedure_5_1(algo, design.mapping.space)
            assert redo.total_time == design.cost.total_time


class TestDesignArguments:
    """Design-space bounds below 1 are typed errors on every entry point."""

    ENTRY_POINTS = {
        "solve_space_optimal": lambda algo, **kw: solve_space_optimal(
            algo, (1, 2, 1), **kw
        ),
        "solve_joint_optimal": solve_joint_optimal,
        "explore_space": lambda algo, **kw: explore_space(
            algo, (1, 2, 1), jobs=1, cache=None, **kw
        ),
        "explore_joint": lambda algo, **kw: explore_joint(
            algo, jobs=1, cache=None, **kw
        ),
    }

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    @pytest.mark.parametrize("value", [0, -1])
    def test_array_dim_below_one(self, entry, value):
        with pytest.raises(SpecBoundsError, match="array_dim"):
            self.ENTRY_POINTS[entry](matrix_multiplication(2), array_dim=value)

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    @pytest.mark.parametrize("value", [0, -1])
    def test_magnitude_below_one(self, entry, value):
        with pytest.raises(SpecBoundsError, match="magnitude"):
            self.ENTRY_POINTS[entry](matrix_multiplication(2), magnitude=value)

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    @pytest.mark.parametrize("value", [0, -1])
    def test_keep_ranking_below_one(self, entry, value):
        # keep_ranking=-1 used to slice off the worst design silently.
        with pytest.raises(SpecBoundsError, match="keep_ranking"):
            self.ENTRY_POINTS[entry](matrix_multiplication(2), keep_ranking=value)

    def test_smallest_valid_bounds_accepted(self):
        res = solve_space_optimal(
            matrix_multiplication(2), (1, 2, 1),
            array_dim=1, magnitude=1, keep_ranking=1,
        )
        assert res.found and len(res.ranking) == 1

