"""Unit tests for repro.core.optimize (Procedure 5.1)."""

import pytest

from repro.core import (
    MappingMatrix,
    check_conflict_free,
    enumerate_schedule_vectors,
    is_conflict_free_kernel_box,
    procedure_5_1,
)
from repro.core.optimize import (
    forced_signs,
    ring_bounds,
    ring_candidate_array,
    search_bounds,
)
from repro.dse.executor import explore_schedule
from repro.model import (
    ConstantBoundedIndexSet,
    UniformDependenceAlgorithm,
    bit_level_matrix_multiplication,
    matrix_multiplication,
    stencil_2d,
    transitive_closure,
)


class TestEnumeration:
    def test_ring_contents(self):
        # mu = (1, 1), f_max = 2: all nonzero pi with |pi1| + |pi2| <= 2.
        vecs = set(enumerate_schedule_vectors((1, 1), 2))
        assert (0, 0) not in vecs
        assert (1, 1) in vecs and (-2, 0) in vecs
        assert all(abs(a) + abs(b) <= 2 for a, b in vecs)
        # count: |{|a|+|b| <= 2}| = 13 lattice points, minus origin.
        assert len(vecs) == 12

    def test_f_min_excludes_inner_ring(self):
        inner = set(enumerate_schedule_vectors((1, 1), 1))
        ring = set(enumerate_schedule_vectors((1, 1), 2, f_min=2))
        assert inner.isdisjoint(ring)
        assert inner | ring == set(enumerate_schedule_vectors((1, 1), 2))

    def test_weighted_budget(self):
        vecs = list(enumerate_schedule_vectors((3, 1), 3))
        assert (1, 0) in vecs  # cost 3
        assert (0, 3) in vecs  # cost 3
        assert (1, 1) not in vecs  # cost 4

    def test_nonnegative_mode(self):
        vecs = set(enumerate_schedule_vectors((1, 1), 2, nonnegative=True))
        assert all(a >= 0 and b >= 0 for a, b in vecs)
        assert (1, 1) in vecs

    def test_zero_vector_never_yielded(self):
        assert (0, 0, 0) not in set(enumerate_schedule_vectors((1, 1, 1), 3))

    def test_lazy(self):
        gen = enumerate_schedule_vectors((1,) * 4, 8)
        assert next(iter(gen)) is not None  # does not materialize everything


class TestRingBounds:
    def test_mirrors_serial_loop(self):
        # initial_bound=12, alpha=4, max_bound=21:
        # serial: x_prev=-1, x=12 -> ring [0,12]; [13,16]; [17,20]; [21,21]
        assert list(ring_bounds(12, 4, 21)) == [
            (0, 12), (13, 16), (17, 20), (21, 21),
        ]

    def test_clamps_first_ring_to_max_bound(self):
        assert list(ring_bounds(50, 5, 10)) == [(0, 10)]

    def test_windows_partition_the_range(self):
        windows = list(ring_bounds(7, 3, 40))
        assert windows[0][0] == 0
        assert windows[-1][1] == 40
        for (_, hi), (lo2, _) in zip(windows, windows[1:]):
            assert lo2 == hi + 1

    def test_rejects_nonpositive_alpha(self):
        with pytest.raises(ValueError):
            next(ring_bounds(5, 0, 10))


class TestProcedure51:
    def test_example_5_1_optimal_time(self, matmul4):
        res = procedure_5_1(matmul4, [[1, 1, -1]])
        assert res.found
        assert res.total_time == 4 * (4 + 2) + 1  # mu(mu+2)+1

    def test_example_5_2_optimal(self, tc4):
        res = procedure_5_1(tc4, [[0, 0, 1]])
        assert res.schedule.pi == (5, 1, 1)  # [mu+1, 1, 1]
        assert res.total_time == 4 * (4 + 3) + 1

    def test_winner_is_verified_conflict_free(self, matmul4):
        res = procedure_5_1(matmul4, [[1, 1, -1]])
        assert is_conflict_free_kernel_box(res.mapping, matmul4.mu)

    def test_winner_respects_dependences(self, matmul4):
        res = procedure_5_1(matmul4, [[1, 1, -1]])
        assert res.mapping.respects_dependences(matmul4)

    def test_exact_method_same_optimum(self, matmul4):
        auto = procedure_5_1(matmul4, [[1, 1, -1]], method="auto")
        exact = procedure_5_1(matmul4, [[1, 1, -1]], method="exact")
        assert auto.total_time == exact.total_time

    def test_paper_method(self, matmul4):
        paper = procedure_5_1(matmul4, [[1, 1, -1]], method="paper")
        assert paper.total_time == 25

    def test_optimality_certified_by_sweep(self, matmul4):
        """No valid conflict-free schedule has smaller t (brute check)."""
        res = procedure_5_1(matmul4, [[1, 1, -1]])
        best = res.total_time
        for pi in enumerate_schedule_vectors(matmul4.mu, best - 2):
            t = MappingMatrix(space=((1, 1, -1),), schedule=pi)
            if not matmul4.is_acyclic_under(pi):
                continue
            if t.rank() != 2:
                continue
            assert not is_conflict_free_kernel_box(t, matmul4.mu), (
                f"schedule {pi} beats the claimed optimum"
            )

    def test_stats_populated(self, matmul4):
        res = procedure_5_1(matmul4, [[1, 1, -1]])
        assert res.candidates_examined > 0
        assert res.rings_expanded >= 0

    def test_extra_constraint_filters(self, matmul4):
        # Force pi_2 even: the winner must change accordingly.
        res = procedure_5_1(
            matmul4,
            [[1, 1, -1]],
            extra_constraint=lambda t: t.schedule[1] % 2 == 0,
        )
        assert res.found
        assert res.schedule.pi[1] % 2 == 0

    def test_unsatisfiable_returns_not_found(self):
        # An impossible extra constraint with a tiny search bound.
        algo = matrix_multiplication(2)
        res = procedure_5_1(
            algo,
            [[1, 1, -1]],
            extra_constraint=lambda t: False,
            max_bound=10,
        )
        assert not res.found
        assert res.schedule is None
        with pytest.raises(ValueError):
            _ = res.total_time

    def test_search_smaller_mu(self):
        """mu = 2: optimum from the paper's formula mu(mu+2)+1 = 9."""
        algo = matrix_multiplication(2)
        res = procedure_5_1(algo, [[1, 1, -1]])
        assert res.total_time == 9

    def test_mu_3_matches_ref23_time(self):
        """At mu = 3 the paper notes [23]'s Pi' = [2,1,mu] is optimal:
        both formulas give mu(mu+3)+1 = 19?  No: the paper's optimum is
        mu(mu+2)+1 = 16 at mu=4 but at mu=3 Pi' is optimal with t=19.
        Verify our search at mu=3 does not beat t([2,1,3]) = 19 ... it
        may tie or beat only if a conflict-free schedule exists below.
        """
        algo = matrix_multiplication(3)
        res = procedure_5_1(algo, [[1, 1, -1]])
        baseline_t = 1 + 3 * (2 + 1 + 3)
        assert res.total_time <= baseline_t

    def test_corank2_search(self):
        """2-D bit-level-style mapping: search with the exact auto mode."""
        from repro.model import bit_level_matrix_multiplication

        algo = bit_level_matrix_multiplication(1, 1)
        space = [[1, 0, 1, 0, 0], [0, 1, 0, 1, 0]]
        res = procedure_5_1(algo, space)
        assert res.found
        assert res.mapping.rank() == 3
        assert is_conflict_free_kernel_box(res.mapping, algo.mu)

    def test_zero_dependence_algorithm(self):
        """With no dependences every nonzero Pi is dependence-valid; the
        conflict condition alone drives the search."""
        algo = UniformDependenceAlgorithm(
            index_set=ConstantBoundedIndexSet((2, 2)), dependence_matrix=()
        )
        res = procedure_5_1(algo, [])
        assert res.found
        # k = 1 mapping of a 2-D set: needs |pi_i| > mu_j style escape.
        assert is_conflict_free_kernel_box(res.mapping, algo.mu)


class TestFindAllOptima:
    def test_matmul_mu4_tie_set(self, matmul4):
        from repro.core import find_all_optima

        optima = find_all_optima(matmul4, [[1, 1, -1]])
        pis = {o.schedule.pi for o in optima}
        # The paper lists two optima; the full tie set has six.
        assert (1, 4, 1) in pis
        assert (4, 1, 1) in pis
        assert len(pis) == 6
        times = {o.total_time for o in optima}
        assert times == {25}

    def test_all_optima_conflict_free(self, matmul4):
        from repro.core import find_all_optima, is_conflict_free_kernel_box

        for o in find_all_optima(matmul4, [[1, 1, -1]]):
            assert is_conflict_free_kernel_box(o.mapping, matmul4.mu)
            assert o.mapping.respects_dependences(matmul4)

    def test_tc_unique_optimum(self, tc4):
        from repro.core import find_all_optima

        optima = find_all_optima(tc4, [[0, 0, 1]])
        assert [o.schedule.pi for o in optima] == [(5, 1, 1)]

    def test_empty_when_not_found(self):
        from repro.core import find_all_optima

        algo = matrix_multiplication(2)
        assert find_all_optima(algo, [[1, 1, -1]], max_bound=3) == []

    def test_tie_sweep_follows_sort_key_order(self, matmul4):
        # Regression: the sweep used to sort raw pi tuples with
        # sorted(); the documented order is LinearSchedule.sort_key
        # (total time, then the vector) — the search's own visit order.
        from repro.core import find_all_optima

        optima = find_all_optima(matmul4, [[1, 1, -1]])
        keys = [o.schedule.sort_key() for o in optima]
        assert keys == sorted(keys)
        pis = [o.schedule.pi for o in optima]
        # The paper's Example 5.1 pair, in sweep order.
        assert pis.index((1, 4, 1)) < pis.index((4, 1, 1))

    def test_tie_results_do_not_alias_stats(self, matmul4):
        # Regression: every tie result used to share the single stats
        # object of the initial search; mutating one result's telemetry
        # leaked into all its siblings.
        from repro.core import find_all_optima

        optima = find_all_optima(matmul4, [[1, 1, -1]])
        assert len(optima) >= 2
        assert len({id(o.stats) for o in optima}) == len(optima)
        first, second = optima[0], optima[1]
        assert first.stats == second.stats  # same values...
        first.stats.wall_time += 123.0      # ...but independent objects
        assert second.stats.wall_time != first.stats.wall_time


class TestPruningTelemetry:
    """Example 5.1 at mu=6: the driver's work counters, pinned.

    The co-rank-1 screen judges whole ring groups at once: one funnel
    call per group, one conflict screen per dependence and rank survivor.
    """

    SPACE = ((1, 1, -1),)

    def test_batched_counters_without_pruning(self):
        stats = procedure_5_1(matrix_multiplication(6), self.SPACE).stats
        assert stats.batches_evaluated == 4  # rings 0 | 1 | 2-3 | 4-5
        assert stats.conflict_screens == 56
        assert stats.fastpath_promotions == 0


class TestCountersAcrossPaths:
    """Work counters mean one thing on every path: ``procedure_5_1`` and
    the engine (the same in-process search) report identical values."""

    COUNTERS = ("batches_evaluated", "conflict_screens", "fastpath_promotions")

    @pytest.mark.parametrize("method", ["auto", "paper"])
    @pytest.mark.parametrize(
        "algo,space",
        [
            (matrix_multiplication(6), ((1, 1, -1),)),
            (transitive_closure(6), ((0, 0, 1),)),
        ],
        ids=["example_5_1", "example_5_2"],
    )
    def test_procedure_5_1_and_engine_agree(self, algo, space, method):
        serial = procedure_5_1(algo, space, method=method)
        engine = explore_schedule(algo, space, method=method)
        assert engine == serial
        for name in self.COUNTERS:
            assert getattr(engine.stats, name) == getattr(serial.stats, name), name


class TestCorank2Pin:
    """Bit-level matmul (mu=3, w=2) onto a 2-D array: a co-rank-2 search
    screened by the box-kernel table of ``S``, pinned on both paths."""

    SPACE = ((1, 0, 1, 0, 0), (0, 1, 0, 1, 0))

    @pytest.mark.parametrize("engine", [False, True], ids=["procedure_5_1", "engine"])
    def test_winner_and_counters(self, engine):
        algo = bit_level_matrix_multiplication(3, 2)
        result = (
            explore_schedule(algo, self.SPACE, cache=None)
            if engine else procedure_5_1(algo, self.SPACE)
        )
        assert result.schedule.pi == (1, 1, 2, 5, 12)
        assert result.total_time == 47
        assert result.stats.counter_dict() == {
            "candidates_enumerated": 612_430,
            "candidates_pruned": 523_385,
            "candidates_checked": 6_830,
            "conflicts_rejected": 6_829,
            "routing_rejected": 0,
            "rings_expanded": 17,
        }

    @pytest.mark.parametrize("mu,screens", [(3, 8_771), (8, 27_742)])
    def test_screen_stops_at_the_end_of_the_winners_ring(self, mu, screens):
        # Rings are judged in groups, but the box-kernel screen is not
        # free: it screens ring by ring and stops with the ring that
        # holds the first ok row, as a ring-by-ring loop does.
        stats = procedure_5_1(bit_level_matrix_multiplication(mu, 2), self.SPACE).stats
        assert stats.conflict_screens == screens


class TestRingGroupWork:
    """Example 5.1 at mu=50: ring groups double in rows, so the rows
    built past the winner's ring stay within the last group."""

    def test_rows_built_and_judge_calls(self, monkeypatch):
        from repro.core import optimize

        algo = matrix_multiplication(50)
        built = []

        def counted(*args, **kwargs):
            rows = ring_candidate_array(*args, **kwargs)
            built.append(len(rows))
            return rows

        monkeypatch.setattr(optimize, "ring_candidate_array", counted)
        result = procedure_5_1(algo, [[1, 1, -1]])
        monkeypatch.undo()
        assert result.total_time == 2601 and result.rings_expanded == 49
        signs = forced_signs(algo.dependence_vectors(), algo.n)
        alpha, initial_bound, max_bound = search_bounds(algo)
        windows = list(ring_bounds(initial_bound, alpha, max_bound))[:50]
        through_winner = sum(
            len(ring_candidate_array(algo.mu, f_max, f_min=f_min, signs=signs))
            for f_min, f_max in windows
        )
        assert through_winner == 22_100
        assert sum(built) == 24_804 <= 2 * through_winner
        assert len(built) == result.stats.batches_evaluated == 11


class TestForcedSigns:
    """The fixed point of the sign-forcing rule of ``Pi D > 0``."""

    @staticmethod
    def signs(algo):
        return forced_signs(algo.dependence_vectors(), algo.n)

    def test_matmul_forces_every_coordinate(self):
        assert self.signs(matrix_multiplication(4)) == (1, 1, 1)

    def test_transitive_closure_forces_through_the_mixed_column(self):
        # e_2 and e_3 force pi_2, pi_3 > 0; then (1, -1, -1) leaves only
        # pi_1 to make Pi . d positive.
        assert forced_signs([(0, 0, 1), (0, 1, 0), (1, -1, -1)], 3) == (1, 1, 1)
        assert forced_signs([(1, -1, -1), (0, 1, 0), (0, 0, 1)], 3) == (1, 1, 1)
        assert self.signs(transitive_closure(4)) == (1, 1, 1)

    def test_stencil_2d_is_partly_forced(self):
        # (1, +-1, 0) and (1, 0, +-1) never isolate pi_2 or pi_3.
        assert self.signs(stencil_2d(3)) == (1, 0, 0)

    def test_negative_unit_column_forces_a_negative_sign(self):
        assert forced_signs([(0, -1, 0)], 3) == (0, -1, 0)
        assert forced_signs([(0, -1), (1, 1)], 2) == (1, -1)

    def test_zero_column_forces_nothing(self):
        assert forced_signs([(0, 0, 0)], 3) == (0, 0, 0)
        assert forced_signs([(0, 0), (1, 0)], 2) == (1, 0)

    def test_unforced_column_set(self):
        assert forced_signs([(1, 1), (1, -1)], 2) == (0, 0)
        assert forced_signs([], 2) == (0, 0)


_MU50_CASES = {
    "example_5_1": (
        matrix_multiplication(50), ((1, 1, -1),), (1, 2, 49),
        (193_024, 166_999, 20_827, 20_826, 49), 20_827,
    ),
    "example_5_2": (
        transitive_closure(50), ((0, 0, 1),), (51, 1, 1),
        (204_262, 198_731, 5_525, 5_524, 50), 5_525,
    ),
}


class TestMu50Pins:
    """Examples 5.1 and 5.2 at mu=50: winner and deterministic counters,
    pinned on both paths (values of the full-ring search).  ``"paper"``
    judges co-rank 1 with the same conflict-vector screen as ``"auto"``,
    so it pins the same values."""

    @pytest.mark.parametrize("engine", [False, True], ids=["procedure_5_1", "engine"])
    @pytest.mark.parametrize(
        "method,case",
        [
            pytest.param(method, case, id=case if method == "auto" else f"{case}-{method}")
            for case in _MU50_CASES
            for method in ("auto", "paper")
        ],
    )
    def test_winner_and_counters(self, engine, method, case):
        algo, space, pi, counters, examined = _MU50_CASES[case]
        result = (
            explore_schedule(algo, space, method=method, cache=None)
            if engine else procedure_5_1(algo, space, method=method)
        )
        if engine:
            # One meaning per counter: the engine is procedure_5_1.
            serial = procedure_5_1(algo, space, method=method)
            assert result == serial
            assert result.stats.counter_dict() == serial.stats.counter_dict()
        enumerated, pruned, checked, rejected, rings = counters
        assert result.schedule.pi == pi
        assert result.stats.counter_dict() == {
            "candidates_enumerated": enumerated,
            "candidates_pruned": pruned,
            "candidates_checked": checked,
            "conflicts_rejected": rejected,
            "routing_rejected": 0,
            "rings_expanded": rings,
        }
        assert result.candidates_examined == examined
        assert result.rings_expanded == rings
        assert result.verdict == check_conflict_free(result.mapping, algo.mu, method=method)
