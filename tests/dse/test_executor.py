"""Parallel/serial/cached equivalence of the exploration engine.

The engine's contract is that execution strategy is invisible in the
result: for the paper's worked examples (5.1, 5.2, the 4-D Example 2.1
algorithm) the engine searches with ``jobs in {1, 2, 4}`` and warm
cache replays must return results that compare equal to the serial
solvers' — winners, verdicts and deterministic stats included.  The
schedule search runs in process and ignores ``jobs``; the design
searches shard over a pool of ``jobs`` workers.
"""

import threading
from itertools import islice

import pytest

from repro.core import optimize
from repro.core.optimize import (
    _ring_groups,
    forced_signs,
    procedure_5_1,
    ring_bounds,
    ring_candidate_array,
    ring_size,
    scan_rings,
    search_bounds,
)
from repro.core.pipeline import find_time_optimal_mapping
from repro.core.space_optimize import (
    enumerate_space_mappings,
    solve_joint_optimal,
    solve_space_optimal,
)
from repro.dse.cache import ResultCache
from repro.dse.checkpoint import BudgetExceeded, RunBudget, RunControl, RunInterrupted
from repro.dse.progress import SearchStats
from repro.dse.executor import (
    _design_ranges,
    explore_joint,
    explore_schedule,
    explore_space,
    resolve_jobs,
)
from repro.model import example_2_1_algorithm, matrix_multiplication, transitive_closure

JOBS = [1, 2, 4]


@pytest.fixture
def e21_small():
    """The 4-D Example 2.1 algorithm at a test-friendly size."""
    return example_2_1_algorithm(2)


S_4D = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0))


class TestScheduleEquivalence:
    """``explore_schedule`` accepts ``jobs`` like the design searches and
    ignores it: every value gives the in-process search's result."""

    @pytest.mark.parametrize("jobs", JOBS)
    def test_example_5_1(self, matmul4, jobs):
        serial = procedure_5_1(matmul4, [[1, 1, -1]])
        parallel = explore_schedule(matmul4, [[1, 1, -1]], jobs=jobs)
        assert parallel == serial
        assert parallel.schedule.pi == (1, 2, 3)

    @pytest.mark.parametrize("jobs", JOBS)
    def test_example_5_2(self, tc4, jobs):
        serial = procedure_5_1(tc4, [[0, 0, 1]])
        parallel = explore_schedule(tc4, [[0, 0, 1]], jobs=jobs)
        assert parallel == serial

    @pytest.mark.parametrize("jobs", JOBS)
    def test_example_2_1_4d(self, e21_small, jobs):
        serial = procedure_5_1(e21_small, S_4D)
        parallel = explore_schedule(e21_small, S_4D, jobs=jobs)
        assert parallel == serial

    def test_exhausted_bound_equivalence(self, matmul4):
        # A bound too small for any conflict-free winner: the engine must
        # report the same not-found result and counters as the serial scan.
        kwargs = dict(initial_bound=3, max_bound=5)
        serial = procedure_5_1(matmul4, [[1, 1, -1]], **kwargs)
        assert not serial.found
        for jobs in JOBS:
            assert explore_schedule(matmul4, [[1, 1, -1]], jobs=jobs, **kwargs) == serial

    def test_extra_constraint_forces_in_process_but_matches(self, matmul4):
        constraint = lambda t: t.schedule[0] != 1  # noqa: E731
        serial = procedure_5_1(matmul4, [[1, 1, -1]], extra_constraint=constraint)
        parallel = explore_schedule(
            matmul4, [[1, 1, -1]], jobs=4, extra_constraint=constraint
        )
        assert parallel == serial
        assert parallel.schedule.pi[0] != 1

    def test_explicit_bounds_respected(self, matmul4):
        kwargs = dict(alpha=2, initial_bound=8, max_bound=40)
        serial = procedure_5_1(matmul4, [[1, 1, -1]], **kwargs)
        assert explore_schedule(matmul4, [[1, 1, -1]], jobs=2, **kwargs) == serial

    def test_telemetry_reports_shards(self, matmul4):
        # One in-process shard whatever jobs says, timed like
        # procedure_5_1's: its one shard time is the search's wall time.
        result = explore_schedule(matmul4, [[1, 1, -1]], jobs=2)
        serial = procedure_5_1(matmul4, [[1, 1, -1]])
        assert result.stats.shards == serial.stats.shards == 1
        assert result.stats.shard_wall_times == (result.stats.wall_time,)
        assert result.stats.shards_resumed == 0


class TestScheduleRunControl:
    """Stop, budget and progress act between the rings of the
    in-process schedule search."""

    def test_stop_event_interrupts_before_the_first_ring(self, matmul4):
        stop = threading.Event()
        stop.set()
        with pytest.raises(RunInterrupted):
            explore_schedule(matmul4, [[1, 1, -1]], stop=stop)

    def test_bit_budget_stops_at_the_ring_that_needs_more_bits(self, matmul4):
        serial = procedure_5_1(matmul4, [[1, 1, -1]])
        assert serial.rings_expanded >= 1
        with pytest.raises(BudgetExceeded):
            explore_schedule(
                matmul4, [[1, 1, -1]], budget=RunBudget(max_bits=1)
            )

    def test_one_phase_event_per_ring(self, matmul4):
        events = []
        result = explore_schedule(matmul4, [[1, 1, -1]], on_progress=events.append)
        assert result == procedure_5_1(matmul4, [[1, 1, -1]])
        assert {e["event"] for e in events} == {"phase"}
        assert [e["phase"] for e in events] == ["dse.ring"] * (result.rings_expanded + 1)
        assert [e["winner"] for e in events] == [False] * result.rings_expanded + [True]


#: Searches whose rings are judged in groups of many rings: Examples
#: 5.1 and 5.2 at mu=50 (one S) and Problem 6.2's stacked search over
#: the linear-array S of matmul at mu=4.
HOOK_CASES = {
    "example_5_1": lambda: (matrix_multiplication(50), [((1, 1, -1),)]),
    "example_5_2": lambda: (transitive_closure(50), [((0, 0, 1),)]),
    "problem_6_2": lambda: (
        matrix_multiplication(4), list(enumerate_space_mappings(3, 1))
    ),
}


def hooked_search(algo, stack, **hooks):
    """The in-process ring search with ring hooks, and its windows."""
    alpha, initial_bound, max_bound = search_bounds(algo)
    results = scan_rings(
        algo, stack, [SearchStats() for _ in stack], alpha=alpha,
        initial_bound=initial_bound, max_bound=max_bound, **hooks,
    )
    return results, list(ring_bounds(initial_bound, alpha, max_bound))


@pytest.mark.parametrize("case", list(HOOK_CASES))
class TestRingGroupHooks:
    """Rings are judged in groups, but the ring hooks see a ring-by-ring
    loop: ``before_ring`` then ``after_ring`` for each logical ring, up
    to and including the last winner's ring, so a budget or a stop ends
    the run at the same ring."""

    def test_hooks_see_each_logical_ring_through_the_winner(self, case):
        algo, stack = HOOK_CASES[case]()
        calls = []
        results, windows = hooked_search(
            algo, stack, before_ring=lambda f_max: calls.append(("before", f_max)),
            after_ring=lambda ring, won: calls.append(
                ("after", ring.f_min, ring.f_max, ring.size, len(ring.candidates), won)
            ),
        )
        last = max(r.rings_expanded for r in results)
        signs = forced_signs(algo.dependence_vectors(), algo.n)
        expected = []
        for index, (f_min, f_max) in enumerate(windows[: last + 1]):
            rows = ring_candidate_array(algo.mu, f_max, f_min=f_min, signs=signs)
            won = any(r.rings_expanded == index for r in results)
            expected += [
                ("before", f_max),
                ("after", f_min, f_max, ring_size(algo.mu, f_max, f_min), len(rows), won),
            ]
        assert calls == expected
        if len(stack) == 1:
            assert [c[-1] for c in calls if c[0] == "after"] == [False] * last + [True]

    def test_bit_budget_stops_at_the_ring_a_ring_loop_stops_at(self, case):
        algo, stack = HOOK_CASES[case]()
        unbudgeted, windows = hooked_search(algo, stack)
        walked = [f_max for _, f_max in windows[: max(r.rings_expanded for r in unbudgeted) + 1]]
        for bits in range(walked[0].bit_length() - 1, walked[-1].bit_length() + 1):
            closed = []
            control = RunControl(budget=RunBudget(max_bits=bits))
            hooks = dict(
                before_ring=control.check_ring,
                after_ring=lambda ring, won: closed.append(ring.f_max),
            )
            wider = [f_max for f_max in walked if f_max.bit_length() > bits]
            if not wider:
                assert hooked_search(algo, stack, **hooks)[0] == unbudgeted
                assert closed == walked
                continue
            with pytest.raises(BudgetExceeded, match=f"ring bound {wider[0]} "):
                hooked_search(algo, stack, **hooks)
            assert closed == walked[: walked.index(wider[0])]

    def test_stop_while_a_group_is_judged_ends_at_the_next_ring(self, case, monkeypatch):
        algo, stack = HOOK_CASES[case]()
        stop, rows = threading.Event(), []
        real_mask = optimize.batch_dependence_mask

        def mask(pis, deps):
            rows.append(len(pis))
            if len(rows) == 3:  # the third group: rings 2, 3, ...
                stop.set()
            return real_mask(pis, deps)

        monkeypatch.setattr(optimize, "batch_dependence_mask", mask)
        closed = []
        with pytest.raises(RunInterrupted):
            hooked_search(
                algo, stack, before_ring=RunControl(stop=stop).check_ring,
                after_ring=lambda ring, won: closed.append((ring.f_min, ring.f_max, won)),
            )
        alpha, initial_bound, max_bound = search_bounds(algo)
        windows = list(islice(ring_bounds(initial_bound, alpha, max_bound), 3))
        signs = forced_signs(algo.dependence_vectors(), algo.n)
        ring_2 = ring_candidate_array(algo.mu, windows[2][1], f_min=windows[2][0], signs=signs)
        assert rows[2] > len(ring_2)  # the group judged more than ring 2
        assert closed == [(f_min, f_max, False) for f_min, f_max in windows[:3]]


class TestRingGroupBudgetRegression:
    """A group can reach past the bit budget after the winner's ring:
    at mu=10 (Example 5.1) and mu=9 (Example 5.2) the winner's ring ends
    at f 120 / 108 (7 bits), and its group at f 150 / 135 (8 bits)."""

    @pytest.mark.parametrize(
        "algo,space,group_end",
        [(matrix_multiplication(10), [[1, 1, -1]], 150),
         (transitive_closure(9), [[0, 0, 1]], 135)],
        ids=["example_5_1", "example_5_2"],
    )
    def test_seven_bits_still_answer(self, algo, space, group_end):
        serial = procedure_5_1(algo, space)
        alpha, initial_bound, max_bound = search_bounds(algo)
        windows = list(ring_bounds(initial_bound, alpha, max_bound))
        assert windows[serial.rings_expanded][1].bit_length() == 7
        groups = _ring_groups(algo.mu, iter(windows))
        assert group_end in [group[-1][1] for group in groups]
        budgeted = explore_schedule(algo, space, budget=RunBudget(max_bits=7))
        assert budgeted == serial


class TestScheduleCache:
    def test_warm_equals_cold_equals_serial(self, matmul4, tmp_path):
        cache = ResultCache(tmp_path)
        serial = procedure_5_1(matmul4, [[1, 1, -1]])
        cold = explore_schedule(matmul4, [[1, 1, -1]], cache=cache)
        warm = explore_schedule(matmul4, [[1, 1, -1]], cache=cache)
        assert cold == serial == warm
        assert cold.stats.cache_misses == 1 and cold.stats.cache_hits == 0
        assert warm.stats.cache_hits == 1 and warm.stats.cache_misses == 0
        assert len(cache) == 1

    def test_not_found_is_cached_too(self, matmul4, tmp_path):
        cache = ResultCache(tmp_path)
        kwargs = dict(initial_bound=3, max_bound=5, cache=cache)
        cold = explore_schedule(matmul4, [[1, 1, -1]], **kwargs)
        warm = explore_schedule(matmul4, [[1, 1, -1]], **kwargs)
        assert not cold.found and cold == warm
        assert warm.stats.cache_hits == 1

    def test_different_bounds_do_not_collide(self, matmul4, tmp_path):
        cache = ResultCache(tmp_path)
        explore_schedule(matmul4, [[1, 1, -1]], cache=cache)
        explore_schedule(matmul4, [[1, 1, -1]], cache=cache, alpha=2)
        assert len(cache) == 2

    def test_extra_constraint_bypasses_cache(self, matmul4, tmp_path):
        cache = ResultCache(tmp_path)
        explore_schedule(
            matmul4, [[1, 1, -1]], cache=cache,
            extra_constraint=lambda t: True,
        )
        assert len(cache) == 0


class TestSpaceEquivalence:
    @pytest.mark.parametrize("jobs", JOBS)
    def test_problem_6_1(self, matmul4, jobs):
        serial = solve_space_optimal(matmul4, (1, 2, 3))
        parallel = explore_space(matmul4, (1, 2, 3), jobs=jobs)
        assert parallel == serial

    def test_rejects_dependence_violating_pi(self, matmul4):
        with pytest.raises(ValueError):
            explore_space(matmul4, (0, 0, -1))

    def test_custom_objective_in_process(self, matmul4):
        objective = lambda cost: float(cost.processors)  # noqa: E731
        serial = solve_space_optimal(matmul4, (1, 2, 3), objective=objective)
        parallel = explore_space(matmul4, (1, 2, 3), jobs=4, objective=objective)
        assert parallel == serial

    def test_cache_round_trip(self, matmul4, tmp_path):
        cache = ResultCache(tmp_path)
        serial = solve_space_optimal(matmul4, (1, 2, 3))
        cold = explore_space(matmul4, (1, 2, 3), jobs=2, cache=cache)
        warm = explore_space(matmul4, (1, 2, 3), jobs=2, cache=cache)
        assert cold == serial == warm
        assert warm.stats.cache_hits == 1

    def test_custom_objective_bypasses_cache(self, matmul4, tmp_path):
        cache = ResultCache(tmp_path)
        explore_space(
            matmul4, (1, 2, 3), cache=cache, objective=lambda c: 0.0
        )
        assert len(cache) == 0


class TestJointEquivalence:
    @pytest.mark.parametrize("jobs", JOBS)
    def test_problem_6_2(self, matmul4, jobs):
        serial = solve_joint_optimal(matmul4)
        parallel = explore_joint(matmul4, jobs=jobs)
        assert parallel == serial

    def test_weights_flow_through(self, matmul4):
        serial = solve_joint_optimal(matmul4, time_weight=2.0, space_weight=0.5)
        parallel = explore_joint(matmul4, jobs=2, time_weight=2.0, space_weight=0.5)
        assert parallel == serial

    def test_cache_round_trip(self, matmul4, tmp_path):
        cache = ResultCache(tmp_path)
        serial = solve_joint_optimal(matmul4)
        cold = explore_joint(matmul4, jobs=2, cache=cache)
        warm = explore_joint(matmul4, jobs=2, cache=cache)
        assert cold == serial == warm
        assert warm.stats.cache_hits == 1

    def test_warm_rebuild_shares_cost_model_with_cold(self, matmul4, tmp_path):
        # Regression: the warm-cache rebuild used to re-implement the
        # joint objective inline; with non-default weights a formula
        # drift would surface as warm != cold.  Both paths now call
        # repro.core.space_optimize.joint_objective.
        cache = ResultCache(tmp_path)
        weights = dict(time_weight=2.0, space_weight=0.5)
        cold = explore_joint(matmul4, jobs=1, cache=cache, **weights)
        warm = explore_joint(matmul4, jobs=1, cache=cache, **weights)
        assert warm == cold
        assert warm.stats.cache_hits == 1
        assert [d.objective for d in warm.ranking] == [
            d.objective for d in cold.ranking
        ]
        from repro.core import joint_objective

        for design in warm.ranking:
            assert design.objective == joint_objective(design.cost, **weights)

    def test_callback_schedule_kwargs_bypass_cache(self, matmul4, tmp_path):
        cache = ResultCache(tmp_path)
        kwargs = {"extra_constraint": lambda t: True}
        serial = solve_joint_optimal(matmul4, schedule_kwargs=kwargs)
        parallel = explore_joint(
            matmul4, jobs=4, schedule_kwargs=kwargs, cache=cache
        )
        assert parallel == serial
        assert len(cache) == 0


class TestCallbackPath:
    """Callbacks run the same shard workers in process, so they honour
    stop, budget and progress exactly as every other run does."""

    @staticmethod
    def objective(cost):
        return float(cost.processors)

    @staticmethod
    def joint_kwargs():
        return {"schedule_kwargs": {"extra_constraint": lambda t: True}}

    def stopped(self):
        event = threading.Event()
        event.set()
        return event

    def test_space_objective_honours_stop(self, matmul4):
        with pytest.raises(RunInterrupted):
            explore_space(
                matmul4, (1, 4, 1), objective=self.objective, stop=self.stopped()
            )

    def test_space_objective_reports_progress(self, matmul4):
        events = []
        explore_space(
            matmul4, (1, 4, 1), jobs=2, objective=self.objective,
            on_progress=events.append,
        )
        done = [e for e in events if e["event"] == "shard_done"]
        assert [e["completed"] for e in done] == [1, 2]

    def test_space_objective_times_every_shard(self, matmul4):
        result = explore_space(matmul4, (1, 4, 1), jobs=2, objective=self.objective)
        assert len(result.stats.shard_wall_times) == 2
        assert all(w > 0.0 for w in result.stats.shard_wall_times)

    def test_space_objective_honours_shard_budget(self, matmul4):
        with pytest.raises(BudgetExceeded):
            explore_space(
                matmul4, (1, 4, 1), jobs=2, objective=self.objective,
                budget=RunBudget(max_shards=1),
            )

    def test_joint_callback_honours_stop(self, tc4):
        with pytest.raises(RunInterrupted):
            explore_joint(tc4, stop=self.stopped(), **self.joint_kwargs())

    def test_joint_callback_reports_progress(self, tc4):
        events = []
        result = explore_joint(
            tc4, jobs=2, on_progress=events.append, **self.joint_kwargs()
        )
        assert [e["event"] for e in events] == ["shard_done", "shard_done"]
        assert all(w > 0.0 for w in result.stats.shard_wall_times)

    def test_callback_rules_out_checkpoint(self, matmul4, tmp_path):
        with pytest.raises(ValueError, match="custom objective"):
            explore_space(
                matmul4, (1, 4, 1), objective=self.objective,
                checkpoint=tmp_path / "run.ckpt",
            )


class TestPipelineIntegration:
    def test_checkpoint_routes_through_engine(self, matmul4, tmp_path):
        baseline = find_time_optimal_mapping(
            matmul4, [[1, 1, -1]], solver="procedure-5.1"
        )
        journal = tmp_path / "run.ckpt"
        engine = find_time_optimal_mapping(
            matmul4, [[1, 1, -1]], solver="procedure-5.1", checkpoint=journal
        )
        assert engine.schedule == baseline.schedule
        assert engine.mapping == baseline.mapping
        assert engine.stats == baseline.stats
        assert '"kind":"result"' in journal.read_text()

    def test_cache_routes_through_engine(self, matmul4, tmp_path):
        cache = ResultCache(tmp_path)
        first = find_time_optimal_mapping(
            matmul4, [[1, 1, -1]], solver="procedure-5.1", cache=cache
        )
        second = find_time_optimal_mapping(
            matmul4, [[1, 1, -1]], solver="procedure-5.1", cache=cache
        )
        assert first.schedule == second.schedule
        assert first.stats == second.stats
        assert cache.hits == 1


class TestResolveJobs:
    def test_none_means_available_cpus(self):
        assert resolve_jobs(None) >= 1

    def test_none_prefers_affinity_mask(self, monkeypatch):
        # A cgroup/affinity-limited runner must get workers for the CPUs
        # it may actually use, not one per physical core of the host.
        import os

        monkeypatch.setattr(
            os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False
        )
        assert resolve_jobs(None) == 3

    def test_none_falls_back_to_cpu_count(self, monkeypatch):
        import os

        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 5)
        assert resolve_jobs(None) == 5

    def test_explicit_passthrough(self):
        assert resolve_jobs(3) == 3

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            resolve_jobs(0)

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert resolve_jobs(None) == 3

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert resolve_jobs(2) == 2

    def test_env_beats_cpu_detection(self, monkeypatch):
        import os

        monkeypatch.setattr(
            os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False
        )
        monkeypatch.setenv("REPRO_JOBS", "2")
        assert resolve_jobs(None) == 2

    def test_empty_env_is_ignored(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "")
        assert resolve_jobs(None) >= 1

    @pytest.mark.parametrize("value", ["bogus", "0", "-2", "1.5"])
    def test_bad_env_is_rejected(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_JOBS", value)
        with pytest.raises(ValueError, match="REPRO_JOBS"):
            resolve_jobs(None)


class TestDesignRanges:
    """The design space is cut into ``min(jobs, len(spaces))`` shards."""

    def test_caps_at_item_count(self):
        assert len(_design_ranges(3, 8)) == 3

    def test_caps_at_jobs(self):
        assert len(_design_ranges(100, 4)) == 4

    @pytest.mark.parametrize("total,shards", [
        (10, 3), (7, 7), (1, 4), (23, 4), (100, 16),
    ])
    def test_contiguous_cover_in_order(self, total, shards):
        ranges = _design_ranges(total, shards)
        assert ranges[0][0] == 0
        assert ranges[-1][1] == total
        for (_, stop), (start2, _) in zip(ranges, ranges[1:]):
            assert start2 == stop
        assert [i for a, b in ranges for i in range(a, b)] == list(range(total))

    def test_balanced_within_one(self):
        sizes = [b - a for a, b in _design_ranges(23, 4)]
        assert max(sizes) - min(sizes) <= 1

    def test_never_produces_empty_ranges(self):
        assert len(_design_ranges(2, 5)) == 2
        assert all(b > a for a, b in _design_ranges(2, 5))

    def test_empty_total(self):
        assert _design_ranges(0, 4) == []
