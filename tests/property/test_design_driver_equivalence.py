"""Property tests: every Problem 6.1/6.2 path runs the one design driver.

``solve_space_optimal`` and ``solve_joint_optimal`` hand
:func:`~repro.core.space_optimize.search_designs` an in-process judge;
``explore_space`` and ``explore_joint`` hand it sharded outputs.  The
contract is that every way of running a design search — the serial
solver, the engine at ``jobs`` 1 and 2, a callback run and a
budget-stopped, checkpointed and resumed run — returns the same best
design, ranking and deterministic counters.
"""

import random
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import optimal_free_schedule
from repro.core.space_optimize import solve_joint_optimal, solve_space_optimal
from repro.dse.checkpoint import BudgetExceeded, RunBudget, RunInterrupted
from repro.dse.executor import explore_joint, explore_space
from repro.model import matrix_multiplication, random_schedulable_algorithm


def summary(result):
    return result.best, result.ranking, result.stats.counter_dict()


def default_objective(cost):
    """Problem 6.1's criterion, as a callback: forces the in-process path."""
    return cost.combined(processor_weight=1.0, wire_weight=1.0)


def small_case(seed):
    algo = random_schedulable_algorithm(
        random.Random(seed), n=3, m=3, mu_max=2, magnitude=1
    )
    return algo, optimal_free_schedule(algo).schedule.pi


def resumed_after_budget_stop(explore, journal, **kwargs):
    """Stop at the shard budget with a checkpoint, then resume it."""
    try:
        explore(**kwargs, jobs=2, checkpoint=journal, budget=RunBudget(max_shards=1))
    except BudgetExceeded:
        pass
    return explore(**kwargs, jobs=2, checkpoint=journal, resume=True)


def assert_space_paths_agree(algo, pi, journal):
    serial = solve_space_optimal(algo, pi, keep_ranking=20)
    kwargs = dict(algorithm=algo, pi=pi, keep_ranking=20, cache=None)
    runs = [
        explore_space(**kwargs, jobs=1),
        explore_space(**kwargs, jobs=2),
        explore_space(**kwargs, jobs=2, objective=default_objective),
        resumed_after_budget_stop(explore_space, journal, **kwargs),
    ]
    for run in runs:
        assert run == serial
        assert summary(run) == summary(serial)


def assert_joint_paths_agree(algo, journal):
    serial = solve_joint_optimal(algo)
    kwargs = dict(algorithm=algo, cache=None)
    runs = [
        explore_joint(**kwargs, jobs=1),
        explore_joint(**kwargs, jobs=2),
        explore_joint(
            **kwargs, jobs=2,
            schedule_kwargs={"extra_constraint": lambda t: True},
        ),
        resumed_after_budget_stop(explore_joint, journal, **kwargs),
    ]
    for run in runs:
        assert run == serial
        assert summary(run) == summary(serial)


class TestSpaceDriver:
    @given(seed=st.integers(0, 500))
    @settings(max_examples=8, deadline=None)
    def test_random_cases_every_path_agrees(self, tmp_path_factory, seed):
        algo, pi = small_case(seed)
        assert_space_paths_agree(algo, pi, tmp_path_factory.mktemp("j") / "run.ckpt")

    def test_example_5_1_every_path_agrees(self, tmp_path):
        assert_space_paths_agree(matrix_multiplication(4), (1, 4, 1), tmp_path / "run.ckpt")

    def test_example_5_1_batch_telemetry_pinned(self):
        # One shard at jobs=1 screens the whole space in one batch, as
        # the serial solver does; none needs the exact fallback.
        serial = solve_space_optimal(matrix_multiplication(4), (1, 4, 1))
        engine = explore_space(matrix_multiplication(4), (1, 4, 1), jobs=1, cache=None)
        for stats in (serial.stats, engine.stats):
            assert (stats.batches_evaluated, stats.fastpath_promotions) == (1, 0)

    def test_stop_after_first_shard_resumes(self, tmp_path):
        algo, pi = matrix_multiplication(4), (1, 4, 1)
        journal = tmp_path / "run.ckpt"
        stop = threading.Event()

        def on_progress(event):
            if event["event"] == "shard_done":
                stop.set()

        with pytest.raises(RunInterrupted):
            explore_space(
                algo, pi, jobs=2, cache=None, checkpoint=journal,
                stop=stop, on_progress=on_progress,
            )
        resumed = explore_space(
            algo, pi, jobs=2, cache=None, checkpoint=journal, resume=True
        )
        assert resumed == solve_space_optimal(algo, pi)
        assert resumed.stats.shards_resumed >= 1


class TestJointDriver:
    @given(seed=st.integers(0, 500))
    @settings(max_examples=3, deadline=None)
    def test_random_cases_every_path_agrees(self, tmp_path_factory, seed):
        algo, _pi = small_case(seed)
        assert_joint_paths_agree(algo, tmp_path_factory.mktemp("j") / "run.ckpt")

    def test_example_5_1_every_path_agrees(self, tmp_path):
        assert_joint_paths_agree(matrix_multiplication(3), tmp_path / "run.ckpt")
