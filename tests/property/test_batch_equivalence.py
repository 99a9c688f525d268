"""Property tests: every search path equals the scalar reference loop.

Procedure 5.1 has one ring driver and one vectorized evaluator; the
contract is that, for any algorithm/space pair, every way of running
it — ``procedure_5_1``, ``explore_schedule``, a checkpointed engine run
replayed from its journal, and an interrupted-then-rerun one — returns
the winner, verdict,
tie set and deterministic counters of a plain reference loop:
:func:`enumerate_schedule_vectors` rings sorted by ``(f, Pi)`` and
judged one candidate at a time by the kernel-box oracle.  The
co-rank >= 2 screens (the box-kernel table of ``S`` for Procedure 5.1,
of ``Pi`` for Problem 6.1) get their own higher-dimensional cases.  The
batch primitives must also produce exact results on both sides of the
int64 promotion boundary.
"""

import itertools
import random

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.core.conditions import check_conflict_free
from repro.core.conflict import (
    adjugate_conflict_matrix,
    box_kernel_screen,
    box_kernel_table,
    conflict_vector_verdicts,
    is_conflict_free_kernel_box,
)
from repro.core.mapping import MappingMatrix
from repro.core.optimize import (
    STAGE_NAMES,
    BatchCandidateScanner,
    enumerate_schedule_vectors,
    find_all_optima,
    forced_signs,
    procedure_5_1,
    procedure_5_1_stacked,
    ring_bounds,
    ring_candidate_array,
    ring_size,
    search_bounds,
)
from repro.core.schedule import LinearSchedule
from repro.core.space_optimize import (
    enumerate_space_mappings,
    evaluate_design,
    evaluate_designs_batched,
)
from repro.dse.checkpoint import BudgetExceeded, RunBudget
from repro.dse.executor import explore_schedule
from repro.intlin import INT64_MAX, as_intmat, batch_matmul, rank
from repro.model import (
    ConstantBoundedIndexSet,
    UniformDependenceAlgorithm,
    matrix_multiplication,
    transitive_closure,
)


@st.composite
def algorithm_and_space(draw):
    """A random 2-D/3-D algorithm plus a random space mapping row set."""
    n = draw(st.integers(2, 3))
    mu = tuple(draw(st.integers(1, 3)) for _ in range(n))
    cols = [tuple(1 if i == j else 0 for i in range(n)) for j in range(n)]
    extra = tuple(draw(st.integers(-2, 2)) for _ in range(n))
    if extra != (0,) * n and extra not in cols:
        cols.append(extra)
    algo = UniformDependenceAlgorithm(
        index_set=ConstantBoundedIndexSet(mu),
        dependence_matrix=[list(row) for row in zip(*cols)],
        name=f"prop({mu})",
    )
    rows = draw(st.integers(1, n - 1))
    space = []
    for _ in range(rows):
        row = tuple(draw(st.integers(-2, 2)) for _ in range(n))
        space.append(row if any(row) else (1,) + (0,) * (n - 1))
    return algo, space


@st.composite
def high_corank_case(draw):
    """A 4-D/5-D algorithm with one or two space rows: co-rank 2 or 3.

    ``mu <= 2`` keeps the reference loop's rings small.
    """
    n = draw(st.integers(4, 5))
    corank = draw(st.integers(2, n - 2))
    mu = tuple(draw(st.integers(1, 2)) for _ in range(n))
    cols = [tuple(1 if i == j else 0 for i in range(n)) for j in range(n)]
    extra = tuple(draw(st.integers(-1, 1)) for _ in range(n))
    if extra != (0,) * n and extra not in cols:
        cols.append(extra)
    algo = UniformDependenceAlgorithm(
        index_set=ConstantBoundedIndexSet(mu),
        dependence_matrix=[list(row) for row in zip(*cols)],
        name=f"prop({mu})",
    )
    space = []
    for _ in range(n - 1 - corank):
        row = tuple(draw(st.integers(-1, 1)) for _ in range(n))
        space.append(row if any(row) else (1,) + (0,) * (n - 1))
    return algo, space


def _algorithm(mu, cols):
    return UniformDependenceAlgorithm(
        index_set=ConstantBoundedIndexSet(mu),
        dependence_matrix=[list(row) for row in zip(*cols)],
        name=f"prop({mu})",
    )


@st.composite
def random_dependence_case(draw):
    """A 2-D/3-D algorithm whose ``D`` columns are drawn from {-2..2}^n.

    The strategies above always include every unit column, so every
    coordinate of ``Pi`` is forced positive; here coordinates end up
    forced negative, partly forced or unforced.  A zero draw is dropped
    (the model rejects a zero dependence vector), so a case may have no
    dependences at all.
    """
    n = draw(st.integers(2, 3))
    mu = tuple(draw(st.integers(1, 3)) for _ in range(n))
    cols = draw(st.lists(
        st.tuples(*[st.integers(-2, 2)] * n), min_size=1, max_size=3, unique=True,
    ))
    algo = _algorithm(mu, [c for c in cols if any(c)])
    rows = draw(st.integers(1, n - 1))
    space = []
    for _ in range(rows):
        row = tuple(draw(st.integers(-2, 2)) for _ in range(n))
        space.append(row if any(row) else (1,) + (0,) * (n - 1))
    return algo, space


def reference_search(algo, space, max_bound=None, extra_constraint=None):
    """Procedure 5.1 as a plain loop: ``(winner, counters, ties)``.

    ``counters`` are the deterministic :class:`SearchStats` counters
    plus ``candidates_examined``; ``ties`` lists every conflict-free
    candidate of the winning ring with the winner's total time, in scan
    order (a ring spans ``alpha`` budgets, so it can hold slower ones).
    A conflict-free candidate that fails ``extra_constraint`` is
    checked but neither wins nor ties.
    """
    alpha, initial_bound, max_bound = search_bounds(algo, max_bound=max_bound)
    k = len(space) + 1

    def objective(pi):
        return sum(abs(v) * m for v, m in zip(pi, algo.mu))

    counters = dict.fromkeys(
        ("candidates_enumerated", "candidates_pruned", "candidates_checked",
         "conflicts_rejected", "candidates_examined"), 0,
    )
    for ring_index, (f_min, f_max) in enumerate(
        ring_bounds(initial_bound, alpha, max_bound)
    ):
        ring = sorted(
            enumerate_schedule_vectors(algo.mu, f_max, f_min=f_min),
            key=lambda pi: (objective(pi), pi),
        )
        counters["candidates_enumerated"] += len(ring)
        ties = []
        for pi in ring:
            if not LinearSchedule(pi=pi, index_set=algo.index_set).respects(algo):
                if not ties:
                    counters["candidates_pruned"] += 1
                continue
            t = MappingMatrix(space=space, schedule=pi)
            if not ties:
                counters["candidates_examined"] += 1
            if t.rank() != k:
                if not ties:
                    counters["candidates_pruned"] += 1
                continue
            free = is_conflict_free_kernel_box(t, algo.mu)
            if not ties:
                counters["candidates_checked"] += 1
                counters["conflicts_rejected"] += not free
            if free and (extra_constraint is None or extra_constraint(t)):
                ties.append(pi)
        if ties:
            counters["rings_expanded"] = ring_index
            best = objective(ties[0])
            return ties[0], counters, [pi for pi in ties if objective(pi) == best]
    counters["rings_expanded"] = ring_index + 1
    return None, counters, []


def summary(result):
    """What the reference loop can be compared on."""
    counters = dict(result.stats.counter_dict())
    del counters["routing_rejected"]
    counters["candidates_examined"] = result.candidates_examined
    return (result.schedule.pi if result.found else None), counters


def assert_every_path_equals_reference(algo, space, tmp_path, max_bound=None):
    winner, counters, ties = reference_search(algo, space, max_bound)
    serial = procedure_5_1(algo, space, max_bound=max_bound)
    assert summary(serial) == (winner, counters)
    if serial.found:
        assert serial.verdict == check_conflict_free(serial.mapping, algo.mu)
    ties_found = find_all_optima(algo, space, max_bound=max_bound)
    assert [r.schedule.pi for r in ties_found] == ties
    assert_engine_equals_procedure_5_1(algo, space, serial, max_bound=max_bound)
    journal = tmp_path / "run.ckpt"
    # A journaled run replays its decision; one stopped before its
    # first ring (a 1-bit ring budget) re-runs from the start.
    explore_schedule(
        algo, space, cache=None, max_bound=max_bound, checkpoint=journal
    )
    replayed = explore_schedule(
        algo, space, cache=None, max_bound=max_bound, checkpoint=journal,
        resume=True,
    )
    assert replayed == serial
    assert replayed.stats.counter_dict() == serial.stats.counter_dict()
    with pytest.raises(BudgetExceeded):
        explore_schedule(
            algo, space, cache=None, max_bound=max_bound, checkpoint=journal,
            budget=RunBudget(max_bits=1),
        )
    rerun = explore_schedule(
        algo, space, cache=None, max_bound=max_bound, checkpoint=journal,
        resume=True,
    )
    assert rerun == serial


def assert_engine_equals_procedure_5_1(algo, space, serial, **kwargs):
    """``explore_schedule`` is ``procedure_5_1`` behind the cache: the
    same result (dataclass ``==``), the same deterministic counters and
    the same work counters."""
    engine = explore_schedule(algo, space, cache=None, **kwargs)
    assert engine == serial
    assert engine.stats.counter_dict() == serial.stats.counter_dict()
    for name in ("batches_evaluated", "conflict_screens", "fastpath_promotions"):
        assert getattr(engine.stats, name) == getattr(serial.stats, name), name


class TestSearchEquivalence:
    @given(algorithm_and_space())
    @settings(max_examples=40, deadline=None)
    def test_procedure_5_1_batched_equals_scalar(self, case):
        algo, space = case
        winner, counters, _ties = reference_search(algo, space)
        serial = procedure_5_1(algo, space)
        assert summary(serial) == (winner, counters)
        assert_engine_equals_procedure_5_1(algo, space, serial)

    @given(case=algorithm_and_space())
    @settings(max_examples=8, deadline=None)
    def test_every_path_equals_reference(self, tmp_path_factory, case):
        algo, space = case
        assert_every_path_equals_reference(
            algo, space, tmp_path_factory.mktemp("journal")
        )

    @pytest.mark.parametrize(
        "algo,space",
        [
            (matrix_multiplication(4), ((1, 1, -1),)),
            (transitive_closure(4), ((0, 0, 1),)),
        ],
        ids=["example_5_1", "example_5_2"],
    )
    def test_paper_examples_every_path_equals_reference(self, algo, space, tmp_path):
        assert_every_path_equals_reference(algo, space, tmp_path)

    @given(algorithm_and_space())
    @example((  # alpha = 2: (3, 1, 3) shares the ring but is one step slower
        UniformDependenceAlgorithm(
            index_set=ConstantBoundedIndexSet((2, 2, 3)),
            dependence_matrix=[[1, 0, 0, 0], [0, 1, 0, -2], [0, 0, 1, 1]],
        ),
        [(0, 1, 1)],
    ))
    @settings(max_examples=15, deadline=None)
    def test_tie_order_preserved(self, case):
        algo, space = case
        _winner, _counters, ties = reference_search(algo, space)
        assert [r.schedule.pi for r in find_all_optima(algo, space)] == ties

    @given(algorithm_and_space(), st.sampled_from(["auto", "paper"]))
    @settings(max_examples=30, deadline=None)
    def test_scanner_stage_codes_match_scalar_funnel(self, case, method):
        assert_stage_codes_match_scalar_funnel(*case, method)

    @given(high_corank_case(), st.sampled_from(["auto", "paper"]))
    @settings(max_examples=30, deadline=None)
    def test_high_corank_stage_codes_match_scalar_funnel(self, case, method):
        assert_stage_codes_match_scalar_funnel(*case, method)

    @given(case=random_dependence_case())
    @example(case=(_algorithm((2, 3), [(-1, 0), (1, -1)]), [(1, 1)]))  # (-, -)
    @example(case=(_algorithm((2, 2, 3), [(1, 0, 0), (1, 1, 0)]), [(0, 1, 1)]))
    @example(case=(_algorithm((3, 2), [(1, 1), (1, -1)]), [(1, 2)]))  # unforced
    @example(case=(_algorithm((2, 2), []), [(1, -1)]))  # no dependences
    @settings(max_examples=12, deadline=None)
    def test_random_dependences_every_path_equals_reference(
        self, tmp_path_factory, case
    ):
        # Twice the all-ones objective bounds the reference loop's rings:
        # a D that no Pi can satisfy ends without a winner.
        algo, space = case
        assert_every_path_equals_reference(
            algo, space, tmp_path_factory.mktemp("journal"),
            max_bound=2 * sum(algo.mu),
        )

    @given(random_dependence_case(), st.sampled_from(["auto", "paper"]))
    @settings(max_examples=30, deadline=None)
    def test_random_dependences_stage_codes_match_scalar_funnel(self, case, method):
        assert_stage_codes_match_scalar_funnel(*case, method)

    @given(algorithm_and_space(), st.sampled_from(["auto", "paper"]))
    @settings(max_examples=15, deadline=None)
    def test_stacked_search_equals_reference_per_space(self, case, method):
        algo, _space = case
        assert_stacked_search_equals_reference(algo, method)

    @given(
        high_corank_case().filter(lambda case: case[0].n == 4),
        st.sampled_from(["auto", "paper"]),
    )
    @settings(max_examples=2, deadline=None)
    def test_high_corank_stacked_search_equals_reference(self, case, method):
        # n = 4 keeps the reference loop over all 40 S (co-rank 2) fast.
        algo, _space = case
        assert_stacked_search_equals_reference(
            algo, method, max_bound=2 * sum(algo.mu)
        )

    @given(random_dependence_case(), st.sampled_from(["auto", "paper"]))
    @example((_algorithm((2, 2, 3), [(1, 0, 0), (1, 1, 0)]), []), "paper")
    @example(
        (_algorithm((2, 1, 1, 2), [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0),
                                   (0, 0, 0, 1)]), []),
        "paper",
    )
    @settings(max_examples=10, deadline=None)
    def test_stacked_search_with_max_bound_and_extra_constraint(self, case, method):
        # The constraint rejects some conflict-free rows, so an S's scan
        # goes on past an ok code (under "paper" at co-rank >= 2, the
        # 4-D example, with a judge call of that S alone); max_bound
        # lets searches end without a winner.
        algo, _space = case
        assert_stacked_search_equals_reference(
            algo, method, max_bound=2 * sum(algo.mu),
            extra_constraint=lambda t: t.schedule[0] % 2 == 0,
        )

    @given(case=high_corank_case())
    @settings(max_examples=5, deadline=None)
    def test_high_corank_every_path_equals_reference(self, tmp_path_factory, case):
        # A budget of twice the all-ones schedule's objective bounds the
        # reference loop's rings; searches may end without a winner.
        algo, space = case
        assert_every_path_equals_reference(
            algo, space, tmp_path_factory.mktemp("journal"),
            max_bound=2 * sum(algo.mu),
        )


def assert_stacked_search_equals_reference(algo, method="auto", **kwargs):
    """One stacked search over every ``S`` of Problem 6.2's design space
    (``array_dim`` 1) gives each ``S`` the one-``S`` search's result and
    work counters, and the reference loop's winner and counters.

    The paper's dispatch is compared with the kernel-box oracle's
    reference where it is exact (co-rank <= 1).
    """
    spaces = list(enumerate_space_mappings(algo.n, 1))
    stacked = procedure_5_1_stacked(algo, spaces, method=method, **kwargs)
    assert len(stacked) == len(spaces)
    for space, result in zip(spaces, stacked):
        single = procedure_5_1(algo, space, method=method, **kwargs)
        assert result == single
        assert_engine_equals_procedure_5_1(
            algo, space, single, method=method, **kwargs
        )
        for name in ("batches_evaluated", "conflict_screens"):
            assert getattr(result.stats, name) == getattr(single.stats, name), name
        if method == "auto" or algo.n - len(space) <= 2:
            winner, counters, _ties = reference_search(algo, space, **kwargs)
            assert summary(result) == (winner, counters)


def assert_stage_codes_match_scalar_funnel(algo, space, method):
    """The scanner's codes for a whole ring equal the one-by-one funnel.

    ``auto`` verdicts are the kernel-box oracle's; ``paper`` verdicts
    are the paper's own dispatch, one candidate at a time.
    """
    f_max = sum(algo.mu) + 2
    pis = ring_candidate_array(algo.mu, f_max)
    scanner = BatchCandidateScanner(algo, space, method=method)
    batched = [STAGE_NAMES[c] for c in scanner.stages(pis).tolist()]
    k = len(space) + 1
    expected = []
    for row in pis:
        pi = tuple(int(v) for v in row)
        cand = LinearSchedule(pi=pi, index_set=algo.index_set)
        if not cand.respects(algo):
            expected.append("deps")
            continue
        t = MappingMatrix(space=space, schedule=pi)
        if t.rank() != k:
            expected.append("rank")
            continue
        if method == "auto":
            holds = is_conflict_free_kernel_box(t, algo.mu)
        else:
            holds = check_conflict_free(t, algo.mu, method=method).holds
        expected.append("ok" if holds else "conflict")
    assert batched == expected


def assert_design_batch_matches_scalar(algo, spaces, pi):
    """Batched outcomes equal the scalar judge's; the conflict verdicts
    are the kernel-box oracle's."""
    outcomes, batches, promoted = evaluate_designs_batched(algo, spaces, pi)
    assert outcomes == [evaluate_design(algo, s, pi) for s in spaces]
    assert (batches, promoted) == (1, 0)
    for space, (status, _design) in zip(spaces, outcomes):
        if status != "rank":
            t = MappingMatrix(space=space, schedule=pi)
            assert (status != "conflict") == is_conflict_free_kernel_box(t, algo.mu)


class TestSpaceEquivalence:
    @given(algorithm_and_space())
    @settings(max_examples=20, deadline=None)
    def test_design_batch_matches_scalar(self, case):
        algo, _ = case
        pi = tuple(1 for _ in range(algo.n))  # respects unit deps by design
        if not LinearSchedule(pi=pi, index_set=algo.index_set).respects(algo):
            return
        spaces = list(enumerate_space_mappings(algo.n, 1, 1))
        assert_design_batch_matches_scalar(algo, spaces, pi)

    @given(high_corank_case(), st.sampled_from([1, 2]), st.integers(0, 2**16))
    @settings(max_examples=20, deadline=None)
    def test_high_corank_design_batch_matches_scalar(self, case, array_dim, seed):
        # Problem 6.1 on a 4-D/5-D algorithm: ker Pi has dimension 3-4,
        # so the table screen runs at co-rank 2-4.  A seeded sample of
        # the design space keeps the scalar reference loop fast.
        algo, _ = case
        pi = tuple(1 for _ in range(algo.n))
        if not LinearSchedule(pi=pi, index_set=algo.index_set).respects(algo):
            return
        spaces = list(enumerate_space_mappings(algo.n, array_dim, 1))
        spaces = random.Random(seed).sample(spaces, min(40, len(spaces)))
        assert_design_batch_matches_scalar(algo, spaces, pi)


class TestPromotionBoundary:
    MAT = [[2, -1], [1, 3]]

    @given(st.lists(st.integers(-3, 3), min_size=1, max_size=8))
    @settings(max_examples=60)
    def test_matmul_exact_across_boundary(self, offsets):
        # Rows sit within a few units of the certification threshold:
        # some certified, some promoted, all bit-exact.
        mat = as_intmat(self.MAT)
        thr = INT64_MAX // (mat.max_abs() * mat.nrows)
        rows = [[thr + off, -(thr + off) // 2] for off in offsets]
        out, promoted = batch_matmul(rows, self.MAT)
        cols = mat.columns()
        expected = [
            [sum(a * b for a, b in zip(row, col)) for col in cols]
            for row in rows
        ]
        assert [list(r) for r in out] == expected
        assert promoted == sum(
            1 for row in rows if max(abs(x) for x in row) > thr
        )

    @given(
        st.lists(
            st.tuples(st.integers(-3, 3), st.integers(0, 3), st.integers(-3, 3)),
            min_size=1, max_size=8,
        ),
        st.integers(1, 2),
    )
    @settings(max_examples=60, deadline=None)
    def test_schedule_table_screen_boundary(self, rows, mu_entry):
        # ker S = {x : x_0 = 0} for S = e_0, so pi_0 can sit right at the
        # table screen's certification threshold while Pi . x stays
        # small enough to land on either verdict.
        space, mu = [[1, 0, 0, 0]], (mu_entry,) * 4
        table = box_kernel_table(space, mu)
        thr = INT64_MAX // (int(np.abs(table).max()) * 4)
        pis = [[thr + off, 1, a, b] for off, a, b in rows]
        free, promoted = box_kernel_screen(np.array(pis)[:, None, :], table)
        assert promoted == sum(1 for p in pis if p[0] > thr)
        assert free.tolist() == [
            is_conflict_free_kernel_box(MappingMatrix(space=space, schedule=p), mu)
            for p in pis
        ]

    @given(
        st.lists(
            st.tuples(st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3)),
            min_size=1, max_size=8,
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_space_table_screen_boundary(self, rows):
        # Problem 6.1 with Pi = (1, 2, 1): every table point with x_0 != 0
        # is separated by a huge s_0, so the verdict turns on (0, 1, -2).
        pi, mu = (1, 2, 1), (2, 2, 2)
        table = box_kernel_table([pi], mu)
        thr = INT64_MAX // (int(np.abs(table).max()) * 3)
        spaces = [[[thr + off, a, b], [0, 1, 0]] for off, a, b in rows]
        free, promoted = box_kernel_screen(np.array(spaces), table)
        assert promoted == sum(1 for s in spaces if s[0][0] > thr)
        assert free.tolist() == [
            is_conflict_free_kernel_box(MappingMatrix(space=s, schedule=pi), mu)
            for s in spaces
        ]


class TestBoxKernelTable:
    """The table is the brute-force sweep of the box, one per +- pair."""

    @staticmethod
    def bruteforce(fixed, mu):
        points = set()
        for x in itertools.product(*(range(-m, m + 1) for m in mu)):
            if any(x) and all(sum(f * v for f, v in zip(row, x)) == 0 for row in fixed):
                lead = next(v for v in x if v)
                points.add(tuple(v if lead > 0 else -v for v in x))
        return points

    @given(
        st.integers(2, 4).flatmap(lambda n: st.tuples(
            st.lists(
                st.lists(st.integers(-3, 3), min_size=n, max_size=n),
                min_size=0, max_size=n,
            ),
            st.lists(st.integers(0, 2), min_size=n, max_size=n),
        ))
    )
    @settings(max_examples=80, deadline=None)
    def test_equals_bruteforce_sweep(self, case):
        fixed, mu = case
        assume(not fixed or rank(fixed) == len(fixed))
        table = box_kernel_table(fixed, mu)
        assert table.shape[1] == len(mu) and table.dtype == np.int64
        assert len({tuple(x) for x in table.tolist()}) == len(table)
        assert {tuple(x) for x in table.tolist()} == self.bruteforce(fixed, mu)

    def test_kernel_missing_the_box_gives_an_empty_table(self):
        table = box_kernel_table([[1, 3]], (2, 2))  # ker = (3, -1) Z
        assert table.shape == (0, 2)
        free, promoted = box_kernel_screen(np.array([[[0, 0]]]), table)
        assert free.tolist() == [True] and promoted == 0

    def test_fixed_rows_without_kernel(self):
        assert box_kernel_table([[1, 0], [0, 1]], (3, 3)).shape == (0, 2)

    def test_no_fixed_rows_is_the_whole_box(self):
        assert len(box_kernel_table([], (1, 1, 1))) == (3**3 - 1) // 2


class TestRingShells:
    """``ring_candidate_array`` is the walker's ring, in scan order."""

    @staticmethod
    def walker_ring(mu, f_max, f_min):
        return sorted(
            enumerate_schedule_vectors(mu, f_max, f_min=f_min),
            key=lambda pi: (sum(abs(v) * m for v, m in zip(pi, mu)), pi),
        )

    @given(
        st.lists(st.integers(1, 4), min_size=1, max_size=5),
        st.integers(-1, 7),
        st.integers(0, 9),
    )
    @settings(max_examples=80, deadline=None)
    def test_equals_sorted_walker(self, mu, f_max, f_min):
        if len(mu) >= 4:
            f_max = min(f_max, 5)
        ring = ring_candidate_array(mu, f_max, f_min=f_min)
        expected = self.walker_ring(mu, f_max, f_min)
        assert ring.shape == (len(expected), len(mu))
        assert [tuple(row) for row in ring.tolist()] == expected

    @given(
        st.lists(st.integers(1, 4), min_size=1, max_size=5),
        st.integers(-1, 9),
        st.integers(0, 9),
    )
    @settings(max_examples=80, deadline=None)
    def test_ring_size_equals_walker_count(self, mu, f_max, f_min):
        if len(mu) >= 4:
            f_max = min(f_max, 6)
        assert ring_size(mu, f_max, f_min) == len(self.walker_ring(mu, f_max, f_min))

    @given(
        st.lists(st.tuples(st.integers(1, 4), st.integers(-1, 1)), min_size=1, max_size=4),
        st.integers(-1, 9),
        st.integers(0, 9),
    )
    @example(coords=[(2, 1), (1, 0), (3, -1)], f_max=9, f_min=3)
    @settings(max_examples=80, deadline=None)
    def test_forced_signs_keep_the_walker_rows_of_those_signs(self, coords, f_max, f_min):
        mu = [m for m, _ in coords]
        signs = [s for _, s in coords]
        ring = ring_candidate_array(mu, f_max, f_min=f_min, signs=signs)
        expected = [
            pi for pi in self.walker_ring(mu, f_max, f_min)
            if all(s == 0 or v * s > 0 for v, s in zip(pi, signs))
        ]
        assert ring.shape == (len(expected), len(mu))
        assert [tuple(row) for row in ring.tolist()] == expected

    @given(random_dependence_case())
    @settings(max_examples=40, deadline=None)
    def test_rows_left_out_fail_the_dependence_test(self, case):
        algo, _space = case
        signs = forced_signs(algo.dependence_vectors(), algo.n)
        f_max = 2 * sum(algo.mu)
        built = {
            tuple(row)
            for row in ring_candidate_array(algo.mu, f_max, signs=signs).tolist()
        }
        for pi in enumerate_schedule_vectors(algo.mu, f_max):
            if pi not in built:
                assert not LinearSchedule(pi=pi, index_set=algo.index_set).respects(algo)

    def test_huge_coprime_mu_counts_without_a_table(self):
        # gcd(mu) = 1 and budgets past 2^31: ring_size and the winner's
        # rank fall back to building the full ring, and the counters
        # still equal the reference loop's.
        mu = (2**30, 2**30 + 1)
        assert ring_size(mu, 2**31 + 1) == len(self.walker_ring(mu, 2**31 + 1, 0))
        algo = _algorithm(mu, [(1, 0), (0, 1)])
        winner, counters, _ties = reference_search(algo, [(1, 0)], max_bound=2**31 + 1)
        assert winner == (1, 1)
        assert summary(procedure_5_1(algo, [(1, 0)], max_bound=2**31 + 1)) == (
            winner, counters,
        )

    @pytest.mark.parametrize("mu,f_max,f_min", [
        ((2, 3, 1), 6, 0),   # f_min = 0: the whole ball minus the origin
        ((3, 3), 2, 1),      # no budget in [1, 2] is a multiple of 3
        ((1, 2), 3, 5),      # f_min > f_max
        ((2,), -1, 0),       # negative budget
    ])
    def test_edge_rings(self, mu, f_max, f_min):
        ring = ring_candidate_array(mu, f_max, f_min=f_min)
        expected = self.walker_ring(mu, f_max, f_min)
        assert [tuple(row) for row in ring.tolist()] == expected
        assert ring.shape == (len(expected), len(mu))


@st.composite
def corank1_case(draw):
    """A co-rank-1 ``[S; Pi]`` (full rank or not) and a box ``mu``."""
    n = draw(st.integers(2, 4))
    mu = tuple(draw(st.integers(1, 4)) for _ in range(n))
    entry = st.integers(-3, 3)
    space = [[draw(entry) for _ in range(n)] for _ in range(n - 2)]
    if space and draw(st.booleans()):
        col = draw(st.integers(0, n - 1))
        for row in space:
            row[col] = 0
    pi = [draw(entry) for _ in range(n)]
    return space, pi, mu


def adjugate_screen(pis, adj, mu):
    """The scanner's co-rank-1 screen: the conflict vectors
    ``pis @ adj`` judged by Theorem 2.2; returns (free, promoted)."""
    gamma, promoted = batch_matmul(pis, adj)
    return conflict_vector_verdicts(gamma, mu), promoted


class TestAdjugateScreen:
    """The paper's screen equals the kernel-box oracle at co-rank 1."""

    @staticmethod
    def oracle(space, pi, mu):
        t = MappingMatrix(space=space, schedule=pi)
        if t.rank() != len(pi) - 1:
            return False  # rank-deficient: the funnel's rank stage
        return is_conflict_free_kernel_box(t, mu)

    @given(corank1_case())
    @settings(max_examples=150, deadline=None)
    def test_matches_kernel_box(self, case):
        space, pi, mu = case
        adj = adjugate_conflict_matrix(space, len(pi))
        free, promoted = adjugate_screen(np.array([pi], dtype=np.int64), adj, mu)
        assert promoted == 0
        assert bool(free[0]) == self.oracle(space, pi, mu)

    @given(
        st.lists(
            st.tuples(st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3)),
            min_size=1, max_size=6,
        ),
        st.integers(1, 3),
    )
    @settings(max_examples=60, deadline=None)
    def test_exact_across_int64_promotion(self, rows, mu_entry):
        # S = e_1 leaves gamma blind to pi_1, so pi_1 can sit right at
        # the certification threshold while gamma stays small enough to
        # land on either verdict.
        space = [[1, 0, 0]]
        adj = adjugate_conflict_matrix(space, 3)
        thr = INT64_MAX // (adj.max_abs() * adj.nrows)
        pis = [[thr + off, a, b] for off, a, b in rows]
        mu = (mu_entry,) * 3
        free, promoted = adjugate_screen(pis, adj, mu)
        assert promoted == sum(1 for p in pis if p[0] > thr)
        assert [bool(x) for x in free] == [
            self.oracle(space, p, mu) for p in pis
        ]

    def test_two_dimensional_without_space_rows(self):
        adj = adjugate_conflict_matrix([], 2)
        pis = np.array([[1, 3], [1, 2], [2, 4], [0, 0]], dtype=np.int64)
        free, _ = adjugate_screen(pis, adj, (2, 2))
        assert free.tolist() == [
            self.oracle([], list(p), (2, 2)) for p in pis.tolist()
        ]
        assert free.tolist() == [True, False, False, False]
