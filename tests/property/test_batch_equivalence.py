"""Property tests: every search path equals the scalar reference loop.

Procedure 5.1 has one ring driver and one vectorized evaluator; the
contract is that, for any algorithm/space pair, every way of running
it — ``procedure_5_1``, ``explore_schedule`` at ``jobs`` 1 and 2, and
an interrupted-then-resumed engine run — returns the winner, verdict,
tie set and deterministic counters of a plain reference loop:
:func:`enumerate_schedule_vectors` rings sorted by ``(f, Pi)`` and
judged one candidate at a time by the kernel-box oracle.  The batch
primitives must also produce exact results on both sides of the int64
promotion boundary.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.conditions import check_conflict_free
from repro.core.conflict import (
    adjugate_conflict_matrix,
    batch_adjugate_screen,
    batch_distinct_image_counts,
    is_conflict_free_kernel_box,
)
from repro.core.mapping import MappingMatrix
from repro.core.optimize import (
    STAGE_NAMES,
    BatchCandidateScanner,
    enumerate_schedule_vectors,
    find_all_optima,
    procedure_5_1,
    ring_candidate_array,
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
from repro.dse.partition import ring_bounds
from repro.intlin import INT64_MAX, as_intmat, batch_matmul, batch_point_images
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


def reference_search(algo, space):
    """Procedure 5.1 as a plain loop: ``(winner, counters, ties)``.

    ``counters`` are the deterministic :class:`SearchStats` counters
    plus ``candidates_examined``; ``ties`` lists every conflict-free
    candidate of the winning ring, in scan order.
    """
    alpha, initial_bound, max_bound = search_bounds(algo)
    k = len(space) + 1
    counters = dict.fromkeys(
        ("candidates_enumerated", "candidates_pruned", "candidates_checked",
         "conflicts_rejected", "candidates_examined"), 0,
    )
    for ring_index, (f_min, f_max) in enumerate(
        ring_bounds(initial_bound, alpha, max_bound)
    ):
        ring = sorted(
            enumerate_schedule_vectors(algo.mu, f_max, f_min=f_min),
            key=lambda pi: (sum(abs(v) * m for v, m in zip(pi, algo.mu)), pi),
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
            if free:
                ties.append(pi)
        if ties:
            counters["rings_expanded"] = ring_index
            return ties[0], counters, ties
    counters["rings_expanded"] = ring_index + 1
    return None, counters, []


def summary(result):
    """What the reference loop can be compared on."""
    counters = dict(result.stats.counter_dict())
    del counters["routing_rejected"]
    counters["candidates_examined"] = result.candidates_examined
    return (result.schedule.pi if result.found else None), counters


def assert_every_path_equals_reference(algo, space, tmp_path):
    winner, counters, ties = reference_search(algo, space)
    serial = procedure_5_1(algo, space)
    assert summary(serial) == (winner, counters)
    if serial.found:
        assert serial.verdict == check_conflict_free(serial.mapping, algo.mu)
    assert [r.schedule.pi for r in find_all_optima(algo, space)] == ties
    one = explore_schedule(algo, space, jobs=1, cache=None)
    two = explore_schedule(algo, space, jobs=2, adaptive=False, cache=None)
    assert one == serial and two == serial
    for name in ("batches_evaluated", "conflict_screens", "fastpath_promotions"):
        assert getattr(one.stats, name) == getattr(serial.stats, name), name
    journal = tmp_path / "run.ckpt"
    try:
        explore_schedule(
            algo, space, jobs=1, adaptive=False, cache=None,
            checkpoint=journal, budget=RunBudget(max_shards=1),
        )
    except BudgetExceeded:
        pass
    resumed = explore_schedule(
        algo, space, jobs=1, adaptive=False, cache=None,
        checkpoint=journal, resume=True,
    )
    assert resumed == serial


class TestSearchEquivalence:
    @given(algorithm_and_space())
    @settings(max_examples=40, deadline=None)
    def test_procedure_5_1_batched_equals_scalar(self, case):
        algo, space = case
        winner, counters, _ties = reference_search(algo, space)
        assert summary(procedure_5_1(algo, space)) == (winner, counters)

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
    @settings(max_examples=15, deadline=None)
    def test_tie_order_preserved(self, case):
        algo, space = case
        _winner, _counters, ties = reference_search(algo, space)
        assert [r.schedule.pi for r in find_all_optima(algo, space)] == ties

    @given(algorithm_and_space(), st.sampled_from(["auto", "paper"]))
    @settings(max_examples=30, deadline=None)
    def test_scanner_stage_codes_match_scalar_funnel(self, case, method):
        algo, space = case
        f_max = sum(algo.mu) + 2
        pis = ring_candidate_array(algo.mu, f_max)
        scanner = BatchCandidateScanner(algo, space, method=method, batch_size=7)
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
            holds = check_conflict_free(t, algo.mu, method=method).holds
            expected.append("ok" if holds else "conflict")
        assert batched == expected


class TestSpaceEquivalence:
    @given(algorithm_and_space())
    @settings(max_examples=20, deadline=None)
    def test_design_batch_matches_scalar(self, case):
        algo, _ = case
        pi = tuple(1 for _ in range(algo.n))  # respects unit deps by design
        if not LinearSchedule(pi=pi, index_set=algo.index_set).respects(algo):
            return
        spaces = list(enumerate_space_mappings(algo.n, 1, 1))
        outcomes, batches, _promoted = evaluate_designs_batched(
            algo, spaces, pi
        )
        expected = [evaluate_design(algo, s, pi) for s in spaces]
        assert outcomes == expected
        assert batches >= 1


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

    @given(st.lists(st.integers(-3, 3), min_size=1, max_size=6))
    @settings(max_examples=60)
    def test_point_images_exact_across_boundary(self, offsets):
        pts = np.array([[0, 0], [1, 2], [2, 1]], dtype=np.int64)
        thr = INT64_MAX // (2 * 2)  # pts_max=2, n=2
        vecs = [[thr + off, off] for off in offsets]
        images, promoted = batch_point_images(pts, vecs)
        expected = [
            [sum(int(p) * v for p, v in zip(pt, vec)) for vec in vecs]
            for pt in pts
        ]
        assert [list(r) for r in images] == expected
        assert promoted == sum(
            1 for vec in vecs if max(abs(x) for x in vec) > thr
        )

    @given(
        st.lists(
            st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
            min_size=2,
            max_size=9,
        ),
        st.integers(1, 3),
    )
    @settings(max_examples=60)
    def test_distinct_counts_match_set_semantics(self, pairs, n_cands):
        fixed = np.array([[a] for a, _ in pairs], dtype=np.int64)
        varying = np.empty((len(pairs), n_cands, 1), dtype=np.int64)
        for c in range(n_cands):
            varying[:, c, 0] = [b * (c + 1) for _, b in pairs]
        counts = batch_distinct_image_counts(fixed, varying)
        for c in range(n_cands):
            expected = len({(a, b * (c + 1)) for a, b in pairs})
            assert counts[c] == expected

    def test_distinct_counts_overflow_returns_sentinel(self):
        # Spans too wide to key into int64 must refuse (-1), never wrap.
        fixed = np.array([[0], [INT64_MAX - 1]], dtype=np.int64)
        varying = np.array(
            [[[0]], [[INT64_MAX - 1]]], dtype=np.int64
        )
        counts = batch_distinct_image_counts(fixed, varying)
        assert counts.tolist() == [-1]


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
        free, promoted = batch_adjugate_screen(
            np.array([pi], dtype=np.int64), adj, mu
        )
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
        free, promoted = batch_adjugate_screen(pis, adj, mu)
        assert promoted == sum(1 for p in pis if p[0] > thr)
        assert [bool(x) for x in free] == [
            self.oracle(space, p, mu) for p in pis
        ]

    def test_two_dimensional_without_space_rows(self):
        adj = adjugate_conflict_matrix([], 2)
        pis = np.array([[1, 3], [1, 2], [2, 4], [0, 0]], dtype=np.int64)
        free, _ = batch_adjugate_screen(pis, adj, (2, 2))
        assert free.tolist() == [
            self.oracle([], list(p), (2, 2)) for p in pis.tolist()
        ]
        assert free.tolist() == [True, False, False, False]
