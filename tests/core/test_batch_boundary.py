"""Regression tests at the int64 edges of the ring driver.

Ring budgets are int64 end to end (the ring builder's sort keys and
candidate entries), so the old 2^31 batch cutoff is gone: budgets of
2^31 - 1, 2^31 and 2^31 + 1 all run the one vectorized driver and must
agree with the scalar reference loop (:func:`enumerate_schedule_vectors`
plus the kernel-box oracle).  A ``max_bound`` past ``INT64_MAX`` is a
``ValueError``.  The box-kernel screen certifies each candidate row
against its table and promotes exactly the rows past that bound, in
Procedure 5.1's scanner and in Problem 6.1's design judge alike.

The search fixture keeps huge-``mu`` runs cheap by construction: with
``n == 2``, identity dependences and one space row, ``[S; Pi]`` is
square, so the conflict stage never materializes the 2^60-point index
set — the ring at budget 2^31 holds a couple dozen candidates total.
"""

import numpy as np
import pytest

from repro.core.conflict import box_kernel_table, is_conflict_free_kernel_box
from repro.core.mapping import MappingMatrix
from repro.core.optimize import (
    STAGE_NAMES,
    BatchCandidateScanner,
    enumerate_schedule_vectors,
    procedure_5_1,
)
from repro.core.space_optimize import evaluate_design, evaluate_designs_batched
from repro.dse.executor import explore_schedule
from repro.intlin import INT64_MAX
from repro.model import (
    ConstantBoundedIndexSet,
    UniformDependenceAlgorithm,
    matrix_multiplication,
)

BOUNDARY = 2**31
MU = 2**30

SPACE = [[1, 0]]


#: One dependence ``(1, 1)``: unlike the identity, it forces no sign of
#: ``Pi``, so the ring builder keeps every row of the ring.
UNFORCED = ((1,), (1,))


def boundary_algorithm(dependences=((1, 0), (0, 1))) -> UniformDependenceAlgorithm:
    return UniformDependenceAlgorithm(
        index_set=ConstantBoundedIndexSet((MU, MU)),
        dependence_matrix=dependences,
        name="boundary",
    )


def run(max_bound: int, algo=None, **kwargs):
    # One ring covering [0, max_bound]: initial_bound == max_bound.
    return procedure_5_1(
        algo or boundary_algorithm(), SPACE,
        initial_bound=max_bound, max_bound=max_bound, alpha=1, **kwargs,
    )


def reference_winner(max_bound: int, algo=None):
    """The scalar reference loop over the same single ring."""
    algo = algo or boundary_algorithm()
    ring = sorted(
        enumerate_schedule_vectors(algo.mu, max_bound),
        key=lambda pi: (sum(abs(v) * m for v, m in zip(pi, algo.mu)), pi),
    )
    for pi in ring:
        if not algo.is_acyclic_under(pi):
            continue
        t = MappingMatrix(space=SPACE, schedule=pi)
        if t.rank() == 2 and is_conflict_free_kernel_box(t, algo.mu):
            return pi
    return None


class TestBoundaryBudgets:
    @pytest.mark.parametrize(
        "max_bound", [BOUNDARY - 1, BOUNDARY, BOUNDARY + 1]
    )
    def test_batched_equals_scalar(self, max_bound):
        result = run(max_bound)
        expected = reference_winner(max_bound)
        assert (result.schedule.pi if result.found else None) == expected

    def test_below_boundary_no_winner_fits_the_budget(self):
        # Both dependences force pi >= (1, 1), whose objective is
        # exactly 2^31 — one more than this budget allows.  The sign
        # forcing leaves no row of the ring to build: its four rows
        # (+-1, 0), (0, +-1) all count as pruned, and no batch runs.
        result = run(BOUNDARY - 1)
        assert not result.found
        stats = result.stats
        assert stats.candidates_enumerated == stats.candidates_pruned == 4
        assert stats.batches_evaluated == 0

    def test_below_boundary_unforced_ring_is_batched(self):
        # D = (1, 1) forces no sign, so all four rows of the budget
        # 2^31 - 1 ring are built and judged in one batch.
        algo = boundary_algorithm(UNFORCED)
        result = run(BOUNDARY - 1, algo)
        assert result.schedule.pi == reference_winner(BOUNDARY - 1, algo) == (0, 1)
        assert result.stats.batches_evaluated == 1

    def test_at_boundary_still_batched(self):
        result = run(BOUNDARY)
        assert result.found
        assert result.schedule.pi == (1, 1)
        assert result.total_time == BOUNDARY + 1
        assert result.stats.batches_evaluated > 0

    def test_past_boundary_same_winner(self):
        at = run(BOUNDARY)
        past = run(BOUNDARY + 1)
        assert past.found
        assert past.schedule.pi == at.schedule.pi == (1, 1)
        assert past.total_time == at.total_time
        assert past.stats.batches_evaluated > 0


class TestInt64Budget:
    def test_max_bound_at_int64_max_is_accepted(self):
        algo = boundary_algorithm()
        result = procedure_5_1(
            algo, SPACE, initial_bound=BOUNDARY, max_bound=INT64_MAX
        )
        assert result.schedule.pi == (1, 1)

    @pytest.mark.parametrize("search", [procedure_5_1, explore_schedule])
    def test_max_bound_past_int64_max_raises(self, search):
        with pytest.raises(ValueError, match="INT64_MAX"):
            search(
                matrix_multiplication(2), [[1, 1, -1]], max_bound=INT64_MAX + 1
            )


def table_threshold(fixed, mu):
    """Largest row magnitude the screen certifies: ``max|v| * max|X| * n``."""
    table = box_kernel_table(fixed, mu)
    return INT64_MAX // (int(np.abs(table).max()) * len(mu))


class TestBoxKernelScreenCertification:
    """Rows a few units either side of the table screen's int64 bound
    get exact verdicts, and exactly the rows past it are promoted."""

    OFFSETS = range(-3, 4)

    def test_schedule_rows_across_threshold(self):
        # ker S = {x : x_0 = 0}, so pi_0 never decides a verdict and can
        # sit at the bound; identity dependences and rank kernel stay
        # far below their own bounds, so every promotion is the screen's.
        mu, space = (2, 2, 2, 2), [[1, 0, 0, 0]]
        algo = UniformDependenceAlgorithm(
            index_set=ConstantBoundedIndexSet(mu),
            dependence_matrix=[[int(i == j) for j in range(4)] for i in range(4)],
            name="screen-boundary",
        )
        thr = table_threshold(space, mu)
        tails = [(1, 1, 1), (1, 2, 4), (1, 3, 9), (2, 2, 1)]
        pis = [[thr + off, *tail] for off in self.OFFSETS for tail in tails]
        scanner = BatchCandidateScanner(algo, space)
        codes = [STAGE_NAMES[c] for c in scanner.stages(np.array(pis)).tolist()]
        assert codes == [
            "ok" if is_conflict_free_kernel_box(
                MappingMatrix(space=space, schedule=pi), mu
            ) else "conflict"
            for pi in pis
        ]
        assert {"ok", "conflict"} <= set(codes)
        assert scanner.stats.fastpath_promotions == 3 * len(tails)

    def test_space_rows_across_threshold(self):
        # Problem 6.1, Pi = (1, 2, 1): a huge s_0 separates every table
        # point with x_0 != 0, so the verdict turns on (0, 1, -2).
        algo, pi = matrix_multiplication(2), (1, 2, 1)
        thr = table_threshold([pi], algo.mu)
        spaces = [
            [[thr + off, a, b]] for off in self.OFFSETS for a, b in [(2, 1), (1, 1)]
        ]
        outcomes, batches, promoted = evaluate_designs_batched(algo, spaces, pi)
        assert outcomes == [evaluate_design(algo, s, pi) for s in spaces]
        # (2, 1) is orthogonal to (0, 1, -2); (1, 1) is conflict-free
        # but its huge S d violates Equation 2.3.
        assert [status for status, _ in outcomes] == (
            ["conflict", "routing"] * len(self.OFFSETS)
        )
        assert (batches, promoted) == (1, 3 * 2)
