"""Unit tests for repro.systolic.cost (the VLSI cost model)."""

import pytest

from repro.core import MappingMatrix
from repro.model import matrix_multiplication, transitive_closure
from repro.systolic import ArrayCost, evaluate_cost, processor_count, wire_length


class TestProcessorCount:
    def test_matmul_linear(self):
        algo = matrix_multiplication(4)
        t = MappingMatrix(space=((1, 1, -1),), schedule=(1, 4, 1))
        # j1 + j2 - j3 over [0,4]^3 covers [-4, 8]: 13 PEs.
        assert processor_count(algo, t) == 13

    def test_tc_linear(self):
        algo = transitive_closure(4)
        t = MappingMatrix(space=((0, 0, 1),), schedule=(5, 1, 1))
        assert processor_count(algo, t) == 5

    def test_zero_d(self):
        algo = matrix_multiplication(2)
        t = MappingMatrix(space=(), schedule=(1, 3, 9))
        assert processor_count(algo, t) == 1

    def test_sparse_image(self):
        """A row with stride 2 leaves holes: count actual PEs, not span."""
        algo = matrix_multiplication(2)
        t = MappingMatrix(space=((2, 0, 0),), schedule=(1, 1, 1))
        assert processor_count(algo, t) == 3  # {0, 2, 4}


class TestWireLength:
    def test_matmul_channels(self):
        algo = matrix_multiplication(4)
        t = MappingMatrix(space=((1, 1, -1),), schedule=(1, 4, 1))
        length = wire_length(algo, t)
        # Links actually traversed: each channel's producers are the
        # index points with an in-set consumer (one coordinate capped at
        # mu - 1), whose PE image spans 12 positions: 3 channels x 12.
        assert length == 3 * 12

    def test_local_channel_contributes_nothing(self):
        algo = transitive_closure(4)
        t = MappingMatrix(space=((0, 0, 1),), schedule=(5, 1, 1))
        length = wire_length(algo, t)
        # d2 = (0,1,0) has S d2 = 0: a PE-local channel, no wire.
        from repro.systolic import plan_interconnection

        plan = plan_interconnection(algo, t)
        assert plan.hops(1) == 0
        nonlocal_channels = sum(1 for i in range(5) if plan.hops(i) > 0)
        # Each non-local channel's producer PEs span 4 positions
        # (the consumer constraint caps one coordinate at mu - 1).
        assert length == nonlocal_channels * 4


class TestEvaluate:
    def test_full_sheet(self):
        algo = matrix_multiplication(4)
        t = MappingMatrix(space=((1, 1, -1),), schedule=(1, 4, 1))
        cost = evaluate_cost(algo, t)
        assert cost.processors == 13
        assert cost.buffers == 3
        assert cost.total_time == 25
        assert cost.wire_length == 36

    @pytest.mark.parametrize(
        "mu, expected",
        [
            (6, ArrayCost(processors=19, wire_length=54, buffers=5, total_time=49)),
            (10, ArrayCost(processors=31, wire_length=90, buffers=9, total_time=121)),
        ],
    )
    def test_example_5_1_sheets(self, mu, expected):
        """Example 5.1, ``S = [1, 1, -1]``, ``Pi = [1, mu, 1]``."""
        t = MappingMatrix(space=((1, 1, -1),), schedule=(1, mu, 1))
        assert evaluate_cost(matrix_multiplication(mu), t) == expected

    def test_combined_default_weights(self):
        algo = matrix_multiplication(2)
        t = MappingMatrix(space=((1, 1, -1),), schedule=(1, 2, 1))
        cost = evaluate_cost(algo, t)
        assert cost.combined() == cost.processors + cost.wire_length

    def test_combined_custom_weights(self):
        algo = matrix_multiplication(2)
        t = MappingMatrix(space=((1, 1, -1),), schedule=(1, 2, 1))
        cost = evaluate_cost(algo, t)
        assert cost.combined(
            processor_weight=0, wire_weight=0, buffer_weight=1, time_weight=1
        ) == cost.buffers + cost.total_time

    def test_smaller_design_costs_less(self):
        """The CLI demo's observation: S = [0,1,-1] beats [1,1,-1]."""
        algo = matrix_multiplication(2)
        small = evaluate_cost(
            algo, MappingMatrix(space=((0, 1, -1),), schedule=(1, 2, 1))
        )
        paper = evaluate_cost(
            algo, MappingMatrix(space=((1, 1, -1),), schedule=(1, 2, 1))
        )
        assert small.processors < paper.processors
        assert small.combined() < paper.combined()
