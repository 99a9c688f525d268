"""Unit tests for repro.systolic.interconnect (Def 2.2 condition 2)."""

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import MappingMatrix
from repro.model import (
    ConstantBoundedIndexSet,
    UniformDependenceAlgorithm,
    matrix_multiplication,
    transitive_closure,
)
from repro.systolic import (
    RoutingError,
    interconnect,
    nearest_neighbor_primitives,
    plan_interconnection,
)


class TestPrimitives:
    def test_dim1(self):
        assert nearest_neighbor_primitives(1) == [[1, -1]]

    def test_dim2_matches_paper(self):
        """The paper's P = [[0,0,1,-1],[1,-1,0,0]] up to column order."""
        p = nearest_neighbor_primitives(2)
        cols = {tuple(p[r][c] for r in range(2)) for c in range(4)}
        assert cols == {(0, 1), (0, -1), (1, 0), (-1, 0)}

    def test_dim0(self):
        assert nearest_neighbor_primitives(0) == []

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            nearest_neighbor_primitives(-1)


class TestPlanMatmul:
    """Example 5.1 / Figure 2: T = [[1,1,-1],[1,4,1]]."""

    def setup_method(self):
        self.algo = matrix_multiplication(4)
        self.t = MappingMatrix(space=((1, 1, -1),), schedule=(1, 4, 1))
        self.plan = plan_interconnection(self.algo, self.t)

    def test_sd_pk_identity(self):
        """S D == P K exactly."""
        from repro.intlin import matmul

        s = [list(r) for r in self.t.space]
        d = [list(r) for r in self.algo.dependence_matrix]
        p = [list(r) for r in self.plan.primitives]
        k = [list(r) for r in self.plan.usage]
        assert matmul(s, d) == matmul(p, k)

    def test_figure2_buffers(self):
        """Three buffers on the A link (d2), none elsewhere."""
        assert self.plan.buffers == (0, 3, 0)
        assert self.plan.total_buffers == 3

    def test_hop_counts(self):
        assert [self.plan.hops(i) for i in range(3)] == [1, 1, 1]

    def test_equation_2_3(self):
        """sum_j k_ji <= Pi d_i for every dependence."""
        for i, d in enumerate(self.algo.dependence_vectors()):
            assert self.plan.hops(i) <= self.t.time(d)

    def test_statically_collision_free(self):
        assert self.plan.statically_collision_free()

    def test_usage_columns_shape(self):
        cols = self.plan.usage_columns()
        assert len(cols) == 3
        assert all(len(c) == 2 for c in cols)  # r = 2 primitives in 1-D


class TestPlanTC:
    """Example 5.2: T = [[0,0,1],[5,1,1]]."""

    def setup_method(self):
        self.algo = transitive_closure(4)
        self.t = MappingMatrix(space=((0, 0, 1),), schedule=(5, 1, 1))
        self.plan = plan_interconnection(self.algo, self.t)

    def test_displacements(self):
        """S D = [1, 0, -1, 0, -1] (paper, Example 5.2)."""
        from repro.intlin import matvec

        s = [list(self.t.space[0])]
        disp = [
            matvec(s, list(d))[0] for d in self.algo.dependence_vectors()
        ]
        assert disp == [1, 0, -1, 0, -1]

    def test_buffer_budget(self):
        for i, d in enumerate(self.algo.dependence_vectors()):
            assert self.plan.buffers[i] == self.t.time(d) - self.plan.hops(i)
            assert self.plan.buffers[i] >= 0

    def test_statically_collision_free(self):
        assert self.plan.statically_collision_free()


class TestRoutingErrors:
    def test_budget_too_tight(self):
        """A displacement farther than the schedule allows must fail."""
        algo = matrix_multiplication(2)
        # S d1 = 5 but Pi d1 = 1: cannot make 5 hops in 1 cycle.
        t = MappingMatrix(space=((5, 0, 0),), schedule=(1, 1, 1))
        with pytest.raises(RoutingError):
            plan_interconnection(algo, t)

    def test_no_links_with_displacement(self):
        """A 0-D array cannot transport a non-zero displacement...
        but S is empty so displacements are empty: planning succeeds."""
        algo = matrix_multiplication(2)
        t = MappingMatrix(space=(), schedule=(1, 2, 5))
        plan = plan_interconnection(algo, t)
        assert plan.routes == ((), (), ())

    def test_unreachable_with_given_primitives(self):
        """Primitives that only move east cannot realize a westward hop."""
        algo = matrix_multiplication(2)
        t = MappingMatrix(space=((1, 1, -1),), schedule=(1, 2, 1))
        with pytest.raises(RoutingError):
            plan_interconnection(algo, t, primitives=[[1]])

    def test_wrong_primitive_rows(self):
        algo = matrix_multiplication(2)
        t = MappingMatrix(space=((1, 1, -1),), schedule=(1, 2, 1))
        with pytest.raises(ValueError, match="rows"):
            plan_interconnection(algo, t, primitives=[[1, -1], [0, 0]])

    def test_nonpositive_schedule_length(self):
        from repro.model import ConstantBoundedIndexSet, UniformDependenceAlgorithm

        algo = UniformDependenceAlgorithm(
            index_set=ConstantBoundedIndexSet((2, 2)),
            dependence_matrix=((1,), (0,)),
        )
        t = MappingMatrix(space=((0, 1),), schedule=(0, 1))  # Pi d = 0
        with pytest.raises(RoutingError, match="non-positive"):
            plan_interconnection(algo, t)


class TestCustomPrimitives:
    def test_long_range_primitive_used(self):
        """A machine with a jump-by-2 link routes in fewer hops."""
        algo = matrix_multiplication(2)
        t = MappingMatrix(space=((2, 1, -1),), schedule=(2, 1, 1))
        plan = plan_interconnection(
            algo, t, primitives=[[1, -1, 2, -2]]
        )
        # d1 displacement 2: one jump-2 hop instead of two unit hops.
        assert plan.hops(0) == 1

    def test_2d_plan(self):
        """5-D bit-level mapping onto a 2-D nearest-neighbor array."""
        from repro.model import bit_level_matrix_multiplication

        algo = bit_level_matrix_multiplication(1, 1)
        t = MappingMatrix(
            space=((1, 0, 1, 0, 0), (0, 1, 0, 1, 0)),
            schedule=(1, 1, 2, 4, 8),
        )
        plan = plan_interconnection(algo, t)
        assert len(plan.routes) == 5
        for i, d in enumerate(algo.dependence_vectors()):
            assert plan.hops(i) <= t.time(d)


class TestSingleUsePreference:
    def test_single_use_preferred_when_affordable(self):
        """With a jump-2 primitive available AND unit primitives, a
        displacement of 2 with a generous budget routes as one jump-2
        hop or two unit hops; the single-use preference must pick a
        decomposition with every primitive used at most once."""
        algo = matrix_multiplication(2)
        t = MappingMatrix(space=((2, 1, -1),), schedule=(3, 1, 1))
        plan = plan_interconnection(algo, t, primitives=[[1, -1, 2, -2]])
        assert plan.statically_collision_free()

    def test_fallback_when_single_use_infeasible(self):
        """Only unit primitives and displacement 2: single-use is
        impossible, so the planner falls back to the repeated-hop
        route (and the static criterion correctly flags it)."""
        algo = matrix_multiplication(2)
        t = MappingMatrix(space=((2, 1, -1),), schedule=(3, 1, 1))
        plan = plan_interconnection(algo, t, primitives=[[1, -1]])
        assert plan.hops(0) == 2
        assert not plan.statically_collision_free()


def _routed(route, *args):
    """``route(*args)``, or ``RoutingError`` when it cannot route."""
    try:
        return route(*args)
    except RoutingError:
        return RoutingError


def _single_dependence_plan(target, budget):
    """Plan one dependence with ``S d = target`` and ``Pi d = budget``.

    ``S = [I | 0]`` and ``d = (target, 1)``, so the displacement is
    ``target``; ``Pi = (0, ..., 0, budget)`` gives the schedule length.
    """
    dim = len(target)
    algo = UniformDependenceAlgorithm(
        index_set=ConstantBoundedIndexSet((3,) * (dim + 1)),
        dependence_matrix=tuple((x,) for x in target) + ((1,),),
    )
    t = MappingMatrix(
        space=tuple(
            tuple(int(c == r) for c in range(dim + 1)) for r in range(dim)
        ),
        schedule=(0,) * dim + (budget,),
    )
    return _routed(plan_interconnection, algo, t)


class TestClosedFormRouter:
    """The nearest-neighbor closed form equals the branch-and-bound router."""

    @settings(max_examples=150, deadline=None)
    @given(
        target=st.integers(1, 3).flatmap(
            lambda dim: st.lists(st.integers(-3, 3), min_size=dim, max_size=dim)
        ),
        budget=st.integers(0, 6),
    )
    def test_equals_ilp_router(self, target, budget):
        p = nearest_neighbor_primitives(len(target))
        closed = _routed(interconnect._route_nearest_neighbor, target, budget)
        ilp = _routed(interconnect._route_one, p, target, budget)
        assert closed == ilp
        if budget == 0:
            return  # plan_interconnection rejects Pi d = 0 up front
        default = _single_dependence_plan(target, budget)
        with mock.patch.object(
            interconnect,
            "_route_nearest_neighbor",
            lambda t, b: interconnect._route_one(
                nearest_neighbor_primitives(len(t)), t, b
            ),
        ):
            forced = _single_dependence_plan(target, budget)
        if default is RoutingError:
            assert forced is RoutingError
        else:
            assert (default.usage, default.routes, default.buffers) == (
                forced.usage, forced.routes, forced.buffers,
            )
            assert default.statically_collision_free() == all(
                abs(x) <= 1 for x in target
            )

    def test_infeasible_exactly_past_equation_2_3(self):
        with pytest.raises(RoutingError, match="Equation 2.3"):
            interconnect._route_nearest_neighbor([2, -1], 2)
        assert interconnect._route_nearest_neighbor([2, -1], 3) == [0, 1, 2, 0]

    def test_default_and_explicit_nearest_neighbor_skip_ilp(self):
        algo = matrix_multiplication(2)
        t = MappingMatrix(space=((1, 1, -1),), schedule=(1, 2, 1))
        with mock.patch.object(
            interconnect, "_route_one", wraps=interconnect._route_one
        ) as ilp:
            default = plan_interconnection(algo, t)
            explicit = plan_interconnection(algo, t, primitives=[[1, -1]])
        assert ilp.call_count == 0
        assert default == explicit

    def test_custom_primitives_take_ilp_path(self):
        algo = matrix_multiplication(2)
        t = MappingMatrix(space=((2, 1, -1),), schedule=(2, 1, 1))
        with mock.patch.object(
            interconnect, "_route_one", wraps=interconnect._route_one
        ) as ilp:
            plan = plan_interconnection(algo, t, primitives=[[1, -1, 2, -2]])
        assert ilp.call_count == 3
        assert plan.routes[0] == (2,)  # one +2e_0 hop
