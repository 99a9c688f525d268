"""Unit tests for repro.systolic.array (the physical array model)."""

import random
from unittest import mock

import numpy as np
import pytest

from repro.core import MappingMatrix
from repro.core.schedule import total_execution_time
from repro.intlin import IntMat
from repro.model import (
    ConstantBoundedIndexSet,
    UniformDependenceAlgorithm,
    library,
    matrix_multiplication,
    transitive_closure,
)
from repro.systolic import (
    ArrayCost,
    Link,
    RoutingError,
    build_array,
    evaluate_cost,
    evaluate_costs,
    plan_interconnection,
    processor_count,
    wire_length,
)


def make_array(algo, space, pi):
    t = MappingMatrix(space=space, schedule=pi)
    plan = plan_interconnection(algo, t)
    return build_array(algo, t, plan), t, plan


class TestLinearArray:
    def test_matmul_pe_range(self):
        algo = matrix_multiplication(4)
        array, _t, _p = make_array(algo, ((1, 1, -1),), (1, 4, 1))
        # S j = j1 + j2 - j3 over [0,4]^3: range [-4, 8].
        assert array.num_processors == 13
        assert array.extent() == ((-4, 8),)

    def test_tc_pe_range(self):
        algo = transitive_closure(4)
        array, _t, _p = make_array(algo, ((0, 0, 1),), (5, 1, 1))
        assert array.num_processors == 5
        assert array.extent() == ((0, 4),)

    def test_links_per_channel(self):
        algo = matrix_multiplication(2)
        array, _t, _p = make_array(algo, ((1, 1, -1),), (1, 2, 1))
        # Each dependence has its own channel (Figure 2's three links).
        channels = {link.channel for link in array.links}
        assert channels == {0, 1, 2}

    def test_link_geometry_unit_steps(self):
        algo = matrix_multiplication(2)
        array, _t, _p = make_array(algo, ((1, 1, -1),), (1, 2, 1))
        for link in array.links:
            step = link.target[0] - link.source[0]
            assert abs(step) == 1

    def test_c_channel_direction_westward(self):
        """Figure 2: the C stream travels right to left (S d3 = -1)."""
        algo = matrix_multiplication(2)
        array, _t, _p = make_array(algo, ((1, 1, -1),), (1, 2, 1))
        c_links = list(array.links_by_channel(2))
        assert c_links
        assert all(l.target[0] - l.source[0] == -1 for l in c_links)

    def test_processors_sorted_unique(self):
        algo = matrix_multiplication(2)
        array, _t, _p = make_array(algo, ((1, 1, -1),), (1, 2, 1))
        assert list(array.processors) == sorted(set(array.processors))


class TestTwoDArray:
    def test_bitlevel_geometry(self):
        from repro.model import bit_level_matrix_multiplication

        algo = bit_level_matrix_multiplication(1, 1)
        array, _t, _p = make_array(
            algo,
            ((1, 0, 1, 0, 0), (0, 1, 0, 1, 0)),
            (1, 1, 2, 4, 8),
        )
        assert array.dimension == 2
        # S j: (j1+j4, j2+j5) over {0,1}^5: coordinates 0..2 each.
        assert array.num_processors == 9
        assert array.extent() == ((0, 2), (0, 2))

    def test_2d_links_are_axis_aligned(self):
        from repro.model import bit_level_matrix_multiplication

        algo = bit_level_matrix_multiplication(1, 1)
        array, _t, _p = make_array(
            algo,
            ((1, 0, 1, 0, 0), (0, 1, 0, 1, 0)),
            (1, 1, 2, 4, 8),
        )
        for link in array.links:
            dx = link.target[0] - link.source[0]
            dy = link.target[1] - link.source[1]
            assert abs(dx) + abs(dy) == 1  # nearest-neighbor hops only


class TestZeroDArray:
    def test_single_pe(self):
        from repro.model import ConstantBoundedIndexSet, UniformDependenceAlgorithm

        algo = UniformDependenceAlgorithm(
            index_set=ConstantBoundedIndexSet((2, 2)),
            dependence_matrix=((1, 0), (0, 1)),
        )
        array, _t, _p = make_array(algo, (), (1, 3))
        assert array.dimension == 0
        assert array.num_processors == 1
        assert array.extent() == ()
        assert array.links == ()


def _oracle_build_array(algorithm, mapping, plan):
    """The per-index-point geometry loop, kept as the test oracle.

    For every ``j`` in ``J`` and every dependence whose producer
    ``j - d`` is in ``J``, walk the planned route from ``S (j - d)`` and
    record each hop as a link; the PE set is ``{S j}``.
    """
    smat = mapping.space_matrix
    pe_of = {
        tuple(j): tuple(smat.matvec(j)) if smat.nrows else ()
        for j in algorithm.index_set
    }
    columns = list(zip(*plan.primitives))
    links = set()
    for j in pe_of:
        for i, d in enumerate(algorithm.dependence_vectors()):
            src = tuple(a - b for a, b in zip(j, d))
            if not plan.routes[i] or src not in pe_of:
                continue
            pos = pe_of[src]
            for c in plan.routes[i]:
                nxt = tuple(a + b for a, b in zip(pos, columns[c]))
                links.add(Link(channel=i, source=pos, target=nxt))
                pos = nxt
    processors = tuple(sorted(set(pe_of.values())))
    links = tuple(sorted(links, key=lambda l: (l.channel, l.source, l.target)))
    wire = sum(
        sum(abs(a - b) for a, b in zip(l.source, l.target)) for l in links
    )
    return processors, links, wire


def _library_cases():
    """Seeded ``S`` (entries -1..2) for every library algorithm, 1-D and 2-D.

    ``Pi`` weights the coordinates lexicographically and is scaled past
    every ``|S d|_1``, so every plan routes.
    """
    algorithms = [
        library.matrix_multiplication(3),
        library.transitive_closure(3),
        library.convolution_1d(3, 4),
        library.lu_decomposition(2),
        library.bit_level_matrix_multiplication(1, 2),
        library.bit_level_convolution(2, 3, 2),
        library.convolution_2d(2, 2, 2, 2),
        library.bit_level_lu_decomposition(1, 2),
        library.stencil_2d(2),
        library.example_2_1_algorithm(2),
    ]
    rng = random.Random(2024)
    for algo in algorithms:
        n = algo.index_set.dimension
        deps = algo.dependence_vectors()
        base = 2 * max(abs(x) for d in deps for x in d) + 1
        for dim in (1, 2):
            for _ in range(3):
                space = tuple(
                    tuple(rng.randint(-1, 2) for _ in range(n)) for _ in range(dim)
                )
                scale = 1 + max(
                    sum(abs(sum(r * x for r, x in zip(row, d))) for row in space)
                    for d in deps
                )
                pi = tuple(scale * base ** (n - 1 - i) for i in range(n))
                yield algo, MappingMatrix(space=space, schedule=pi), None


def _special_cases():
    # Example 5.1 and 5.2 (negative S entries).
    yield matrix_multiplication(4), MappingMatrix(
        space=((1, 1, -1),), schedule=(1, 4, 1)
    ), None
    yield transitive_closure(4), MappingMatrix(
        space=((0, 0, 1),), schedule=(5, 1, 1)
    ), None
    # A 0-D array.
    yield matrix_multiplication(2), MappingMatrix(
        space=(), schedule=(1, 3, 9)
    ), None
    # Custom P: a long-range 1-D jump and a 2-D diagonal link.
    yield matrix_multiplication(3), MappingMatrix(
        space=((2, 1, -1),), schedule=(3, 1, 1)
    ), [[1, -1, 2, -2]]
    yield matrix_multiplication(2), MappingMatrix(
        space=((1, 0, -1), (0, 1, -1)), schedule=(2, 2, 3)
    ), [[1, -1, 0, 0, 1], [0, 0, 1, -1, 1]]
    # Images past int64: image_of_points answers with an object array.
    yield UniformDependenceAlgorithm(
        index_set=ConstantBoundedIndexSet((2, 2)),
        dependence_matrix=((1,), (-1,)),
    ), MappingMatrix(space=((2**62, 2**62 + 1),), schedule=(2, 1)), None


CASES = [*_library_cases(), *_special_cases()]


def _oracle_cost(algorithm, mapping):
    """The cost sheet from the per-point oracle, or the routing error's text."""
    try:
        plan = plan_interconnection(algorithm, mapping)
    except RoutingError as exc:
        return str(exc)
    processors, _links, wire = _oracle_build_array(algorithm, mapping, plan)
    return ArrayCost(
        processors=len(processors), wire_length=wire, buffers=plan.total_buffers,
        total_time=total_execution_time(mapping.schedule, algorithm.mu),
    )


def _stacked_costs(algorithm, mappings):
    """``evaluate_costs`` with each routing error replaced by its text."""
    return [
        str(cost) if isinstance(cost, RoutingError) else cost
        for cost in evaluate_costs(algorithm, mappings)
    ]


def _mixed_stack():
    """One stack over the 2 x 2 set with ``d = (1, -1)``: an int64
    member, the past-int64 mapping, an unroutable one (``|S d| = 3 >
    Pi d = 1``), a 0-D one and one with ``S d = 0`` but ``Pi d = 0``."""
    algo, huge, _ = CASES[-1]
    return algo, [
        MappingMatrix(space=((1, 0),), schedule=(2, 1)),
        huge,
        MappingMatrix(space=((3, 0),), schedule=(2, 1)),
        MappingMatrix(space=(), schedule=(2, 1)),
        MappingMatrix(space=((1, 1),), schedule=(1, 1)),
    ]


class TestGeometryOracle:
    """The numpy geometry equals the per-point loop it replaced."""

    @staticmethod
    def _check(algo, t, primitives):
        plan = plan_interconnection(algo, t, primitives)
        processors, links, wire = _oracle_build_array(algo, t, plan)
        array = build_array(algo, t, plan)
        assert array.processors == processors
        assert array.links == links
        assert processor_count(algo, t) == len(processors)
        assert wire_length(algo, t, plan) == wire
        if primitives is None:
            cost = evaluate_cost(algo, t)
            assert (cost.processors, cost.wire_length) == (len(processors), wire)

    @pytest.mark.parametrize("algo, t, primitives", CASES)
    def test_equals_oracle(self, algo, t, primitives):
        self._check(algo, t, primitives)

    def test_library_cases_are_nontrivial(self):
        linked = sum(
            1 for algo, t, p in CASES
            if build_array(algo, t, plan_interconnection(algo, t, p)).links
        )
        assert linked >= len(CASES) - 3

    def test_huge_images_stay_exact(self):
        algo, t, _ = CASES[-1]
        array = build_array(algo, t, plan_interconnection(algo, t))
        assert max(p[0] for p in array.processors) == 2 * 2**62 + 2 * (2**62 + 1)
        assert all(type(x) is int for p in array.processors for x in p)

    @pytest.mark.parametrize("algo, t, primitives", CASES[::5])
    def test_forced_object_images(self, algo, t, primitives):
        """Object-dtype images (int64 not certified) give the same geometry."""
        exact = IntMat.image_of_points

        def as_object(self, points):
            return np.asarray(exact(self, points)).astype(object)

        with mock.patch.object(IntMat, "image_of_points", as_object):
            self._check(algo, t, primitives)

    @pytest.mark.parametrize("algo, t, primitives", CASES[::5])
    def test_route_past_int64_promotes(self, algo, t, primitives):
        """A route that could leave int64 is walked over Python ints."""
        with mock.patch("repro.systolic.array.INT64_MAX", 0):
            self._check(algo, t, primitives)


    def test_stacked_costs_equal_oracle(self):
        """Each algorithm's nearest-neighbour cases, costed as one stack."""
        stacks: dict[int, tuple] = {}
        for algo, t, primitives in CASES:
            if primitives is None:
                stacks.setdefault(id(algo), (algo, []))[1].append(t)
        for algo, mappings in stacks.values():
            assert _stacked_costs(algo, mappings) == [
                _oracle_cost(algo, t) for t in mappings
            ]
        assert max(len(mappings) for _, mappings in stacks.values()) == 6

    def test_mixed_stack_equals_oracle(self):
        algo, mappings = _mixed_stack()
        costs = _stacked_costs(algo, mappings)
        assert costs == [_oracle_cost(algo, t) for t in mappings]
        assert [type(cost) for cost in costs] == [ArrayCost, ArrayCost, str, ArrayCost, str]
        assert "Equation 2.3" in costs[2] and "non-positive" in costs[4]
        assert costs[3] == ArrayCost(processors=1, wire_length=0, buffers=1, total_time=7)

    def test_reversed_stack_reverses_answers(self):
        algo, mappings = _mixed_stack()
        library_algo = CASES[0][0]
        library_stack = [t for a, t, p in CASES if a is library_algo and p is None]
        for algo, mappings in ((algo, mappings), (library_algo, library_stack)):
            assert _stacked_costs(algo, mappings[::-1]) == (
                _stacked_costs(algo, mappings)[::-1]
            )
