"""Unit tests for the symbolic compiler, its cache, and pipeline routing."""

import json
from fractions import Fraction

import pytest

from repro.core.optimize import procedure_5_1
from repro.core.pipeline import find_time_optimal_mapping
from repro.dse.cache import ResultCache
from repro.model import (
    ConstantBoundedIndexSet,
    UniformDependenceAlgorithm,
    convolution_1d,
    SpecBoundsError,
    matrix_multiplication,
)
from repro.symbolic import (
    AlgorithmFamily,
    CompileError,
    RationalPoly,
    SymbolicSolution,
    ValidityInterval,
    compile_joint,
    compile_schedule,
    compile_space,
    family_from_algorithm,
    load_or_compile,
    schedule_compile_params,
    solution_cache_key,
)

SPACE = [[1, 1, -1]]


class TestAlgorithmFamily:
    def test_family_from_algorithm_round_trips_any_size(self):
        family = family_from_algorithm(matrix_multiplication(7))
        algo = family.algorithm(3)
        assert algo.index_set.mu == (3, 3, 3)
        assert (
            algo.dependence_matrix
            == matrix_multiplication(3).dependence_matrix
        )

    def test_non_uniform_bounds_are_rejected(self):
        with pytest.raises(CompileError):
            family_from_algorithm(convolution_1d(2, 5))

    def test_nonpositive_size_is_rejected(self):
        family = family_from_algorithm(matrix_multiplication(3))
        with pytest.raises(CompileError):
            family.algorithm(0)

    def test_family_building_non_uniform_is_caught(self):
        family = AlgorithmFamily(
            name="broken",
            build=lambda m: UniformDependenceAlgorithm(
                index_set=ConstantBoundedIndexSet((m, m + 1)),
                dependence_matrix=((1, 0), (0, 1)),
            ),
        )
        with pytest.raises(CompileError):
            family.algorithm(2)

    def test_size_varying_dependence_is_rejected(self):
        family = AlgorithmFamily(
            name="shifty",
            build=lambda m: UniformDependenceAlgorithm(
                index_set=ConstantBoundedIndexSet((m, m)),
                dependence_matrix=((1, m % 2), (0, 1)),
            ),
        )
        with pytest.raises(CompileError):
            compile_schedule(family, [[1, 0]], mu_range=(1, 4))


class TestCompileSchedule:
    def test_matmul_winner_is_polynomial_above_mu_3(self):
        family = family_from_algorithm(matrix_multiplication(3))
        solution = compile_schedule(family, SPACE, mu_range=(1, 12))
        tail = solution.intervals[-1]
        assert (tail.lo, tail.hi) == (4, 12)
        assert [str(p) for p in tail.pi] == ["1", "2", "mu - 1"]
        assert str(tail.total_time) == "mu^2 + 2*mu + 1"

    def test_certificate_metadata_is_honest(self):
        family = family_from_algorithm(matrix_multiplication(3))
        solution = compile_schedule(family, SPACE, mu_range=(2, 9))
        assert solution.samples > 0
        assert solution.compile_seconds > 0
        assert solution.coverage == 8
        for interval in solution.intervals:
            assert interval.lo in interval.verified
            assert interval.hi in interval.verified

    def test_bad_range_is_rejected(self):
        family = family_from_algorithm(matrix_multiplication(3))
        with pytest.raises(CompileError):
            compile_schedule(family, SPACE, mu_range=(0, 5))
        with pytest.raises(CompileError):
            compile_schedule(family, SPACE, mu_range=(6, 5))

    def test_json_round_trip_preserves_answers(self):
        family = family_from_algorithm(matrix_multiplication(3))
        solution = compile_schedule(family, SPACE, mu_range=(1, 9))
        rebuilt = SymbolicSolution.from_dict(
            json.loads(json.dumps(solution.to_dict()))
        )
        for mu in range(1, 10):
            assert rebuilt.eval(mu) == solution.eval(mu)


class TestCompileDesign:
    def test_bad_design_bound_is_rejected_not_certified_empty(self):
        # A Pi D > 0 violation means "no design at this size"; a design
        # bound below 1 is the caller's error and must not be certified.
        family = family_from_algorithm(matrix_multiplication(3))
        with pytest.raises(SpecBoundsError, match="array_dim"):
            compile_space(family, (1, 2, 1), array_dim=0, mu_range=(2, 4))
        with pytest.raises(SpecBoundsError, match="magnitude"):
            compile_joint(family, magnitude=0, mu_range=(2, 4))


class TestSolutionEval:
    def fractional_solution(self):
        # A hand-built record whose expression is non-integral at mu=3:
        # eval must refuse (return None) rather than round.
        half = RationalPoly.from_coeffs([0, Fraction(1, 2)])
        interval = ValidityInterval(
            2, 4, True, pi=(half,), total_time=half, verified=(2, 4)
        )
        return SymbolicSolution(
            task="schedule", family="f", mu_lo=2, mu_hi=4,
            params={}, intervals=(interval,),
        )

    def test_non_integral_evaluation_decertifies(self):
        solution = self.fractional_solution()
        assert solution.eval(2) is not None
        assert solution.eval(3) is None

    def test_not_found_interval_answers_found_false(self):
        interval = ValidityInterval(1, 5, False, verified=(1, 5))
        solution = SymbolicSolution(
            task="schedule", family="f", mu_lo=1, mu_hi=5,
            params={}, intervals=(interval,),
        )
        answer = solution.eval(3)
        assert answer is not None and not answer.found

    def test_gaps_and_out_of_range_return_none(self):
        interval = ValidityInterval(
            1, 3, True,
            pi=(RationalPoly.constant(1),),
            total_time=RationalPoly.constant(2),
            verified=(1, 3),
        )
        solution = SymbolicSolution(
            task="schedule", family="f", mu_lo=1, mu_hi=9,
            params={}, intervals=(interval,),
        )
        assert solution.eval(2) is not None
        assert solution.eval(5) is None      # gap
        assert solution.eval(10) is None     # past mu_hi
        assert solution.eval(0) is None      # below mu_lo


class TestSolutionCache:
    def params(self, mu_range=(1, 9)):
        return schedule_compile_params(
            matrix_multiplication(3).dependence_matrix.tolist(),
            SPACE, mu_range=mu_range,
        )

    def test_load_or_compile_round_trips(self, tmp_path):
        family = family_from_algorithm(matrix_multiplication(3))
        cache = ResultCache(tmp_path)
        fn = lambda: compile_schedule(family, SPACE, mu_range=(1, 9))
        first, compiled_1 = load_or_compile(fn, self.params(), cache)
        second, compiled_2 = load_or_compile(fn, self.params(), cache)
        assert compiled_1 is True and compiled_2 is False
        assert second.intervals == first.intervals
        assert second.eval(7) == first.eval(7)

    def test_key_separates_ranges_and_spaces(self):
        base = solution_cache_key(self.params())
        assert solution_cache_key(self.params((1, 12))) != base
        other = schedule_compile_params(
            matrix_multiplication(3).dependence_matrix.tolist(),
            [[0, 1, -1]],
        )
        assert solution_cache_key(other) != base

    def test_malformed_cache_entry_recompiles(self, tmp_path):
        family = family_from_algorithm(matrix_multiplication(3))
        cache = ResultCache(tmp_path)
        key = solution_cache_key(self.params())
        cache.put(key, {"nonsense": True})
        solution, compiled = load_or_compile(
            lambda: compile_schedule(family, SPACE, mu_range=(1, 9)),
            self.params(), cache,
        )
        assert compiled is True
        assert solution.eval(5) is not None


class TestPipelineRouting:
    def test_symbolic_route_equals_enumeration(self):
        algo = matrix_multiplication(8)
        symbolic = find_time_optimal_mapping(algo, SPACE, mu="symbolic")
        direct = find_time_optimal_mapping(algo, SPACE, solver="procedure-5.1")
        assert symbolic.solver == "symbolic"
        assert symbolic.schedule.pi == direct.schedule.pi
        assert symbolic.total_time == direct.total_time
        assert symbolic.analysis.conflict_free
        assert symbolic.stats["samples"] > 0

    def test_symbolic_route_uses_the_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        first = find_time_optimal_mapping(
            matrix_multiplication(8), SPACE, mu="symbolic", cache=cache
        )
        second = find_time_optimal_mapping(
            matrix_multiplication(6), SPACE, mu="symbolic",
            mu_range=(1, 8), cache=cache,
        )
        assert first.stats["compiled"] is True
        assert second.stats["compiled"] is False
        assert second.total_time == procedure_5_1(
            matrix_multiplication(6), SPACE
        ).total_time

    def test_out_of_range_falls_back_to_enumeration(self):
        result = find_time_optimal_mapping(
            matrix_multiplication(9), SPACE, mu="symbolic", mu_range=(1, 6)
        )
        assert result.solver != "symbolic"
        assert result.total_time == procedure_5_1(
            matrix_multiplication(9), SPACE
        ).total_time

    def test_integer_mu_resizes_the_algorithm(self):
        result = find_time_optimal_mapping(
            matrix_multiplication(9), SPACE, mu=4, solver="procedure-5.1"
        )
        assert result.algorithm.index_set.mu == (4, 4, 4)
        assert result.total_time == procedure_5_1(
            matrix_multiplication(4), SPACE
        ).total_time

    def test_bad_mu_value_is_rejected(self):
        with pytest.raises(ValueError):
            find_time_optimal_mapping(
                matrix_multiplication(4), SPACE, mu="parametric"
            )
