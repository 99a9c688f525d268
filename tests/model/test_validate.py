"""Typed validation of untrusted algorithm/mapping specs.

Every rejection must be a :class:`SpecError` subclass with an
actionable message — never a bare crash three layers down — and every
legitimate spec in the library zoo must pass unchanged.
"""

import pytest

from repro.model import (
    SpecBoundsError,
    SpecDimensionError,
    SpecError,
    SpecLimits,
    SpecShapeError,
    SpecSizeError,
    matrix_multiplication,
    validate_algorithm,
    validate_algorithm_spec,
    validate_dependence_matrix,
    validate_mu,
    validate_space,
    validate_vector,
)


class TestMu:
    def test_valid_mu_round_trips_as_tuple(self):
        assert validate_mu([4, 4, 4]) == (4, 4, 4)
        assert validate_mu((6,)) == (6,)

    def test_empty_mu_is_dimension_error(self):
        with pytest.raises(SpecDimensionError):
            validate_mu(())

    def test_non_sequence_mu_is_shape_error(self):
        with pytest.raises(SpecShapeError):
            validate_mu(4)
        with pytest.raises(SpecShapeError):
            validate_mu("4,4,4")

    def test_non_positive_mu_is_bounds_error(self):
        with pytest.raises(SpecBoundsError, match="Assumption 2.1"):
            validate_mu([4, 0, 4])
        with pytest.raises(SpecBoundsError):
            validate_mu([-1])

    def test_bool_is_not_an_integer(self):
        # True == 1 numerically; a hardened front door rejects the
        # type confusion anyway.
        with pytest.raises(SpecShapeError, match="bool"):
            validate_mu([True, 2, 3])

    def test_oversized_mu_is_size_error(self):
        with pytest.raises(SpecSizeError, match="max_mu"):
            validate_mu([10**7])

    def test_index_set_cardinality_cap(self):
        # Each bound is legal but the product explodes.
        with pytest.raises(SpecSizeError, match="max_points"):
            validate_mu([10**5] * 3)

    def test_too_many_dimensions(self):
        with pytest.raises(SpecSizeError, match="max_dimensions"):
            validate_mu([2] * 17)

    def test_custom_limits_widen_the_caps(self):
        wide = SpecLimits(max_dimensions=32, max_points=10**15)
        assert len(validate_mu([1] * 20, wide)) == 20

    def test_limits_reject_nonpositive_caps(self):
        with pytest.raises(ValueError):
            SpecLimits(max_mu=0)


class TestDependenceMatrix:
    def test_identity_matrix_passes(self):
        d = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
        assert validate_dependence_matrix(d, 3) == ((1, 0, 0), (0, 1, 0), (0, 0, 1))

    def test_no_dependences_is_legal(self):
        assert validate_dependence_matrix([], 3) == ()

    def test_wrong_row_count_is_dimension_error(self):
        with pytest.raises(SpecDimensionError, match="one row per dimension"):
            validate_dependence_matrix([[1, 0], [0, 1]], 3)

    def test_ragged_matrix_is_shape_error(self):
        with pytest.raises(SpecShapeError, match="ragged"):
            validate_dependence_matrix([[1, 0], [0]], 2)

    def test_zero_dependence_column_is_shape_error(self):
        with pytest.raises(SpecShapeError, match="zero vector"):
            validate_dependence_matrix([[1, 0], [1, 0]], 2)

    def test_non_integer_entry_is_shape_error(self):
        with pytest.raises(SpecShapeError, match="integer"):
            validate_dependence_matrix([[1.5], [1]], 2)

    def test_huge_entry_is_size_error(self):
        with pytest.raises(SpecSizeError, match="max_abs_entry"):
            validate_dependence_matrix([[10**10], [1]], 2)

    def test_too_many_columns(self):
        wide = [[1] * 257, [1] * 257]
        with pytest.raises(SpecSizeError, match="max_dependences"):
            validate_dependence_matrix(wide, 2)


class TestVectorAndSpace:
    def test_vector_arity(self):
        assert validate_vector([1, 2, 2], 3, "pi") == (1, 2, 2)
        with pytest.raises(SpecDimensionError, match="n=3"):
            validate_vector([1, 2], 3, "pi")

    def test_vector_entry_cap(self):
        with pytest.raises(SpecSizeError):
            validate_vector([10**10, 0, 0], 3, "pi")

    def test_space_row_count_bounds(self):
        assert validate_space([[1, 1, -1]], 3) == ((1, 1, -1),)
        with pytest.raises(SpecDimensionError, match="no rows"):
            validate_space([], 3)
        with pytest.raises(SpecDimensionError, match="at most n-1"):
            validate_space([[1, 0, 0], [0, 1, 0], [0, 0, 1]], 3)

    def test_space_row_width_checked(self):
        with pytest.raises(SpecDimensionError, match="space row 1"):
            validate_space([[1, 0, 0], [0, 1]], 3)


class TestAlgorithmValidation:
    def test_library_algorithm_passes_and_returns_itself(self):
        algo = matrix_multiplication(4)
        assert validate_algorithm(algo) is algo

    def test_spec_dict_round_trips(self):
        spec = {"mu": [4, 4, 4],
                "dependence": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                "name": "matmul"}
        assert validate_algorithm_spec(spec) is spec

    def test_spec_must_be_a_dict(self):
        with pytest.raises(SpecShapeError, match="dict"):
            validate_algorithm_spec([1, 2, 3])

    def test_spec_missing_keys(self):
        with pytest.raises(SpecShapeError, match="missing"):
            validate_algorithm_spec({"mu": [4]})

    def test_spec_name_must_be_string(self):
        with pytest.raises(SpecShapeError, match="name"):
            validate_algorithm_spec(
                {"mu": [4], "dependence": [[1]], "name": 7}
            )

    def test_spec_dependence_width_follows_mu(self):
        with pytest.raises(SpecDimensionError):
            validate_algorithm_spec(
                {"mu": [4, 4], "dependence": [[1], [0], [0]]}
            )

    def test_all_spec_errors_are_value_errors(self):
        # Callers that only catch ValueError keep working.
        for exc in (SpecDimensionError, SpecShapeError,
                    SpecBoundsError, SpecSizeError):
            assert issubclass(exc, SpecError)
            assert issubclass(exc, ValueError)


class TestFrontDoors:
    """The validators are wired into the public entry points."""

    def test_pipeline_rejects_bad_space_before_searching(self):
        from repro.core import find_time_optimal_mapping

        algo = matrix_multiplication(3)
        with pytest.raises(SpecDimensionError):
            find_time_optimal_mapping(algo, [[1, 1]])

    def test_explore_schedule_rejects_oversized_entries(self):
        from repro.dse import explore_schedule

        algo = matrix_multiplication(3)
        with pytest.raises(SpecSizeError):
            explore_schedule(algo, [[10**10, 1, -1]])

    def test_explore_space_rejects_bad_pi(self):
        from repro.dse import explore_space

        algo = matrix_multiplication(3)
        with pytest.raises(SpecDimensionError):
            explore_space(algo, [1, 2], jobs=1)

    def test_worker_payload_decoding_validates(self):
        from repro.dse.executor import _algorithm_from_spec

        with pytest.raises(SpecShapeError):
            _algorithm_from_spec({"mu": "not-a-sequence", "dependence": []})
