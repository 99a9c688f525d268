"""Unit tests for job-spec parsing, digests and result encoding."""

import pytest

from repro.core.optimize import procedure_5_1
from repro.dse.cache import canonical_key
from repro.dse.executor import (
    explore_schedule,
    explore_space,
    schedule_run_params,
)
from repro.model import SpecError
from repro.model.library import matrix_multiplication
from repro.serve.protocol import JobSpec, encode_result, parse_job_spec


def matmul_spec(**extra) -> dict:
    return {
        "task": "schedule", "algorithm": "matmul", "mu": [4],
        "space": [[1, 1, -1]], **extra,
    }


class TestParsing:
    def test_named_algorithm_schedule_spec(self):
        spec = parse_job_spec(matmul_spec())
        assert spec.task == "schedule"
        assert spec.options["space"] == ((1, 1, -1),)
        assert spec.options["method"] == "auto"
        assert spec.tenant == "default"
        assert list(spec.algorithm_spec["mu"]) == [4, 4, 4]

    def test_inline_algorithm_matches_named(self):
        algo = matrix_multiplication(4)
        inline = parse_job_spec({
            "task": "schedule",
            "algorithm": {
                "mu": list(algo.mu),
                "dependence": [list(r) for r in algo.dependence_matrix],
                "name": "custom",
            },
            "space": [[1, 1, -1]],
        })
        named = parse_job_spec(matmul_spec())
        # Same search → same digest, even though the names differ.
        assert inline.digest == named.digest

    def test_space_task_defaults(self):
        spec = parse_job_spec({
            "task": "space", "algorithm": "matmul", "mu": [4],
            "pi": [1, 2, 3],
        })
        assert spec.options == {
            "pi": (1, 2, 3), "array_dim": 1, "magnitude": 1,
            "keep_ranking": 10,
        }

    def test_joint_task_defaults(self):
        spec = parse_job_spec({
            "task": "joint", "algorithm": "matmul", "mu": [4],
        })
        assert spec.options["time_weight"] == 1.0
        assert spec.options["space_weight"] == 1.0

    def test_round_trip_preserves_digest(self):
        spec = parse_job_spec(matmul_spec(tenant="team-a", jobs=2))
        again = JobSpec.from_dict(spec.to_dict())
        assert again.digest == spec.digest
        assert again.tenant == "team-a"
        assert again.jobs == 2


class TestDigest:
    def test_digest_is_the_engine_run_key(self):
        spec = parse_job_spec(matmul_spec())
        algo = spec.build_algorithm()
        expected = canonical_key(
            schedule_run_params(algo, [[1, 1, -1]], method="auto")
        )
        assert spec.digest == expected

    def test_execution_strategy_is_invisible(self):
        base = parse_job_spec(matmul_spec())
        tweaked = parse_job_spec(
            matmul_spec(jobs=4, tenant="someone-else")
        )
        assert base.digest == tweaked.digest

    def test_spelled_out_defaults_digest_identically(self):
        assert (parse_job_spec(matmul_spec()).digest
                == parse_job_spec(matmul_spec(method="auto")).digest)

    def test_search_parameters_change_the_digest(self):
        base = parse_job_spec(matmul_spec())
        assert base.digest != parse_job_spec(
            matmul_spec(method="exact")
        ).digest
        assert base.digest != parse_job_spec(
            matmul_spec(mu=[5])
        ).digest
        assert base.digest != parse_job_spec({
            "task": "space", "algorithm": "matmul", "mu": [4],
            "pi": [1, 2, 3],
        }).digest


class TestRejections:
    @pytest.mark.parametrize("payload", [
        "not a dict",
        {},
        {"task": "schedule"},
        {"task": "nonsense", "algorithm": "matmul", "mu": [4]},
        matmul_spec(surprise=1),
        matmul_spec(pi=[1, 2, 3]),          # pi is a space-task field
        {"task": "schedule", "algorithm": "matmul", "mu": [4]},  # no space
        {"task": "space", "algorithm": "matmul", "mu": [4]},     # no pi
        {"task": "schedule", "algorithm": "no-such-algo", "mu": [4],
         "space": [[1, 1, -1]]},
        {"task": "schedule", "algorithm": "matmul",
         "space": [[1, 1, -1]]},            # named without mu
        matmul_spec(method="guess"),
        matmul_spec(space=[[1, 1]]),        # wrong width
        matmul_spec(tenant=""),
        matmul_spec(tenant=7),
        matmul_spec(jobs=0),
        matmul_spec(jobs="two"),
        {"task": "space", "algorithm": "matmul", "mu": [4],
         "pi": [1, 2, 3], "array_dim": 0},
        {"task": "joint", "algorithm": "matmul", "mu": [4],
         "time_weight": "heavy"},
        {"task": "schedule", "algorithm": 42, "space": [[1, 1, -1]]},
        {"task": "schedule", "mu": [4],
         "algorithm": {"mu": [4, 4, 4], "dependence": [[1], [2]]},
         "space": [[1, 1, -1]]},            # mu alongside inline algorithm
    ])
    def test_bad_specs_raise_spec_errors(self, payload):
        with pytest.raises(SpecError):
            parse_job_spec(payload)


class TestEncodeResult:
    def test_schedule_encoding_is_deterministic_across_strategies(self):
        algo = matrix_multiplication(4)
        serial = procedure_5_1(algo, [[1, 1, -1]])
        engine = explore_schedule(algo, [[1, 1, -1]])
        assert (encode_result("schedule", serial)
                == encode_result("schedule", engine))
        encoded = encode_result("schedule", serial)
        assert encoded["pi"] == [1, 2, 3]
        assert encoded["total_time"] == 25
        assert encoded["found"] is True

    def test_space_encoding_carries_ranking(self):
        algo = matrix_multiplication(3)
        result = explore_space(algo, [1, 3, 1], jobs=1)
        encoded = encode_result("space", result)
        assert encoded["found"] is True
        assert encoded["ranking"], "expected at least one design"
        top = encoded["ranking"][0]
        assert set(top) == {"space", "pi", "cost", "objective"}
        assert set(top["cost"]) == {
            "processors", "wire_length", "buffers", "total_time",
        }

    def test_not_found_has_no_pi(self):
        algo = matrix_multiplication(3)
        result = explore_schedule(
            algo, [[1, 1, -1]], initial_bound=1, max_bound=1
        )
        encoded = encode_result("schedule", result)
        assert encoded["found"] is False
        assert "pi" not in encoded
