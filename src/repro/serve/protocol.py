"""Wire protocol of the mapping service: job specs, digests, results.

A job spec is the JSON body of ``POST /jobs``.  This module is the
service's front door: every field is validated through
:mod:`repro.model.validate` (typed :class:`SpecError`\\ s, size caps)
**before** anything is enqueued or spawned, and the validated spec is
then *canonicalized to the engine's own content digest* — the
``canonical_key`` of the same run-parameter record
(:func:`repro.dse.executor.schedule_run_params` and friends) that keys
the result cache and the checkpoint journal.  Spec digest, cache key
and journal run key are therefore one identity, which is what makes
request deduplication sound: two requests with the same digest are the
same search, byte for byte.

Spec shape (fields beyond these are rejected — a service front door is
strict)::

    {
      "task": "schedule" | "space" | "joint" | "parametric",
      "algorithm": "matmul" | {"mu": [...], "dependence": [[...]], "name": "..."},
      "mu": [6],                  # named algorithms only
      "word_bits": 2,             # named bit-level algorithms only
      "space": [[1, 1, -1]],      # schedule + parametric tasks
      "method": "auto",           # schedule + parametric tasks
      "mu_range": [1, 16],        # parametric task (certified size range)
      "pi": [1, 6, 1],            # space task
      "array_dim": 1, "magnitude": 1, "keep_ranking": 10,   # space/joint
      "time_weight": 1.0, "space_weight": 1.0,              # joint
      "jobs": 2,                  # space/joint worker processes (capped by the server)
      "tenant": "default"
    }

A ``parametric`` job is a schedule search answered through the
:mod:`repro.symbolic` design compiler: the compiled artifact is keyed
by the compile parameters *without* the concrete size (so every size
shares one artifact), while the job digest appends the size being
answered (so answers stay distinct jobs).  The algorithm's bounds must
be uniform — one ``mu`` is the whole point.

``jobs`` and ``tenant`` never enter the digest: execution strategy is
invisible in the result, so it must be invisible in the identity too.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..dse.cache import canonical_key
from ..dse.executor import (
    _algorithm_from_spec,
    _algorithm_spec,
    joint_run_params,
    schedule_run_params,
    space_run_params,
)
from ..model.algorithm import UniformDependenceAlgorithm
from ..model.validate import (
    SpecShapeError,
    validate_algorithm,
    validate_algorithm_spec,
    validate_space,
    validate_vector,
)

__all__ = [
    "TASKS",
    "JOB_STATES",
    "TERMINAL_STATES",
    "RESUMABLE_STATES",
    "JobSpec",
    "parse_job_spec",
    "encode_result",
    "error_body",
]


def error_body(message: str, *, code: str | None = None,
               retry_after: float | None = None) -> dict:
    """The one shape every error response uses.

    ``{"error": <human diagnosis>}`` always; ``code`` adds a stable
    machine-readable discriminator (``queue_full``, ``rate_limited``,
    ``breaker_open``, ``tenant_busy``, ...) and ``retry_after`` mirrors
    the ``Retry-After`` header in seconds so clients that only parse
    bodies still get the hint.
    """
    body: dict = {"error": message}
    if code is not None:
        body["code"] = code
    if retry_after is not None:
        body["retry_after"] = retry_after
    return body

TASKS = ("schedule", "space", "joint", "parametric")

#: Lifecycle of a job.  ``interrupted`` is non-terminal on purpose: a
#: restarting server re-enqueues interrupted jobs and resumes them from
#: their journal.
JOB_STATES = (
    "queued", "running", "done", "failed", "interrupted", "cancelled",
)
TERMINAL_STATES = ("done", "failed", "cancelled")
RESUMABLE_STATES = ("queued", "running", "interrupted")

_METHODS = ("auto", "paper", "exact")

_COMMON_KEYS = {"task", "algorithm", "mu", "word_bits", "tenant", "jobs"}
_TASK_KEYS = {
    "schedule": {"space", "method"},
    "space": {"pi", "array_dim", "magnitude", "keep_ranking"},
    "joint": {
        "array_dim", "magnitude", "keep_ranking",
        "time_weight", "space_weight",
    },
    "parametric": {"space", "method", "mu_range"},
}

#: Front-door ceiling on a parametric job's certified range: compile
#: cost grows with the largest enumerated size, and a service must not
#: let one request buy an unbounded amount of compute.
MAX_SYMBOLIC_MU = 64


def _require_int(payload: dict, key: str, default: int, minimum: int) -> int:
    value = payload.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise SpecShapeError(
            f"{key!r} must be an integer, got {type(value).__name__}"
        )
    if value < minimum:
        raise SpecShapeError(f"{key!r} must be >= {minimum}, got {value}")
    return value


def _require_weight(payload: dict, key: str, default: float) -> float:
    value = payload.get(key, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SpecShapeError(
            f"{key!r} must be a number, got {type(value).__name__}"
        )
    return float(value)


@dataclass(frozen=True)
class JobSpec:
    """A validated, normalized job request.

    ``algorithm_spec`` is the transport-level ``{mu, dependence, name}``
    payload (already validated); ``options`` holds the task-specific
    search parameters with defaults applied, so two specs that differ
    only in spelled-out defaults normalize — and digest — identically.
    """

    task: str
    algorithm_spec: dict
    options: dict
    tenant: str = "default"
    jobs: int | None = None
    _digest: str = field(default="", compare=False)

    def build_algorithm(self) -> UniformDependenceAlgorithm:
        return _algorithm_from_spec(dict(self.algorithm_spec))

    def run_params(self, algorithm: UniformDependenceAlgorithm) -> dict:
        """The engine's canonical run-parameter record for this job."""
        opts = self.options
        if self.task == "parametric":
            # Lazy: repro.symbolic pulls in the whole compiler stack.
            from ..symbolic.compiler import schedule_compile_params

            params = schedule_compile_params(
                algorithm.dependence_matrix.tolist(), opts["space"],
                method=opts["method"], mu_range=opts["mu_range"],
            )
            # The compile artifact is shared across sizes; the *job* is
            # one answered size, so the digest appends it.
            return {**params, "eval_mu": algorithm.index_set.mu[0]}
        if self.task == "schedule":
            return schedule_run_params(
                algorithm, opts["space"], method=opts["method"]
            )
        if self.task == "space":
            return space_run_params(
                algorithm, opts["pi"], array_dim=opts["array_dim"],
                magnitude=opts["magnitude"], keep_ranking=opts["keep_ranking"],
            )
        return joint_run_params(
            algorithm, array_dim=opts["array_dim"],
            magnitude=opts["magnitude"], time_weight=opts["time_weight"],
            space_weight=opts["space_weight"],
            keep_ranking=opts["keep_ranking"],
        )

    @property
    def digest(self) -> str:
        """The job's content digest — identical to the engine's result-
        cache key and checkpoint run key for the same search."""
        if not self._digest:
            params = self.run_params(self.build_algorithm())
            object.__setattr__(self, "_digest", canonical_key(params))
        return self._digest

    def to_dict(self) -> dict:
        """JSON-safe normalized form, persisted in the job record."""
        return {
            "task": self.task,
            "algorithm": {
                "mu": list(self.algorithm_spec["mu"]),
                "dependence": [
                    list(row) for row in self.algorithm_spec["dependence"]
                ],
                "name": self.algorithm_spec.get("name", "algorithm"),
            },
            "options": {
                k: ([list(r) for r in v] if k == "space"
                    else list(v) if k in ("pi", "mu_range") else v)
                for k, v in self.options.items()
            },
            "tenant": self.tenant,
            "jobs": self.jobs,
        }

    @classmethod
    def from_dict(cls, data: dict) -> JobSpec:
        """Rebuild from :meth:`to_dict` output (a persisted job record).

        The record was validated on the way in, but it crossed a disk
        boundary since, so the algorithm payload is re-proven before a
        search is started from it.
        """
        algo_spec = validate_algorithm_spec(dict(data["algorithm"]))
        options = dict(data["options"])
        if "space" in options:
            options["space"] = tuple(tuple(r) for r in options["space"])
        if "pi" in options:
            options["pi"] = tuple(options["pi"])
        if "mu_range" in options:
            options["mu_range"] = tuple(options["mu_range"])
        return cls(
            task=data["task"], algorithm_spec=algo_spec, options=options,
            tenant=data.get("tenant", "default"), jobs=data.get("jobs"),
        )


def _named_algorithm(payload: dict) -> UniformDependenceAlgorithm:
    """Resolve ``"algorithm": "<name>"`` through the CLI's registry.

    One registry serves both front ends so they can never drift; the
    CLI speaks ``SystemExit`` for bad input, which is re-raised here as
    the service's typed :class:`SpecError`.
    """
    from ..cli import _make_algorithm, _parse_mu  # lazy: cli imports serve lazily too

    name = payload["algorithm"]
    mu = payload.get("mu")
    if mu is None:
        raise SpecShapeError(
            "named algorithms need a 'mu' field (e.g. \"mu\": [6])"
        )
    word_bits = _require_int(payload, "word_bits", 2, 1)
    try:
        mu_t = _parse_mu(",".join(str(m) for m in _as_mu_list(mu)))
        return _make_algorithm(name, mu_t, word_bits)
    except SystemExit as exc:
        raise SpecShapeError(str(exc)) from None


def _as_mu_list(mu) -> list:
    if isinstance(mu, bool) or isinstance(mu, int):
        return [mu]
    if not isinstance(mu, list):
        raise SpecShapeError(
            f"'mu' must be an integer or a list, got {type(mu).__name__}"
        )
    return mu


def _parametric_range(payload: dict) -> tuple[int, int]:
    """Validate the ``mu_range`` field of a parametric job."""
    from ..symbolic.compiler import DEFAULT_MU_RANGE

    value = payload.get("mu_range", list(DEFAULT_MU_RANGE))
    if (
        not isinstance(value, list) or len(value) != 2
        or any(isinstance(v, bool) or not isinstance(v, int) for v in value)
    ):
        raise SpecShapeError(
            f"'mu_range' must be a [lo, hi] pair of integers, got {value!r}"
        )
    lo, hi = value
    if not 1 <= lo <= hi:
        raise SpecShapeError(
            f"'mu_range' needs 1 <= lo <= hi, got [{lo}, {hi}]"
        )
    if hi > MAX_SYMBOLIC_MU:
        raise SpecShapeError(
            f"'mu_range' upper bound {hi} exceeds the service cap "
            f"{MAX_SYMBOLIC_MU}"
        )
    return (lo, hi)


def parse_job_spec(payload) -> JobSpec:
    """Validate an untrusted ``POST /jobs`` body into a :class:`JobSpec`.

    Raises a typed :class:`~repro.model.SpecError` on any problem —
    the server maps those to HTTP 400 with the message as diagnosis.
    """
    if not isinstance(payload, dict):
        raise SpecShapeError(
            f"job spec must be a JSON object, got {type(payload).__name__}"
        )
    task = payload.get("task")
    if task not in TASKS:
        raise SpecShapeError(
            f"'task' must be one of {list(TASKS)}, got {task!r}"
        )
    allowed = _COMMON_KEYS | _TASK_KEYS[task]
    unknown = sorted(set(payload) - allowed)
    if unknown:
        raise SpecShapeError(
            f"unknown field(s) {unknown} for task {task!r}; "
            f"allowed: {sorted(allowed)}"
        )

    algorithm = payload.get("algorithm")
    if isinstance(algorithm, str):
        algo = validate_algorithm(_named_algorithm(payload))
        algo_spec = _algorithm_spec(algo)
    elif isinstance(algorithm, dict):
        if "mu" in payload or "word_bits" in payload:
            raise SpecShapeError(
                "'mu'/'word_bits' are for named algorithms; an inline "
                "algorithm object carries its own 'mu'"
            )
        algo_spec = validate_algorithm_spec(dict(algorithm))
        algo = _algorithm_from_spec(algo_spec)
        algo_spec = _algorithm_spec(algo)
    else:
        raise SpecShapeError(
            "'algorithm' must be a library name (string) or an object "
            "{mu, dependence, name}"
        )

    n = algo.n
    options: dict = {}
    if task in ("schedule", "parametric"):
        if "space" not in payload:
            raise SpecShapeError(f"task {task!r} needs a 'space' field")
        options["space"] = validate_space(payload["space"], n)
        method = payload.get("method", "auto")
        if method not in _METHODS:
            raise SpecShapeError(
                f"'method' must be one of {list(_METHODS)}, got {method!r}"
            )
        options["method"] = method
        if task == "parametric":
            if len(set(algo.index_set.mu)) != 1:
                raise SpecShapeError(
                    "task 'parametric' needs uniform bounds (one size "
                    f"parameter), got mu={list(algo.index_set.mu)}"
                )
            options["mu_range"] = _parametric_range(payload)
    else:
        if task == "space":
            if "pi" not in payload:
                raise SpecShapeError("task 'space' needs a 'pi' field")
            options["pi"] = validate_vector(payload["pi"], n, "pi")
        options["array_dim"] = _require_int(payload, "array_dim", 1, 1)
        options["magnitude"] = _require_int(payload, "magnitude", 1, 1)
        options["keep_ranking"] = _require_int(payload, "keep_ranking", 10, 1)
        if task == "joint":
            options["time_weight"] = _require_weight(payload, "time_weight", 1.0)
            options["space_weight"] = _require_weight(payload, "space_weight", 1.0)

    tenant = payload.get("tenant", "default")
    if not isinstance(tenant, str) or not tenant:
        raise SpecShapeError("'tenant' must be a non-empty string")
    jobs = payload.get("jobs")
    if jobs is not None:
        jobs = _require_int(payload, "jobs", 1, 1)

    return JobSpec(
        task=task, algorithm_spec=algo_spec, options=options,
        tenant=tenant, jobs=jobs,
    )


# -- result encoding --------------------------------------------------------


def encode_result(task: str, result) -> dict:
    """The JSON answer of a completed search.

    Pure function of the result object, so a server-side answer can be
    compared verbatim against one encoded from a direct library call —
    the resumed == uninterrupted equality bar is checked on exactly
    this encoding.  Only deterministic fields enter (telemetry travels
    separately on the job record).
    """
    if task == "schedule":
        out = {
            "task": task,
            "found": result.found,
            "candidates_examined": result.candidates_examined,
            "rings_expanded": result.rings_expanded,
            "counters": result.stats.counter_dict(),
        }
        if result.found:
            out["pi"] = list(result.schedule.pi)
            out["total_time"] = result.total_time
        return out
    ranking = []
    for design in result.ranking:
        cost = design.cost
        ranking.append({
            "space": [list(row) for row in design.mapping.space],
            "pi": list(design.mapping.schedule),
            "cost": {
                "processors": cost.processors,
                "wire_length": cost.wire_length,
                "buffers": cost.buffers,
                "total_time": cost.total_time,
            },
            "objective": design.objective,
        })
    return {
        "task": task,
        "found": bool(result.found),
        "candidates_examined": result.candidates_examined,
        "rejected_conflicts": result.rejected_conflicts,
        "rejected_routing": result.rejected_routing,
        "counters": result.stats.counter_dict(),
        "ranking": ranking,
    }
