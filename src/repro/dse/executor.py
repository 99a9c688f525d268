"""Cached, journaled and parallel execution of the mapping-space searches.

Three entry points share one cache and journal wrapper:

* :func:`explore_schedule` — Procedure 5.1 (Problem 2.2), in process.
  It runs Procedure 5.1's ring loop with the judge
  :func:`~repro.core.optimize.procedure_5_1` uses
  (:func:`~repro.core.optimize.scan_rings`: one vectorized
  :class:`~repro.core.optimize.BatchCandidateScanner`), so the winner,
  the verdict *and every counter* equal the serial search's.  Groups of
  rings run strictly in sequence, and the first ring that proves an
  optimum ends the search.  Stop requests, signals and the run budget
  are checked between logical rings.  A checkpoint journal holds only the final decision:
  a killed schedule run re-runs from the start.
* :func:`explore_space` / :func:`explore_joint` — Problems 6.1 / 6.2.
  The bounded space-mapping design space is cut into contiguous ranges,
  one shard each, run by a pool of ``jobs`` worker processes; each
  judged design travels back whole, and
  :func:`~repro.core.space_optimize.search_designs` tallies and ranks
  the outcomes exactly as the serial solvers do.  A Problem 6.2 shard
  runs one stacked Procedure 5.1 over its range of ``S``
  (:func:`~repro.core.space_optimize.evaluate_joint_designs`).  Every
  completed shard is journaled, so a killed design run resumes.

Execution strategy is a detail, never a semantic: for the design
searches ``jobs=1``, an in-process run of the same shard workers
(forced whenever a non-picklable callback such as a custom
``objective`` is supplied), and any ``jobs=N`` all return results that
compare equal, and every shard is journaled, announced and followed by
a stop poll the same way
(:meth:`~repro.dse.resilience.ResilientShardRunner.run`).  Workers
never receive live algorithm objects — only a plain spec
``(mu, D, name)`` — so the executable semantics attached to library
algorithms (closures, ufuncs) never need to pickle.

Results are optionally backed by a persistent :class:`~repro.dse.cache.
ResultCache`: the cache stores the search *decision* (winning vector,
ranked design list, deterministic counters) under a canonical key of
``(J, D, S, solver, bounds)``, and a hit re-derives verdicts and costs
exactly instead of re-searching.
"""

from __future__ import annotations

import logging
import os
from collections.abc import Callable, Sequence
from contextlib import nullcontext
from functools import partial
from itertools import islice
from typing import TYPE_CHECKING, TypeVar

from ..core.conditions import check_conflict_free
from ..core.mapping import MappingMatrix
from ..core.optimize import Ring, SearchResult, scan_rings, search_bounds
from ..core.schedule import LinearSchedule
from ..intlin.intmat import as_intvec
from ..model.algorithm import UniformDependenceAlgorithm
from ..model.index_set import ConstantBoundedIndexSet
from ..model.validate import (
    validate_algorithm,
    validate_algorithm_spec,
    validate_space,
    validate_vector,
)
from ..obs.tracer import get_tracer
from .cache import ResultCache, canonical_key
from .checkpoint import CheckpointJournal, RunBudget, RunControl
from .progress import SearchStats
from .resilience import ResiliencePolicy, ResilientShardRunner, maybe_slow

if TYPE_CHECKING:  # imported by the design searches only: a schedule search never loads it
    from ..core.space_optimize import SpaceDesign, SpaceOptimizationResult

__all__ = [
    "explore_schedule",
    "explore_space",
    "explore_joint",
    "resolve_jobs",
    "schedule_run_params",
    "space_run_params",
    "joint_run_params",
]

logger = logging.getLogger("repro.dse.executor")

R = TypeVar("R")

#: Each run task's kind: names its root span and tags its shard keys.
_KINDS = {"procedure-5.1": "schedule", "space-optimal": "space", "joint-optimal": "joint"}

#: Environment override for ``resolve_jobs(None)``: lets a deployment
#: (the job server, CI, a cron wrapper) cap worker parallelism without
#: threading a flag through every call site.
JOBS_ENV_VAR = "REPRO_JOBS"


def resolve_jobs(jobs: int | None) -> int:
    """``None`` means one worker per *available* CPU; explicit values
    must be >= 1.

    With ``jobs=None``, a ``$REPRO_JOBS`` environment variable (a
    validated positive integer) takes precedence over CPU detection —
    the deployment-wide cap for environments that cannot pass a flag
    through every call site.  An explicit ``jobs`` argument always
    wins over the environment.

    "Available" honors cgroup/affinity limits where the platform
    exposes them (``os.sched_getaffinity``), so a container pinned to 2
    cores gets 2 workers, not one per physical core of the host.
    """
    if jobs is not None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        return jobs
    resolved: int | None = None
    env = os.environ.get(JOBS_ENV_VAR)
    if env is not None and env.strip():
        try:
            value = int(env)
        except ValueError:
            raise ValueError(
                f"${JOBS_ENV_VAR} must be a positive integer, got {env!r}"
            ) from None
        if value < 1:
            raise ValueError(f"${JOBS_ENV_VAR} must be >= 1, got {value}")
        resolved = value
    if resolved is None and hasattr(os, "sched_getaffinity"):
        try:
            resolved = len(os.sched_getaffinity(0)) or 1
        except OSError:  # pragma: no cover - affinity query denied
            resolved = None
    return resolved if resolved is not None else os.cpu_count() or 1


# -- algorithm transport ----------------------------------------------------


def _algorithm_spec(algorithm: UniformDependenceAlgorithm) -> dict:
    """The picklable essence of ``(J, D)`` — semantics callbacks dropped.

    ``D`` travels as the :class:`~repro.intlin.IntMat` value itself
    (immutable and picklable); the receiving side's constructor accepts
    it without copying.
    """
    return {
        "mu": list(algorithm.mu),
        "dependence": algorithm.dependence_matrix,
        "name": algorithm.name,
    }


def _algorithm_from_spec(spec: dict) -> UniformDependenceAlgorithm:
    """Rebuild ``(J, D)`` from a transport spec, worker side.

    The payload crossed a process boundary, so its structure is proven
    (:func:`repro.model.validate_algorithm_spec`) before an algorithm
    object is built from it — a corrupted pickle surfaces as a typed
    :class:`~repro.model.SpecError`, not an arbitrary crash downstream.
    """
    validate_algorithm_spec(spec)
    return UniformDependenceAlgorithm(
        index_set=ConstantBoundedIndexSet(tuple(spec["mu"])),
        dependence_matrix=spec["dependence"],
        name=spec["name"],
    )


# -- canonical run parameters -----------------------------------------------

# These dicts are the *identity* of a query: ``canonical_key`` of one is
# the result-cache key, the checkpoint journal's run key, and the job
# digest :mod:`repro.serve` deduplicates identical requests on.  They
# are public so a front end can compute the digest before anything runs
# and be certain it equals the one the engine derives internally.


def schedule_run_params(
    algorithm: UniformDependenceAlgorithm,
    space: Sequence[Sequence[int]],
    *,
    method: str = "auto",
    alpha: int | None = None,
    initial_bound: int | None = None,
    max_bound: int | None = None,
) -> dict:
    """Canonical run parameters of a Problem 2.2 (schedule) search.

    Defaults resolve exactly as :func:`explore_schedule` resolves them
    (one shared :func:`~repro.core.optimize.search_bounds`), so a
    digest computed at submission time equals the engine's.
    """
    space_rows = tuple(as_intvec(row) for row in space)
    alpha, initial_bound, max_bound = search_bounds(
        algorithm, alpha=alpha, initial_bound=initial_bound, max_bound=max_bound
    )
    return {
        "task": "procedure-5.1",
        "mu": list(algorithm.mu),
        "dependence": algorithm.dependence_matrix,
        "space": space_rows,
        "method": method,
        "alpha": alpha,
        "initial_bound": initial_bound,
        "max_bound": max_bound,
    }


def space_run_params(
    algorithm: UniformDependenceAlgorithm,
    pi: Sequence[int],
    *,
    array_dim: int = 1,
    magnitude: int = 1,
    keep_ranking: int = 10,
) -> dict:
    """Canonical run parameters of a Problem 6.1 (space) search."""
    return {
        "task": "space-optimal",
        "mu": list(algorithm.mu),
        "dependence": algorithm.dependence_matrix,
        "pi": list(as_intvec(pi)),
        "array_dim": array_dim,
        "magnitude": magnitude,
        "keep_ranking": keep_ranking,
    }


def joint_run_params(
    algorithm: UniformDependenceAlgorithm,
    *,
    array_dim: int = 1,
    magnitude: int = 1,
    time_weight: float = 1.0,
    space_weight: float = 1.0,
    keep_ranking: int = 10,
    schedule_kwargs: dict | None = None,
) -> dict:
    """Canonical run parameters of a Problem 6.2 (joint) search."""
    kwargs = dict(schedule_kwargs or {})
    return {
        "task": "joint-optimal",
        "mu": list(algorithm.mu),
        "dependence": algorithm.dependence_matrix,
        "array_dim": array_dim,
        "magnitude": magnitude,
        "time_weight": time_weight,
        "space_weight": space_weight,
        "keep_ranking": keep_ranking,
        "schedule_kwargs": {k: kwargs[k] for k in sorted(kwargs)},
    }


# -- shard workers (module level: must pickle under ProcessPoolExecutor) ----


def _shard_spaces(
    algo: UniformDependenceAlgorithm, payload: dict
) -> list[tuple[tuple[int, ...], ...]]:
    """Re-derive a design-space shard's slice from its range payload."""
    from ..core.space_optimize import enumerate_space_mappings

    start, stop = payload["span"]
    spaces = enumerate_space_mappings(
        algo.n, payload["array_dim"], payload["magnitude"]
    )
    return list(islice(spaces, start, stop))


def _evaluate_space_shard(payload: dict) -> dict:
    """Judge one shard of Problem 6.1's design space."""
    from ..core.space_optimize import evaluate_designs_batched

    maybe_slow()
    algo = _algorithm_from_spec(payload["algorithm"])
    spaces = _shard_spaces(algo, payload)
    with get_tracer().span(
        "dse.shard", kind="space", candidates=len(spaces), shard=payload["shard"]
    ) as span:
        evaluated, batches, promotions = evaluate_designs_batched(
            algo, spaces, payload["pi"], payload.get("objective")
        )
    return {
        "evaluated": evaluated, "wall_time": span.duration,
        "batches": batches, "promotions": promotions,
    }


def _evaluate_joint_shard(payload: dict) -> dict:
    """Judge one shard of Problem 6.2's design space: one stacked
    Procedure 5.1 over its range of ``S``, the winners costed."""
    from ..core.space_optimize import evaluate_joint_designs

    maybe_slow()
    algo = _algorithm_from_spec(payload["algorithm"])
    spaces = _shard_spaces(algo, payload)
    kwargs = payload["schedule_kwargs"]
    with get_tracer().span(
        "dse.shard", kind="joint", candidates=len(spaces), shard=payload["shard"]
    ) as span:
        evaluated = evaluate_joint_designs(
            algo, spaces, payload["time_weight"], payload["space_weight"], kwargs
        )
    return {"evaluated": evaluated, "wall_time": span.duration}


# -- journal transport ------------------------------------------------------

# Design shard outputs must round-trip through the checkpoint journal as
# plain JSON.  The encoding is exact — costs are ints, the objective
# float survives JSON unchanged — so a replayed shard merges identically
# to a recomputed one.


def _encode_design(design: SpaceDesign | None) -> dict | None:
    if design is None:
        return None
    cost = design.cost
    return {
        "space": [list(row) for row in design.mapping.space],
        "pi": list(design.mapping.schedule),
        "cost": [cost.processors, cost.wire_length, cost.buffers, cost.total_time],
        "objective": design.objective,
    }


def _decode_design(item: dict | None) -> SpaceDesign | None:
    from ..core.space_optimize import SpaceDesign
    from ..systolic.cost import ArrayCost

    if item is None:
        return None
    mapping = MappingMatrix(
        space=tuple(tuple(int(x) for x in row) for row in item["space"]),
        schedule=tuple(int(x) for x in item["pi"]),
    )
    cost = ArrayCost(*(int(c) for c in item["cost"]))
    return SpaceDesign(mapping=mapping, cost=cost, objective=item["objective"])


def _encode_design_out(out: dict) -> dict:
    return {
        "evaluated": [
            [status, _encode_design(design)] for status, design in out["evaluated"]
        ],
        "wall_time": out["wall_time"],
        "batches": out.get("batches", 0),
        "promotions": out.get("promotions", 0),
    }


def _decode_design_out(data: dict) -> dict:
    return {
        "evaluated": [
            (status, _decode_design(item)) for status, item in data["evaluated"]
        ],
        "wall_time": data["wall_time"],
        "batches": int(data.get("batches", 0)),
        "promotions": int(data.get("promotions", 0)),
    }


# -- Problem 2.2: schedule search ------------------------------------------


def explore_schedule(
    algorithm: UniformDependenceAlgorithm,
    space: Sequence[Sequence[int]],
    *,
    jobs: int | None = None,
    method: str = "auto",
    alpha: int | None = None,
    initial_bound: int | None = None,
    max_bound: int | None = None,
    extra_constraint: Callable[[MappingMatrix], bool] | None = None,
    cache: ResultCache | None = None,
    checkpoint: str | os.PathLike | None = None,
    resume: bool = False,
    budget: RunBudget | None = None,
    stop=None,
    on_progress: Callable[[dict], None] | None = None,
) -> SearchResult:
    """Procedure 5.1 behind the result cache and the checkpoint journal.

    Equal (dataclass ``==``) to ``procedure_5_1(algorithm, space, ...)``,
    with identical :meth:`~repro.dse.progress.SearchStats.counter_dict`
    and work counters, for cold runs, warm-cache replays and resumed
    runs; only the cache and wall-time telemetry differ.  The search
    runs in this process: its rings are judged in groups of
    consecutive rings, one group after another
    (:func:`repro.core.optimize.search_rings`), and no ring was
    measured to repay the cost of a process pool.

    Parameters mirror :func:`repro.core.optimize.procedure_5_1`, plus:

    jobs:
        Accepted for call compatibility with :func:`explore_space` and
        :func:`explore_joint`, and ignored: a schedule search always
        runs in this process.
    cache:
        Optional persistent :class:`~repro.dse.cache.ResultCache`; hits
        skip the search and re-derive the verdict exactly.
    checkpoint:
        Path of a :class:`~repro.dse.checkpoint.CheckpointJournal`.
        The journal holds the run header and, once the search ends, its
        final decision; a run killed before that re-runs from the
        start.  ``SIGINT``/``SIGTERM`` become a clean
        :class:`~repro.dse.checkpoint.RunInterrupted` stop at the next
        ring.  Incompatible with ``extra_constraint`` (a callback cannot
        be canonicalized into the journal's run key).
    resume:
        With ``checkpoint``: a journal that holds the final decision
        answers like a warm cache hit.  The journal's run key must match
        this search's parameters exactly.
    budget:
        Optional :class:`~repro.dse.checkpoint.RunBudget`, checked
        for each ring the search walks, as a loop over single rings
        would before it: ``max_seconds`` and ``max_bits`` apply
        (``max_shards`` counts design shards only).  Exceeding a ceiling
        raises :class:`~repro.dse.checkpoint.BudgetExceeded`.
    stop:
        Optional :class:`threading.Event`; once set, the run stops
        before its next logical ring (once the group being judged is
        done) with the same clean
        :class:`~repro.dse.checkpoint.RunInterrupted` a signal produces.
        This is how a host that runs searches on worker threads (the
        :mod:`repro.serve` job server) cancels or drains them — signals
        only reach the main thread.
    on_progress:
        Optional callable receiving one ``phase`` progress event per
        logical ring walked, once its group's span closes (see
        :meth:`~repro.dse.checkpoint.RunControl.emit_span`).
    """
    validate_algorithm(algorithm)
    # Pre-normalized IntVec rows: every MappingMatrix built from them
    # reuses them without validation.
    space_rows = tuple(as_intvec(row) for row in space)
    validate_space(space_rows, algorithm.n)
    alpha, initial_bound, max_bound = search_bounds(
        algorithm, alpha=alpha, initial_bound=initial_bound, max_bound=max_bound
    )
    run_params = schedule_run_params(
        algorithm, space_rows, method=method, alpha=alpha,
        initial_bound=initial_bound, max_bound=max_bound,
    )

    def search(control: RunControl | None) -> SearchResult:
        hooks = {}
        if control is not None:
            hooks = dict(
                before_ring=control.check_ring,
                after_ring=partial(_ring_done, control),
            )
        [result] = scan_rings(
            algorithm, [space_rows], [SearchStats()], method=method,
            alpha=alpha, initial_bound=initial_bound, max_bound=max_bound,
            extra_constraint=extra_constraint, span_name="dse.ring", **hooks,
        )
        return result

    result = _explore(
        run_params, search, _schedule_entry_from_result,
        lambda entry: _schedule_result_from_entry(
            algorithm, space_rows, method, entry
        ),
        span_attrs=dict(algorithm=algorithm.name, method=method),
        callback="extra_constraint" if extra_constraint is not None else None,
        cache=cache, checkpoint=checkpoint, resume=resume, budget=budget,
        stop=stop, on_progress=on_progress,
    )
    # One in-process shard, as in procedure_5_1.
    result.stats.shard_wall_times = (result.stats.wall_time,)
    return result


def _ring_done(control: RunControl, ring: Ring, won: bool) -> None:
    """Emit one logical ring as a ``phase`` progress event from its
    group's closed span: a subscriber sees the data a ``--trace`` file
    would hold, with the ring's own index, bounds and sizes in place of
    the group's.  ``candidates`` and ``materialized`` travel explicitly,
    since ``Span.set()`` drops attributes when the tracer is disabled."""
    control.emit_span(
        ring.span, winner=won, ring=ring.index, f_min=ring.f_min,
        f_max=ring.f_max, candidates=ring.size, materialized=len(ring.candidates),
    )
    if won:
        logger.debug("explore_schedule: ring %d produced the winner", ring.index)


def _schedule_entry_from_result(result: SearchResult) -> dict:
    """The persistent decision record — shared by the result cache and
    the checkpoint journal, so either can rebuild the result exactly."""
    return {
        "found": result.found,
        "pi": list(result.schedule.pi) if result.found else None,
        "candidates_examined": result.candidates_examined,
        "rings_expanded": result.rings_expanded,
        "counters": result.stats.counter_dict(),
    }


def _schedule_result_from_entry(
    algorithm: UniformDependenceAlgorithm,
    space_rows: tuple[tuple[int, ...], ...],
    method: str,
    entry: dict,
) -> SearchResult:
    """Rebuild a :class:`SearchResult` from a cache or journal entry.

    The entry stores only the decision; the verdict is re-derived with
    the same checker call the search would have made, so the rebuilt
    result equals the cold one.  ``stats.wall_time`` is left for the
    caller's root span to fill in.
    """
    stats = SearchStats.from_dict(entry["counters"])
    if not entry["found"]:
        return SearchResult(
            schedule=None,
            mapping=None,
            verdict=None,
            candidates_examined=entry["candidates_examined"],
            rings_expanded=entry["rings_expanded"],
            stats=stats,
        )
    pi = tuple(entry["pi"])
    mapping = MappingMatrix(space=space_rows, schedule=pi)
    return SearchResult(
        schedule=LinearSchedule(pi=pi, index_set=algorithm.index_set),
        mapping=mapping,
        verdict=check_conflict_free(mapping, algorithm.mu, method=method),
        candidates_examined=entry["candidates_examined"],
        rings_expanded=entry["rings_expanded"],
        stats=stats,
    )


# -- one cache and journal wrapper ----------------------------------------


def _explore(
    run_params: dict,
    search: Callable[[RunControl | None], R],
    to_entry: Callable[[R], dict],
    from_entry: Callable[[dict], R],
    *,
    span_attrs: dict,
    callback: str | None,
    cache: ResultCache | None,
    checkpoint: str | os.PathLike | None,
    resume: bool,
    budget: RunBudget | None,
    stop,
    on_progress: Callable[[dict], None] | None,
) -> R:
    """Run one ``explore_*`` search behind the result cache and journal.

    A cache hit, or a journal that already holds the final decision,
    rebuilds the result with ``from_entry`` instead of searching; a
    fresh ``search(control)`` result is journaled and cached through
    ``to_entry``.  ``callback`` names a live callable of the query: it
    bypasses the cache and rules out a checkpoint, since neither can be
    part of a canonical key.  The root span times the whole call.
    """
    if checkpoint is not None and callback is not None:
        raise ValueError(
            f"checkpoint is incompatible with {callback}: a live "
            "callback cannot be canonicalized into the journal's run key"
        )
    task = run_params["task"]
    root = get_tracer().span(f"dse.explore_{_KINDS[task]}", **span_attrs)
    with root:
        use_cache = cache is not None and callback is None
        cache_key = canonical_key(run_params) if use_cache else None
        entry = cache.get(cache_key) if use_cache else None
        if entry is not None:
            logger.debug("%s: warm cache hit, skipping search", task)
            result = from_entry(entry)
            result.stats.cache_hits = 1
        else:
            control = None
            if any(x is not None for x in (checkpoint, budget, stop, on_progress)):
                journal = None
                if checkpoint is not None:
                    journal = CheckpointJournal(checkpoint)
                    journal.open(canonical_key(run_params), task=task, resume=resume)
                control = RunControl(
                    journal=journal, budget=budget, stop=stop,
                    on_progress=on_progress,
                )
            with control if control is not None else nullcontext():
                if control is not None and control.resume_entry is not None:
                    # The journal already holds the final decision:
                    # short-circuit exactly like a warm cache hit.
                    logger.debug("%s: journal holds a completed run", task)
                    entry = control.resume_entry
                    result = from_entry(entry)
                    result.stats.shards_resumed = control.journal.resumed_shards
                else:
                    result = search(control)
                    entry = to_entry(result)
                    if control is not None:
                        result.stats.shards_resumed = control.shards_resumed
                        control.record_result(entry)
            result.stats.cache_misses = int(cache_key is not None)
            if cache_key is not None:
                cache.put(cache_key, entry)
    # One timing source: the search's wall time is the root span.
    result.stats.wall_time = root.duration
    return result


# -- Problems 6.1 / 6.2: design-space search -------------------------------


def explore_space(
    algorithm: UniformDependenceAlgorithm,
    pi: Sequence[int],
    *,
    jobs: int | None = None,
    array_dim: int = 1,
    magnitude: int = 1,
    objective=None,
    keep_ranking: int = 10,
    cache: ResultCache | None = None,
    resilience: ResiliencePolicy | None = None,
    checkpoint: str | os.PathLike | None = None,
    resume: bool = False,
    budget: RunBudget | None = None,
    stop=None,
    on_progress: Callable[[dict], None] | None = None,
) -> SpaceOptimizationResult:
    """Problem 6.1 through the engine; equal to ``solve_space_optimal``.

    The design space runs as ``jobs`` shards on a pool of worker
    processes (``None``: one per available CPU; ``resilience`` governs
    shard timeouts, retries and degradation).  A custom ``objective``
    callable runs the same shards in process and bypasses the cache (it
    is part of the answer but not of any canonical key); for the same
    reason it is incompatible with ``checkpoint``.

    ``checkpoint`` journals (fsync'd) every shard the moment it
    completes, and ``SIGINT``/``SIGTERM`` become a clean
    :class:`~repro.dse.checkpoint.RunInterrupted` stop; ``resume=True``
    replays the journal and dispatches only the shards it lacks.
    ``budget`` (``max_seconds``, ``max_shards``) and ``stop`` are polled
    between shards, and ``on_progress`` receives ``shard_done`` and
    ``shards_resumed`` events.
    """
    from ..core.space_optimize import evaluate_designs_batched

    validate_algorithm(algorithm)
    pi_t = as_intvec(pi)
    validate_vector(pi_t, algorithm.n, "pi")
    if not LinearSchedule(pi=pi_t, index_set=algorithm.index_set).respects(algorithm):
        raise ValueError("the given Pi violates the dependence condition Pi D > 0")
    return _explore_designs(
        algorithm,
        space_run_params(
            algorithm, pi_t, array_dim=array_dim, magnitude=magnitude,
            keep_ranking=keep_ranking,
        ),
        _evaluate_space_shard,
        {"pi": pi_t, "objective": objective},
        lambda items: [design for _, design in evaluate_designs_batched(
            algorithm, [space for space, _ in items], pi_t)[0]],
        callback="a custom objective" if objective is not None else None,
        jobs=jobs, cache=cache, resilience=resilience, checkpoint=checkpoint,
        resume=resume, budget=budget, stop=stop, on_progress=on_progress,
    )


def explore_joint(
    algorithm: UniformDependenceAlgorithm,
    *,
    jobs: int | None = None,
    array_dim: int = 1,
    magnitude: int = 1,
    time_weight: float = 1.0,
    space_weight: float = 1.0,
    keep_ranking: int = 10,
    schedule_kwargs: dict | None = None,
    cache: ResultCache | None = None,
    resilience: ResiliencePolicy | None = None,
    checkpoint: str | os.PathLike | None = None,
    resume: bool = False,
    budget: RunBudget | None = None,
    stop=None,
    on_progress: Callable[[dict], None] | None = None,
) -> SpaceOptimizationResult:
    """Problem 6.2 through the engine; equal to ``solve_joint_optimal``.

    ``schedule_kwargs`` containing callbacks (``extra_constraint``)
    runs the same shards in process, bypasses the cache and is
    incompatible with ``checkpoint``.  ``jobs``, ``resilience``,
    ``checkpoint``, ``resume``, ``budget``, ``stop`` and ``on_progress``
    behave as in :func:`explore_space`.
    """
    from ..core.space_optimize import cost_designs, joint_objective

    validate_algorithm(algorithm)
    kwargs = dict(schedule_kwargs or {})
    has_callback = any(callable(v) for v in kwargs.values())

    def rebuild(items):
        # Shares joint_objective with evaluate_joint_designs, so a
        # warm rebuild can never drift from the cold path's cost model.
        mappings = [MappingMatrix(space=space, schedule=tuple(pi)) for space, pi in items]
        return [design for _, design in cost_designs(
            algorithm, mappings,
            lambda cost: joint_objective(cost, time_weight, space_weight),
        )]

    return _explore_designs(
        algorithm,
        joint_run_params(
            algorithm, array_dim=array_dim, magnitude=magnitude,
            time_weight=time_weight, space_weight=space_weight,
            keep_ranking=keep_ranking, schedule_kwargs=kwargs,
        ),
        _evaluate_joint_shard,
        dict(
            time_weight=time_weight, space_weight=space_weight,
            schedule_kwargs=kwargs,
        ),
        rebuild,
        callback="callback schedule_kwargs" if has_callback else None,
        jobs=jobs, cache=cache, resilience=resilience, checkpoint=checkpoint,
        resume=resume, budget=budget, stop=stop, on_progress=on_progress,
    )


def _explore_designs(
    algorithm: UniformDependenceAlgorithm,
    run_params: dict,
    worker: Callable[[dict], dict],
    fields: dict,
    rebuild: Callable[[list], list[SpaceDesign | None]],
    *,
    callback: str | None,
    jobs: int | None,
    resilience: ResiliencePolicy | None,
    **cache_and_control,
) -> SpaceOptimizationResult:
    """The one explore body of Problems 6.1 and 6.2.

    The design space is cut into at most ``jobs`` contiguous ranges, one
    shard payload each (``fields`` plus the range), and run by
    ``worker`` through the resilient runner's shard loop — in process
    when there is one shard or ``callback`` names a live callable in
    ``fields``, on a pool otherwise; journal, progress events, stop and
    budget behave the same either way.  Outcomes concatenate in range
    order, which is candidate order, and
    :func:`~repro.core.space_optimize.search_designs` tallies and ranks
    them as the serial solvers do.  ``rebuild(items)`` re-derives a
    cached ranking in one call, a design or ``None`` per ``(space, pi)``
    (``pi`` is ``None`` for Problem 6.1, whose entries do not store it).
    """
    from ..core.space_optimize import check_design_args, search_designs

    array_dim = run_params["array_dim"]
    magnitude = run_params["magnitude"]
    keep_ranking = run_params["keep_ranking"]
    # Reject bad bounds before any cache or journal lookup.
    check_design_args(array_dim, magnitude, keep_ranking)
    jobs = resolve_jobs(jobs)
    kind = _KINDS[run_params["task"]]
    base = dict(
        fields, algorithm=_algorithm_spec(algorithm), array_dim=array_dim,
        magnitude=magnitude, trace=get_tracer().enabled,
    )

    def search(control: RunControl | None) -> SpaceOptimizationResult:
        stats = SearchStats()

        def judge(spaces: list) -> list:
            payloads = [
                dict(base, span=rng, shard=i)
                for i, rng in enumerate(_design_ranges(len(spaces), jobs))
            ]
            with ResilientShardRunner(
                len(payloads), in_process=callback is not None, policy=resilience,
            ) as runner:
                outs = runner.run(
                    worker, payloads, control, kind=kind,
                    encode=_encode_design_out, decode=_decode_design_out,
                )
            runner.apply_telemetry(stats)
            stats.shards = max(1, len(outs))
            stats.shard_wall_times = tuple(out["wall_time"] for out in outs)
            stats.batches_evaluated = sum(out.get("batches", 0) for out in outs)
            stats.fastpath_promotions = sum(out.get("promotions", 0) for out in outs)
            return [outcome for out in outs for outcome in out["evaluated"]]

        return search_designs(
            algorithm, judge, array_dim=array_dim, magnitude=magnitude,
            keep_ranking=keep_ranking, stats=stats, span_name="dse.designs",
        )

    return _explore(
        run_params, search,
        lambda result: _space_entry_from_result(result, with_pi=kind == "joint"),
        lambda entry: _space_result_from_entry(entry, rebuild),
        span_attrs=dict(
            algorithm=algorithm.name, jobs=jobs, array_dim=array_dim,
            magnitude=magnitude,
        ),
        callback=callback, **cache_and_control,
    )


def _design_ranges(total: int, jobs: int) -> list[tuple[int, int]]:
    """Cut ``[0, total)`` into ``min(jobs, total)`` contiguous ranges.

    The ranges cover the interval in order, each of ``total // shards``
    items or one more (the remainder goes to the leading ranges), so the
    shard outputs concatenated in order are the serial visit order.
    """
    shards = min(jobs, total)
    if shards == 0:
        return []
    base, extra = divmod(total, shards)
    cuts = [k * base + min(k, extra) for k in range(shards + 1)]
    return list(zip(cuts, cuts[1:]))


def _space_entry_from_result(
    result: SpaceOptimizationResult, *, with_pi: bool = False
) -> dict:
    ranking = []
    for design in result.ranking:
        item = {"space": [list(r) for r in design.mapping.space]}
        if with_pi:
            item["pi"] = list(design.mapping.schedule)
        ranking.append(item)
    return {
        "ranking": ranking,
        "candidates_examined": result.candidates_examined,
        "rejected_conflicts": result.rejected_conflicts,
        "rejected_routing": result.rejected_routing,
        "counters": result.stats.counter_dict(),
    }


def _space_result_from_entry(
    entry: dict, rebuild: Callable[[list], list[SpaceDesign | None]]
) -> SpaceOptimizationResult:
    from ..core.space_optimize import SpaceOptimizationResult

    rebuilt = rebuild([
        (tuple(tuple(int(x) for x in row) for row in item["space"]), item.get("pi"))
        for item in entry["ranking"]
    ])
    # A design the current code no longer accepts (version skew) is dropped.
    designs = [design for design in rebuilt if design is not None]
    return SpaceOptimizationResult(
        best=designs[0] if designs else None,
        ranking=tuple(designs),
        candidates_examined=entry["candidates_examined"],
        rejected_conflicts=entry["rejected_conflicts"],
        rejected_routing=entry["rejected_routing"],
        stats=SearchStats.from_dict(entry["counters"]),
    )
