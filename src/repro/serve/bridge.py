"""The worker-thread bridge from job records to the DSE engine.

:func:`execute_job` is the only code in :mod:`repro.serve` that calls
the engine.  It runs inside ``asyncio.to_thread`` — *off* the main
thread — which is safe by construction: the engine's
``ShutdownGuard`` degrades to a no-op off the main thread, and the
server-level SIGTERM handler reaches running jobs through the
``threading.Event`` stop hook instead.

Every execution is journaled and resumable: jobs always run with
``checkpoint=<per-job journal>, resume=True``.  A fresh job simply has
no journal yet (an absent file is a fresh start), while a job the
server picked back up after a crash or restart replays what its
journal holds: a design job its completed shards, any job its final
answer if it got that far (a schedule job journals nothing else and
otherwise re-runs).  This is what makes the service's crash story one
sentence long: kill the server whenever, restart it, and every
in-flight job resumes where its journal ends with a result equal to an
uninterrupted run.
"""

from __future__ import annotations

import logging
import os
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from ..dse.cache import ResultCache
from ..dse.checkpoint import (
    BudgetExceeded,
    CheckpointError,
    RunBudget,
    RunInterrupted,
)
from ..dse.executor import explore_joint, explore_schedule, explore_space
from ..dse.resilience import ResiliencePolicy
from .hardening import FAULT_HANG_ENV_VAR, take_fault
from .protocol import JobSpec, encode_result

logger = logging.getLogger("repro.serve.bridge")

__all__ = ["JobOutcome", "execute_job"]


@dataclass(frozen=True)
class JobOutcome:
    """What a finished (or stopped) execution hands back to the loop."""

    #: "done" | "interrupted" | "failed"
    state: str
    result: dict | None = None
    telemetry: dict | None = None
    cache_hit: bool = False
    error: str | None = None


def execute_job(
    spec: JobSpec,
    *,
    journal_path,
    cache: ResultCache | None,
    resilience: ResiliencePolicy | None = None,
    budget: RunBudget | None = None,
    stop: threading.Event | None = None,
    on_progress: Callable[[dict], None] | None = None,
    jobs: int | None = None,
) -> JobOutcome:
    """Run one job to completion, interruption, or failure.

    Blocking — call from a worker thread.  Never raises: every outcome
    (including engine bugs) is folded into a :class:`JobOutcome` so the
    event loop's job bookkeeping cannot be skipped by an exception.

    Chaos hooks (``$REPRO_SERVE_FAULT``, see
    :mod:`repro.serve.hardening`): ``crash`` makes this execution fail
    the way an engine bug would; ``hang`` wedges it in an
    uninterruptible sleep that ignores the stop event — exactly the
    failure the watchdog exists for.
    """
    if take_fault("crash"):
        logger.error("injected fault: crash (REPRO_SERVE_FAULT)")
        return JobOutcome(state="failed",
                          error="InjectedFault: crash (REPRO_SERVE_FAULT)")
    if take_fault("hang"):
        naptime = float(os.environ.get(FAULT_HANG_ENV_VAR, "30"))
        logger.error("injected fault: hang %.1fs (REPRO_SERVE_FAULT)", naptime)
        time.sleep(naptime)  # deliberately deaf to `stop`
        return JobOutcome(state="interrupted",
                          error="InjectedFault: hang (REPRO_SERVE_FAULT)")
    algorithm = spec.build_algorithm()
    common = dict(
        cache=cache, checkpoint=journal_path, resume=True, budget=budget,
        stop=stop, on_progress=on_progress,
    )
    try:
        if spec.task == "parametric":
            return _fresh_on_stale(journal_path, lambda: _execute_parametric(
                spec, algorithm, cache, common))
        # Only the design searches run shards on a worker pool.
        if spec.task != "schedule":
            common.update(jobs=jobs, resilience=resilience)
        result = _fresh_on_stale(
            journal_path, lambda: _explore(spec, algorithm, common))
    except RunInterrupted as exc:
        logger.info("job interrupted: %s", exc)
        return JobOutcome(state="interrupted", error=str(exc))
    except BudgetExceeded as exc:
        logger.warning("job budget exhausted: %s", exc)
        return JobOutcome(state="failed", error=f"budget exhausted: {exc}")
    except Exception as exc:
        logger.exception("job execution failed")
        return JobOutcome(state="failed",
                          error=f"{type(exc).__name__}: {exc}")
    return JobOutcome(
        state="done",
        result=encode_result(spec.task, result),
        telemetry=result.stats.to_dict(),
        cache_hit=result.stats.cache_hits > 0,
    )


def _fresh_on_stale(journal_path, run: Callable):
    """``run()``, restarted once on a fresh journal when the job's
    journal cannot be resumed.

    A journal written before an upgrade has an older schema or run key
    (:class:`CheckpointError`); it is set aside as ``<journal>.stale``
    and the job starts over instead of failing.
    """
    try:
        return run()
    except CheckpointError as exc:
        stale = Path(f"{journal_path}.stale")
        logger.warning("journal %s cannot be resumed (%s); restarting the "
                       "job fresh, old journal kept as %s",
                       journal_path, exc, stale.name)
        os.replace(journal_path, stale)
        return run()


def _explore(spec: JobSpec, algorithm, common: dict):
    """One engine search for a schedule, space or joint job."""
    opts = spec.options
    if spec.task == "schedule":
        return explore_schedule(
            algorithm, opts["space"], method=opts["method"], **common
        )
    if spec.task == "space":
        return explore_space(
            algorithm, opts["pi"], array_dim=opts["array_dim"],
            magnitude=opts["magnitude"],
            keep_ranking=opts["keep_ranking"], **common,
        )
    return explore_joint(
        algorithm, array_dim=opts["array_dim"],
        magnitude=opts["magnitude"],
        time_weight=opts["time_weight"],
        space_weight=opts["space_weight"],
        keep_ranking=opts["keep_ranking"], **common,
    )


def _execute_parametric(spec, algorithm, cache, common) -> JobOutcome:
    """Answer a parametric job from its compiled symbolic artifact.

    The artifact (a :class:`repro.symbolic.SymbolicSolution`) is fetched
    from — or compiled once into — the server's result cache, keyed by
    the compile parameters *without* the answered size; any size inside
    the certified range is then an O(1) polynomial evaluation with no
    search shards at all.  A size outside the certificate falls back to
    the ordinary journaled enumerative search, so the service's answer
    contract (equal to a direct engine run) holds everywhere.
    """
    from ..symbolic.compiler import (
        compile_schedule,
        family_from_algorithm,
        load_or_compile,
        schedule_compile_params,
    )

    opts = spec.options
    family = family_from_algorithm(algorithm)
    size = algorithm.index_set.mu[0]
    params = schedule_compile_params(
        algorithm.dependence_matrix.tolist(), opts["space"],
        method=opts["method"], mu_range=opts["mu_range"],
    )
    solution, compiled = load_or_compile(
        lambda: compile_schedule(
            family, opts["space"],
            method=opts["method"], mu_range=opts["mu_range"],
        ),
        params,
        cache,
    )
    answer = solution.eval(size)
    if answer is None:
        logger.info(
            "mu=%d outside the certified range %s; falling back to "
            "enumeration", size, [solution.mu_lo, solution.mu_hi],
        )
        result = explore_schedule(
            algorithm, opts["space"], method=opts["method"], **common
        )
        encoded = encode_result("schedule", result)
        encoded["task"] = "parametric"
        encoded["mode"] = "enumerative-fallback"
        return JobOutcome(
            state="done",
            result=encoded,
            telemetry=result.stats.to_dict(),
            cache_hit=result.stats.cache_hits > 0,
        )
    result = {
        "task": "parametric",
        "mode": "symbolic",
        "found": answer.found,
        "mu": size,
        "interval": list(answer.interval),
    }
    if answer.found:
        result["pi"] = list(answer.pi)
        result["total_time"] = answer.total_time
    telemetry = {
        "symbolic": True,
        "compiled": compiled,
        "compile_samples": solution.samples,
        "intervals": len(solution.intervals),
        "shards_dispatched": 0,
        "cache_hits": 0 if compiled else 1,
        "cache_misses": 1 if compiled else 0,
    }
    return JobOutcome(
        state="done",
        result=result,
        telemetry=telemetry,
        cache_hit=not compiled,
    )
