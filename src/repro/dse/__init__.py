"""repro.dse — parallel, cached design-space exploration engine.

Public surface:

* :class:`SearchStats` / :func:`format_stats` — uniform search
  telemetry (:mod:`repro.dse.progress`).
* :func:`explore_schedule`, :func:`explore_space`,
  :func:`explore_joint` — the work-queue searches
  (:mod:`repro.dse.executor`), equal to their serial counterparts in
  :mod:`repro.core` for every ``jobs`` value and cache state.
* :class:`ResultCache`, :func:`canonical_key`,
  :func:`default_cache_dir` — the persistent result cache
  (:mod:`repro.dse.cache`).
* :class:`ResiliencePolicy`, :class:`ResilienceError` — fault
  tolerance for the design searches' process pool
  (:mod:`repro.dse.resilience`): shard timeouts, bounded retries, pool
  replacement and in-process degradation, all preserving serial-result
  equality.
* :class:`CheckpointJournal`, :class:`RunBudget`,
  :class:`RunInterrupted`, :class:`BudgetExceeded`,
  :class:`CheckpointError` — crash-safe checkpoint/resume, graceful
  shutdown and run budgets (:mod:`repro.dse.checkpoint`).

Only :mod:`~repro.dse.progress` is imported eagerly: :mod:`repro.core`
imports it from here, so everything that pulls in :mod:`repro.core`
(as the executor does) must load lazily to keep the import graph
acyclic.
"""

from __future__ import annotations

from .progress import SearchStats, format_stats

__all__ = [
    "SearchStats",
    "format_stats",
    "explore_schedule",
    "explore_space",
    "explore_joint",
    "resolve_jobs",
    "schedule_run_params",
    "space_run_params",
    "joint_run_params",
    "ResultCache",
    "canonical_key",
    "default_cache_dir",
    "ResiliencePolicy",
    "ResilienceError",
    "CheckpointJournal",
    "RunBudget",
    "RunInterrupted",
    "BudgetExceeded",
    "CheckpointError",
]

_LAZY = {
    "explore_schedule": "executor",
    "explore_space": "executor",
    "explore_joint": "executor",
    "resolve_jobs": "executor",
    "schedule_run_params": "executor",
    "space_run_params": "executor",
    "joint_run_params": "executor",
    "ResultCache": "cache",
    "canonical_key": "cache",
    "default_cache_dir": "cache",
    "ResiliencePolicy": "resilience",
    "ResilienceError": "resilience",
    "CheckpointJournal": "checkpoint",
    "RunBudget": "checkpoint",
    "RunInterrupted": "checkpoint",
    "BudgetExceeded": "checkpoint",
    "CheckpointError": "checkpoint",
}


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    module = importlib.import_module(f".{module_name}", __name__)
    value = getattr(module, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY))
