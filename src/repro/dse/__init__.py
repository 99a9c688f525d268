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

Every name loads its submodule on first use (:mod:`repro._lazy`, as
in every package of :mod:`repro`): :mod:`repro.core` imports
:mod:`~repro.dse.progress`, so the executor, which imports
:mod:`repro.core`, cannot load with this package.
"""

from .. import _lazy

__all__, __getattr__, __dir__ = _lazy.exports(__name__, globals(), {
    ".progress": ("SearchStats", "format_stats"),
    ".executor": (
        "explore_schedule", "explore_space", "explore_joint", "resolve_jobs",
        "schedule_run_params", "space_run_params", "joint_run_params",
    ),
    ".cache": ("ResultCache", "canonical_key", "default_cache_dir"),
    ".resilience": ("ResiliencePolicy", "ResilienceError"),
    ".checkpoint": (
        "CheckpointJournal", "RunBudget", "RunInterrupted", "BudgetExceeded",
        "CheckpointError",
    ),
})
