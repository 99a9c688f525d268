"""Timing wrappers around the program's public functions.

The traced pass rebinds each function below, in every module that calls
it, with a wrapper that records one span per call in memory.  Nothing in
the program changes; ``uninstall`` puts every original back.  A target
that no longer exists is reported as an absent layer instead of failing
the run, so the benchmark survives refactors that delete a layer.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time

from harness import self_times


def _n(value) -> int:
    return int(getattr(value, "shape", (len(value),))[0])


def _rows_result(args, kwargs, result):
    return _n(result)


def _rows_arg0(args, kwargs, result):
    return _n(args[0])


def _rows_arg1(args, kwargs, result):
    return _n(args[1])


def _one(args, kwargs, result):
    return 1


#: (layer, module, attribute, rows) -- attribute may be ``Class.method``.
SEARCH_TARGETS = (
    ("core.optimize.ring", "repro.core.optimize", "ring_candidate_array", _rows_result),
    ("core.optimize.ring", "repro.dse.executor", "ring_candidate_array", _rows_result),
    ("intlin.batch.mask", "repro.core.optimize", "batch_dependence_mask", _rows_arg0),
    ("intlin.batch.mask", "repro.core.optimize", "batch_nonzero_mask", _rows_arg0),
    ("intlin.batch.images", "repro.core.optimize", "batch_point_images", _rows_arg1),
    ("intlin.batch.images", "repro.core.space_optimize", "batch_point_images", _rows_arg1),
    # batch_distinct_image_counts returns one count per screened candidate.
    ("core.conflict.screen", "repro.core.optimize", "batch_distinct_image_counts",
     _rows_result),
    ("core.conflict.screen", "repro.core.space_optimize", "batch_distinct_image_counts",
     _rows_result),
    ("core.conditions.check", "repro.core.optimize", "check_conflict_free", _one),
    ("core.conditions.check", "repro.dse.executor", "check_conflict_free", _one),
    ("core.conditions.check", "repro.core.space_optimize", "check_conflict_free", _one),
    ("core.symmetry", "repro.core.optimize", "symmetry_group_for", _one),
    ("core.symmetry", "repro.dse.executor", "symmetry_group_for", _one),
    ("core.symmetry", "repro.core.symmetry", "SymmetryGroup.canonicalize_rows",
     _rows_arg1),
    ("core.ilp_formulation.bound", "repro.core.ilp_formulation",
     "schedule_lower_bound", _one),
    ("ilp.lp", "repro.ilp.branch_bound", "solve_lp_relaxation", _one),
    ("dse.executor.calibration", "repro.dse.executor", "calibration_probe", _one),
    ("core.optimize.p51", "repro.core.optimize", "procedure_5_1", _one),
    ("core.optimize.p51", "repro.core.space_optimize", "procedure_5_1", _one),
    ("dse.executor.explore", "repro.dse.executor", "explore_schedule", _one),
    ("dse.executor.explore", "repro.dse.executor", "explore_joint", _one),
    ("dse.executor.explore", "repro.serve.bridge", "explore_schedule", _one),
    ("core.space_optimize.candidate", "repro.dse.executor",
     "evaluate_joint_candidate", _one),
    ("systolic.cost", "repro.core.space_optimize", "evaluate_cost", _one),
    ("systolic.cost", "repro.dse.executor", "evaluate_cost", _one),
)

SERVE_TARGETS = (
    ("serve.protocol.parse", "repro.serve.server", "parse_job_spec", _one),
    ("serve.protocol.digest", "repro.serve.protocol", "JobSpec.digest", _one),
    ("serve.queue.admit", "repro.serve.queue", "JobManager.submit", _one),
    ("serve.store.save", "repro.serve.store", "JobStore.save", _one),
    ("serve.store.event", "repro.serve.store", "JobStore.append_event", _one),
    ("dse.checkpoint.append", "repro.dse.checkpoint", "CheckpointJournal._append", _one),
    ("dse.cache.get", "repro.dse.cache", "ResultCache.get", _one),
    ("dse.cache.put", "repro.dse.cache", "ResultCache.put", _one),
)

#: Searches whose ``SearchResult`` carries the ``SearchStats`` counters.
_RESULT_LAYERS = ("core.optimize.p51", "dse.executor.explore")
STAT_COUNTERS = (
    "candidates_enumerated", "conflict_screens", "orbits_collapsed",
    "candidates_skipped", "batches_evaluated", "fastpath_promotions",
    "rings_expanded",
)


class LayerTracer:
    """In-memory spans from wrapped functions, per thread."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.phase = "setup"
        self.absent: list[str] = []
        self.counters = dict.fromkeys(STAT_COUNTERS, 0)
        self.winners = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._saved: list[tuple[object, str, object]] = []

    # -- install / restore -------------------------------------------------

    def install(self, targets) -> None:
        for layer, module, attr, rows in targets:
            try:
                owner = importlib.import_module(module)
                *path, name = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = owner.__dict__[name] if path else getattr(owner, name)
            except (ImportError, AttributeError, KeyError):
                self.absent.append(f"{module}:{attr}")
                continue
            if isinstance(original, property):
                wrapped = property(self._wrap(layer, original.fget, rows))
            else:
                wrapped = self._wrap(layer, original, rows)
            setattr(owner, name, wrapped)
            self._saved.append((owner, name, original))

    def uninstall(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def _wrap(self, layer: str, fn, rows):
        spans = self.spans
        local = self._local
        ids = self._ids
        clock = time.perf_counter
        keep_stats = layer in _RESULT_LAYERS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            sid = next(ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
            spans.append((sid, parent, layer, start, end,
                          rows(args, kwargs, result), self.phase))
            if keep_stats:
                self._count(result)
            return result

        return wrapper

    def _count(self, result) -> None:
        stats = getattr(result, "stats", None)
        if stats is None or not hasattr(result, "schedule"):
            return
        for key in STAT_COUNTERS:
            self.counters[key] += int(getattr(stats, key, 0))
        if result.schedule is not None:
            self.winners += 1

    # -- output ------------------------------------------------------------

    def summary(self) -> dict:
        """Self time, calls and rows per phase and layer, plus counters."""
        by_phase: dict[str, list] = {}
        for span in self.spans:
            by_phase.setdefault(span[6], []).append(span)
        return {
            "phases": {p: self_times(s) for p, s in by_phase.items()},
            "counters": dict(self.counters),
            "winners": self.winners,
            "absent": list(self.absent),
        }

    def dump(self, path) -> None:
        """Write the raw spans as JSON lines."""
        with open(path, "w") as fh:
            for sid, parent, layer, start, end, rows, phase in self.spans:
                fh.write(json.dumps({
                    "id": sid, "parent": parent, "layer": layer,
                    "start": start, "end": end, "rows": rows, "phase": phase,
                }) + "\n")
