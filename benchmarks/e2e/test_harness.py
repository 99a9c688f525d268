"""Unit tests of the benchmark harness: ``pytest benchmarks/e2e -q``."""

from __future__ import annotations

import json
import sys
import types

import pytest

from harness import (
    EXPECTED,
    iqr,
    judge_metric,
    open_loop_schedule,
    percentile,
    quartiles,
    self_times,
    serve_pool,
    spec_key,
)
from layers import LayerTracer


def test_percentile_interpolates_between_ranks():
    sample = [15, 20, 35, 40, 50]
    assert percentile(sample, 0) == 15
    assert percentile(sample, 50) == 35
    assert percentile(sample, 90) == pytest.approx(46.0)
    assert percentile(sample, 100) == 50
    assert percentile([7.5], 99) == 7.5


def test_quartiles_and_iqr_follow_statistics_quantiles():
    sample = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]
    # statistics.quantiles(n=4), exclusive method.
    assert quartiles(sample) == (2.75, 5.5, 8.25)
    assert iqr(sample) == pytest.approx(5.5)
    assert iqr([4.0]) == 0.0


def test_self_time_subtracts_covered_child_intervals():
    spans = [
        (1, None, "search", 0.0, 10.0, 1, "q"),
        (2, 1, "ring", 1.0, 4.0, 100, "q"),
        (3, 2, "mask", 2.0, 3.0, 50, "q"),
        (4, 1, "ring", 5.0, 6.0, 20, "q"),
        (5, 1, "screen", 7.0, 9.5, 3, "q"),
    ]
    layers = self_times(spans)
    assert layers["search"]["self_s"] == pytest.approx(10.0 - 3.0 - 1.0 - 2.5)
    assert layers["ring"]["self_s"] == pytest.approx((3.0 - 1.0) + 1.0)
    assert layers["ring"]["calls"] == 2 and layers["ring"]["rows"] == 120
    assert layers["mask"]["self_s"] == pytest.approx(1.0)
    # Self times partition the root span.
    assert sum(v["self_s"] for v in layers.values()) == pytest.approx(10.0)


def _pairs(wins: int, n: int = 10):
    parent = [100.0 + i for i in range(n)]
    change = [p - 20.0 if i < wins else p + 1.0 for i, p in enumerate(parent)]
    return parent, change


def test_claim_needs_nine_of_ten_wins():
    rejected = judge_metric(*_pairs(8), better="lower", bound=0.1, claimed=True)
    accepted = judge_metric(*_pairs(9), better="lower", bound=0.1, claimed=True)
    assert rejected["wins"] == 8 and rejected["verdict"] == "not-met"
    assert accepted["wins"] == 9 and accepted["verdict"] == "gain"


def test_claim_must_move_median_beyond_parent_iqr():
    parent = [100.0 + 10 * i for i in range(10)]
    change = [p - 1.0 for p in parent]  # wins every pair, by too little
    assert judge_metric(parent, change, better="lower", bound=0.1,
                        claimed=True)["verdict"] == "not-met"


def test_unclaimed_metrics_within_bound_worse_or_unresolved():
    parent = [100.0 + 0.1 * i for i in range(10)]
    assert judge_metric(parent, [p * 1.05 for p in parent],
                        better="lower", bound=0.1)["verdict"] == "ok"
    assert judge_metric(parent, [p * 1.2 for p in parent],
                        better="lower", bound=0.1)["verdict"] == "worse"
    assert judge_metric(parent, [p * 0.8 for p in parent],
                        better="higher", bound=0.1)["verdict"] == "worse"
    noisy = [100.0, 150.0] * 5
    assert judge_metric(parent, noisy, better="lower",
                        bound=0.1)["verdict"] == "unresolved"
    assert judge_metric(parent, parent[:8], better="lower",
                        bound=0.1)["verdict"] == "too-few-pairs"


def test_compare_refuses_sides_run_with_different_settings(tmp_path):
    import compare

    record = {"attempted": 1, "failed": 0, "metrics": {}}
    for side, seconds in (("parent", 24.0), ("change", 12.0)):
        (tmp_path / side).mkdir()
        (tmp_path / side / "00.json").write_text(json.dumps(
            {"seed": 1, "seconds": seconds, "trace": 0,
             "workloads": {"joint-small": record}}))
    with pytest.raises(SystemExit, match="different"):
        compare.main([str(tmp_path / "parent"), str(tmp_path / "change")])


def test_open_loop_schedule_is_reproducible_from_its_seed():
    first = open_loop_schedule(7, 24.0)
    assert first == open_loop_schedule(7, 24.0)
    assert first != open_loop_schedule(8, 24.0)
    dues = [due for due, _, _ in first]
    assert dues == sorted(dues) and dues[-1] < 24.0
    new = [idx for _, kind, idx in first if kind == "new"]
    assert len(new) == len(set(new))
    sent_at = {idx: due for due, kind, idx in first if kind == "new"}
    resubmits = [(due, idx) for due, kind, idx in first if kind == "resubmit"]
    assert all(due - sent_at[idx] >= 5.0 for due, idx in resubmits)
    # 10 arrivals per second, exactly a quarter of them resubmissions;
    # the 180 new specs are 9 of each of the 20 (algorithm, mu) strata.
    assert len(first) == 240 and len(resubmits) == 60
    pool = serve_pool()
    for seed in (7, 8):
        schedule = open_loop_schedule(seed, 24.0)
        strata = [pool[idx][:2] for _, kind, idx in schedule if kind == "new"]
        assert len(strata) == 180
        assert all(strata.count(s) == 9 for s in set(strata)) and len(set(strata)) == 20
    with pytest.raises(ValueError):
        open_loop_schedule(7, 40.0)  # 300 new arrivals; the pool has 260


def test_expected_answers_cover_the_serve_pool():
    reference = json.loads(EXPECTED.read_text())
    pool = serve_pool()
    assert len(pool) == 260
    keys = {spec_key(*entry) for entry in pool}
    assert keys == set(reference["serve"])
    assert all(v["found"] and v["total_time"] > 0 for v in reference["serve"].values())
    assert reference["config"] == {"method": "exact", "batch": False,
                                   "symmetry": False, "ring_bound": False}


def test_wrappers_record_spans_and_restore_originals(monkeypatch):
    module = types.ModuleType("fake_layer_module")

    def inner(rows):
        return list(rows)

    def outer(rows):
        return module.inner(rows)

    class Box:
        def method(self, rows):
            return rows

    module.inner, module.outer, module.Box = inner, outer, Box
    method = Box.__dict__["method"]
    monkeypatch.setitem(sys.modules, "fake_layer_module", module)
    tracer = LayerTracer()
    tracer.phase = "query"
    tracer.install([
        ("outer", "fake_layer_module", "outer", lambda a, k, r: 1),
        ("inner", "fake_layer_module", "inner", lambda a, k, r: len(r)),
        ("box", "fake_layer_module", "Box.method", lambda a, k, r: 1),
        ("gone", "fake_layer_module", "deleted_layer", lambda a, k, r: 1),
        ("gone", "no_such_module_anywhere", "f", lambda a, k, r: 1),
    ])
    assert module.outer([1, 2, 3]) == [1, 2, 3]
    assert Box().method(5) == 5
    tracer.uninstall()
    assert module.inner is inner and module.outer is outer
    assert Box.__dict__["method"] is method
    summary = tracer.summary()
    layers = summary["phases"]["query"]
    assert layers["inner"]["rows"] == 3 and layers["outer"]["calls"] == 1
    assert layers["box"]["calls"] == 1
    assert summary["absent"] == ["fake_layer_module:deleted_layer",
                                 "no_such_module_anywhere:f"]
    parent_of_inner = [s[1] for s in tracer.spans if s[2] == "inner"]
    outer_id = [s[0] for s in tracer.spans if s[2] == "outer"]
    assert parent_of_inner == outer_id
