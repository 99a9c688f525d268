#!/usr/bin/env python3
"""Judge a change against its parent from paired benchmark runs.

Usage, from the repository root::

    python3 benchmarks/e2e/compare.py PARENT CHANGE [--claim WORKLOAD:METRIC ...]

``PARENT`` and ``CHANGE`` are directories of results files written by
``run.py --out``, one file per run.  Files are paired in name order, so
name them by pair index (``00.json``, ``01.json``, ...) and run the two
sides alternately, changing which side goes first from pair to pair.
Both sides must have run with the same ``--seconds`` and ``--trace``.

Each claimed metric must win at least nine tenths of at least ten pairs
and move its median by more than the parent's interquartile range.
Every other end-to-end metric of ``BENCHMARK.json`` must stay within
its bound on every workload; otherwise it is ``worse``, or
``unresolved`` when the run-to-run spread exceeds the bound.  A workload
whose change fails a larger share of its operations than the parent
is rejected whatever its timings.  Exit code 0 means accepted.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from harness import judge_metric, load_benchmark_spec


def load_side(directory: str) -> tuple[tuple, dict[str, list[dict]]]:
    """The run settings ``(seconds, trace)`` and each workload's run
    records, in file-name order.  A file may hold one workload
    (``run.py --workload``) or all of them; every file must share the
    same settings."""
    files = sorted(Path(directory).glob("*.json"))
    if not files:
        raise SystemExit(f"no results files in {directory}")
    runs: dict[str, list[dict]] = {}
    settings = set()
    for f in files:
        data = json.loads(f.read_text())
        settings.add((data["seconds"], data["trace"]))
        for workload, record in data["workloads"].items():
            runs.setdefault(workload, []).append(record)
    if len(settings) > 1:
        raise SystemExit(f"runs in {directory} differ in (seconds, trace): "
                         f"{sorted(settings)}")
    return settings.pop(), runs


def compare(parent: dict[str, list[dict]], change: dict[str, list[dict]],
            spec: dict, claims: set[tuple[str, str]]) -> tuple[list[dict], bool]:
    rows, accepted = [], True
    for workload in [w["name"] for w in spec["workloads"]]:
        if workload not in parent or workload not in change:
            continue
        pairs = min(len(parent[workload]), len(change[workload]))
        p_runs, c_runs = parent[workload][:pairs], change[workload][:pairs]
        p_failed = sum(r["failed"] for r in p_runs)
        p_attempted = sum(r["attempted"] for r in p_runs)
        c_failed = sum(r["failed"] for r in c_runs)
        c_attempted = sum(r["attempted"] for r in c_runs)
        row = {"workload": workload, "errors": (p_failed, p_attempted,
                                                c_failed, c_attempted),
               "metrics": {}}
        if c_failed * p_attempted > p_failed * c_attempted:
            row["errors_verdict"] = "more-errors"
            accepted = False
        for metric in spec["end_to_end"]:
            name = metric["name"]
            try:
                p_vals = [r["metrics"][name] for r in p_runs]
                c_vals = [r["metrics"][name] for r in c_runs]
            except KeyError:
                row["metrics"][name] = {"verdict": "missing"}
                accepted = False
                continue
            verdict = judge_metric(
                p_vals, c_vals, better=metric["better"], bound=metric["bound"],
                claimed=(workload, name) in claims,
            )
            row["metrics"][name] = verdict
            if verdict["verdict"] not in ("ok", "gain"):
                accepted = False
        rows.append(row)
    missing = claims - {(r["workload"], m) for r in rows for m in r["metrics"]}
    if missing:
        raise SystemExit(f"claimed metric(s) not measured: {sorted(missing)}")
    return rows, accepted


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--claim", action="append", default=[],
                        metavar="WORKLOAD:METRIC")
    args = parser.parse_args(argv)
    claims = {tuple(c.split(":", 1)) for c in args.claim}
    (p_settings, parent), (c_settings, change) = (load_side(args.parent),
                                                  load_side(args.change))
    if p_settings != c_settings:
        raise SystemExit(f"the sides ran with different (seconds, trace): "
                         f"parent {p_settings}, change {c_settings}")
    rows, accepted = compare(parent, change, load_benchmark_spec(), claims)
    for row in rows:
        pf, pa, cf, ca = row["errors"]
        cells = [f"errors {pf}/{pa} -> {cf}/{ca}"
                 + (" REJECTED" if "errors_verdict" in row else "")]
        for name, v in row["metrics"].items():
            if "parent_median" not in v:
                cells.append(f"{name} {v['verdict']}")
                continue
            move = v["change_median"] / v["parent_median"] - 1 if v["parent_median"] else 0
            cells.append(f"{name} {v['verdict']} {move:+.1%} "
                         f"({v['wins']}/{v['pairs']} wins)")
        print(f"{row['workload']:<14} " + " | ".join(cells))
    print("accepted" if accepted else "rejected")
    return 0 if accepted else 1


if __name__ == "__main__":
    sys.exit(main())
