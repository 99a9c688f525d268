"""Pure helpers of the end-to-end benchmark.

Statistics, the workload inputs drawn from a seed, the open-loop
arrival schedule, span self time and the comparison rule.  Only
:func:`build_algorithm` imports the program under test, and only when
called, so ``compare.py`` and the unit tests run without it.
"""

from __future__ import annotations

import itertools
import json
import math
import random
import statistics
from pathlib import Path

HERE = Path(__file__).resolve().parent
#: The checkout root: ``BENCHMARK.json`` and ``src/`` live here.
ROOT = HERE.parent.parent
SRC = ROOT / "src"
OUT = HERE / "out"
EXPECTED = HERE / "expected.json"

# -- workload inputs ---------------------------------------------------------

#: The paper's two yardsticks: (library name, space row S, closed-form
#: optimal total time t(mu) from Examples 5.1 and 5.2).
CURVE_PROBLEMS = {
    "curve-matmul": ("matmul", (1, 1, -1), lambda mu: mu * (mu + 2) + 1),
    "curve-tc": ("transitive-closure", (0, 0, 1), lambda mu: mu * (mu + 3) + 1),
}
#: Sizes each search answers once per pass.
CURVE_SIZES = {"p51": (6, 10, 18, 30, 50), "explore": (6, 18, 50)}
#: The query classes the end-to-end metrics report on a curve.  The
#: other sizes are reported without a bound: a cold query of 10-20 ms
#: swings with host load by up to 70% between runs.
CURVE_CLASSES = {"mid": ("p51", 50), "large": ("explore", 50)}
#: Warm-up size of the curve children; below every measured size, so
#: the size-keyed caches stay cold for the measured queries.
CURVE_WARMUP_MU = 3

JOINT_ALGORITHMS = ("matmul", "transitive-closure")
JOINT_SIZES = (3, 4, 5)
JOINT_CLASSES = {"mid": 4, "large": 5}
JOINT_WARMUP_MU = 2

#: About the wall time of one pass, child start-up included, measured on
#: the 2-vCPU VM the baselines come from.  A run makes
#: ``round(seconds / PASS_S)`` passes, a count that does not depend on
#: how fast the host or the code is, so both sides of a comparison do
#: the same work.
PASS_S = {"curve-matmul": 8.5, "curve-tc": 8.5, "joint-small": 2.7}

#: Open-loop serve load: arrivals per second, share of arrivals that
#: carry new work, and how old a spec must be before it is resubmitted.
#: 10/s is about half of what one closed-loop client gets (a job takes
#: ~50 ms) and 40% of the 22-25 jobs/s the server completes when saturated.
SERVE_RATE = 10.0
SERVE_NEW_SHARE = 0.75
SERVE_RESUBMIT_AGE = 5.0
SERVE_MU = tuple(range(3, 13))


def sign_normalised_spaces() -> list[tuple[int, int, int]]:
    """The 13 non-zero vectors of {-1,0,1}^3 whose first non-zero is +1."""
    out = []
    for v in itertools.product((-1, 0, 1), repeat=3):
        nonzero = [x for x in v if x]
        if nonzero and nonzero[0] > 0:
            out.append(v)
    return out


def serve_pool() -> list[tuple[str, int, tuple[int, int, int]]]:
    """The 260 schedule specs new serve work is drawn from, in a fixed order."""
    return [
        (algo, mu, space)
        for algo in JOINT_ALGORITHMS
        for mu in SERVE_MU
        for space in sign_normalised_spaces()
    ]


def build_algorithm(name: str, mu: int):
    """The library algorithm a workload names, at size ``mu``."""
    from repro.model import library

    make = {"matmul": library.matrix_multiplication,
            "transitive-closure": library.transitive_closure}
    return make[name](mu)


def spec_key(algorithm: str, mu: int, space) -> str:
    return f"{algorithm}/{mu}/{','.join(str(x) for x in space)}"


def shuffled(rng: random.Random, items) -> list:
    out = list(items)
    rng.shuffle(out)
    return out


def stratified_order(rng: random.Random, pool) -> list[int]:
    """Pool indices in rounds that take one undrawn spec of every
    (algorithm, mu) stratum, strata in a fresh random order per round.

    Job cost depends mostly on the problem and its size, so any prefix
    of this order -- the new work one run sends -- has nearly the same
    cost mix whatever the seed.
    """
    strata: dict[tuple, list[int]] = {}
    for idx, (algorithm, mu, _space) in enumerate(pool):
        strata.setdefault((algorithm, mu), []).append(idx)
    queues = [shuffled(rng, members) for _, members in sorted(strata.items())]
    order: list[int] = []
    while any(queues):
        for queue in shuffled(rng, [q for q in queues if q]):
            order.append(queue.pop())
    return order


def open_loop_schedule(seed: int, seconds: float) -> list[tuple[float, str, int]]:
    """Seeded arrivals as ``(due offset s, "new"|"resubmit", pool index)``.

    ``round(SERVE_RATE * seconds)`` arrivals at sorted uniform times: a
    Poisson process at ``SERVE_RATE`` conditioned on its count, so every
    seed offers the same load.  Exactly ``1 - SERVE_NEW_SHARE`` of them,
    rounded, are resubmissions, placed at random among the arrivals at
    least ``SERVE_RESUBMIT_AGE`` seconds after the first; each resubmits
    a spec first sent at least that long before it.  The rest carry new
    work, drawn from :func:`serve_pool` without replacement in
    :func:`stratified_order`, so every seed sends the same mix of
    problems and sizes.
    """
    rng = random.Random(seed)
    pool = serve_pool()
    times = sorted(rng.uniform(0.0, seconds) for _ in range(round(SERVE_RATE * seconds)))
    late = [i for i, t in enumerate(times) if t - times[0] >= SERVE_RESUBMIT_AGE]
    count = min(len(late), round((1.0 - SERVE_NEW_SHARE) * len(times)))
    resubmits = set(rng.sample(late, count))
    if len(times) - count > len(pool):
        raise ValueError(f"{len(times) - count} new arrivals exceed the "
                         f"{len(pool)}-spec pool; lower seconds")
    unsent = stratified_order(rng, pool)[::-1]
    first_sent: list[tuple[float, int]] = []
    arrivals: list[tuple[float, str, int]] = []
    for i, t in enumerate(times):
        if i in resubmits:
            eligible = [idx for sent, idx in first_sent if t - sent >= SERVE_RESUBMIT_AGE]
            arrivals.append((t, "resubmit", rng.choice(eligible)))
        else:
            idx = unsent.pop()
            first_sent.append((t, idx))
            arrivals.append((t, "new", idx))
    return arrivals


# -- statistics --------------------------------------------------------------


def median(values) -> float:
    return float(statistics.median(values))


def percentile(values, q: float) -> float:
    """Linear interpolation between closest ranks (``numpy``'s default)."""
    data = sorted(values)
    if not data:
        raise ValueError("percentile of an empty sample")
    pos = (len(data) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def quartiles(values) -> tuple[float, float, float]:
    """``statistics.quantiles(values, n=4)``, defined for one sample too."""
    data = list(values)
    if len(data) < 2:
        v = float(data[0])
        return v, v, v
    q1, q2, q3 = statistics.quantiles(data, n=4)
    return q1, q2, q3


def iqr(values) -> float:
    q1, _, q3 = quartiles(values)
    return q3 - q1


def spread(values) -> float:
    """Interquartile range as a share of the median."""
    mid = median(values)
    return iqr(values) / mid if mid else 0.0


# -- span self time ----------------------------------------------------------


def self_times(spans) -> dict[str, dict]:
    """Per-layer self time, calls and rows from span records.

    A span is ``(id, parent_id, name, start, end, rows, phase)``.  Its
    self time is its duration minus the part of its interval that its
    child spans cover; totals are summed per layer name.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for sid, parent, _name, start, end, _rows, _phase in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out: dict[str, dict] = {}
    for sid, _parent, name, start, end, rows, _phase in spans:
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(sid, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        layer = out.setdefault(name, {"self_s": 0.0, "calls": 0, "rows": 0})
        layer["self_s"] += (end - start) - covered
        layer["calls"] += 1
        layer["rows"] += rows
    return out


# -- comparison rule ---------------------------------------------------------

MIN_PAIRS = 10
CLAIM_WIN_SHARE = 0.9


def judge_metric(
    parent: list[float],
    change: list[float],
    *,
    better: str,
    bound: float,
    claimed: bool = False,
) -> dict:
    """Verdict on one metric of one workload over paired runs.

    A claimed metric is a ``gain`` when the change wins at least nine
    tenths of the pairs (ties count for neither side) and its median
    moved the right way by more than the parent's interquartile range;
    otherwise ``not-met``.  Any other metric is ``ok`` when the change's
    median is no worse than the parent's by more than ``bound``;
    ``unresolved`` when either side's spread exceeds the bound (unless
    every change run beats every parent run); else ``worse``.
    """
    pairs = list(zip(parent, change))
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(1 for p, c in pairs if sign * (p - c) > 0)
    p_med, c_med = median(parent), median(change)
    gain = sign * (p_med - c_med)
    worse_share = -gain / abs(p_med) if p_med else (0.0 if gain >= 0 else math.inf)
    row = {
        "pairs": len(pairs),
        "wins": wins,
        "parent_median": p_med,
        "parent_quartiles": quartiles(parent),
        "change_median": c_med,
        "change_quartiles": quartiles(change),
        "worse_share": worse_share,
    }
    if len(pairs) < MIN_PAIRS:
        row["verdict"] = "too-few-pairs"
    elif claimed:
        won = wins >= math.ceil(CLAIM_WIN_SHARE * len(pairs))
        row["verdict"] = "gain" if won and gain > iqr(parent) else "not-met"
    elif max(spread(parent), spread(change)) > bound:
        beats_all = all(sign * (p - c) > 0 for p in parent for c in change)
        row["verdict"] = "ok" if beats_all else "unresolved"
    else:
        row["verdict"] = "worse" if worse_share > bound else "ok"
    return row


def load_benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())
