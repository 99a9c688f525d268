#!/usr/bin/env python3
"""End-to-end benchmark of the schedule search and the job server.

Usage, from the repository root::

    python3 benchmarks/e2e/run.py [--workload NAME] [--seed N]
                                  [--seconds S] [--trace [0|1]] [--out PATH]

Without ``--workload`` all four workloads run in turn.  ``--seconds``
defaults to ``run_seconds`` in ``BENCHMARK.json`` and sizes the work: a
fixed number of passes (searches) or of arrivals (serving), the same for
every seed, so both sides of a comparison do the same work.  Every answer is
checked (the paper's closed-form optimum and the kernel-box oracle on
the curves, ``expected.json`` for joint and served answers); a wrong,
failed or refused operation counts in ``failed`` and makes the exit code
non-zero.  Timings come from fresh child processes (searches) or a
``repro serve`` subprocess (serving), so the program runs unmodified.

``--trace 1`` alternates untraced and traced passes over the same inputs
and reports the per-layer split of the traced ones (timing wrappers from
``layers.py``), the trace overhead, and whether traced answers equal
untraced ones.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the full record
goes to ``--out`` (default ``benchmarks/e2e/out/<run>.json``).
"""

from __future__ import annotations

import argparse
import functools
import http.client
import json
import os
import random
import shutil
import signal
import subprocess
import sys
import time
import traceback

from harness import (
    CURVE_CLASSES,
    CURVE_PROBLEMS,
    CURVE_SIZES,
    CURVE_WARMUP_MU,
    EXPECTED,
    HERE,
    JOINT_ALGORITHMS,
    JOINT_CLASSES,
    JOINT_SIZES,
    JOINT_WARMUP_MU,
    OUT,
    PASS_S,
    ROOT,
    SERVE_RESUBMIT_AGE,
    SRC,
    build_algorithm,
    median,
    open_loop_schedule,
    percentile,
    serve_pool,
    shuffled,
    load_benchmark_spec,
    spec_key,
)

SERVE_SETUPS = 5
SERVE_DRAIN_S = 60.0
CHILD_TIMEOUT_S = 150.0
TERMINAL = ("done", "failed", "cancelled")


def clock() -> float:
    """System-wide monotonic clock, comparable across processes."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def child_env() -> dict:
    # A clean program environment: no inherited fault-injection or
    # parallelism overrides, and the checkout's sources on the path.
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    return env


class OpFailed(Exception):
    """An operation of the workload failed or answered wrongly."""


class Tally:
    """Operations attempted and failed, with the reasons for failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def fail(self, message: str, count: int = 1) -> None:
        self.failed += count
        if len(self.errors) < 20:
            self.errors.append(message)


# -- answer checks -----------------------------------------------------------


def check_curve_answer(workload: str, mu: int, answer: dict) -> str | None:
    """Why a curve answer is wrong, or ``None``: the paper's total time,
    ``Pi D > 0``, full rank and the kernel-box conflict oracle."""
    algorithm, space, optimum = CURVE_PROBLEMS[workload]
    if not answer.get("found"):
        return f"{workload} mu={mu}: no schedule found"
    pi = tuple(answer["pi"])
    # [S; Pi] (2 x 3) has full rank iff the cross product S x Pi is non-zero.
    cross = (space[1] * pi[2] - space[2] * pi[1], space[2] * pi[0] - space[0] * pi[2],
             space[0] * pi[1] - space[1] * pi[0])
    from repro.core.conflict import is_conflict_free_kernel_box
    from repro.core.mapping import MappingMatrix

    algo = build_algorithm(algorithm, mu)
    error = None
    if answer["total_time"] != optimum(mu):
        error = f"total time {answer['total_time']} != paper's {optimum(mu)}"
    elif sum(abs(p) * mu for p in pi) + 1 != answer["total_time"]:
        error = f"total time {answer['total_time']} does not match Pi={list(pi)}"
    elif any(sum(p * int(d) for p, d in zip(pi, dep)) <= 0
             for dep in algo.dependence_vectors()):
        error = f"Pi={list(pi)} violates Pi D > 0"
    elif not any(cross):
        error = f"[S; Pi] with Pi={list(pi)} is rank deficient"
    elif not is_conflict_free_kernel_box(
            MappingMatrix(space=[space], schedule=pi), algo.mu):
        error = f"Pi={list(pi)} is not conflict-free (kernel-box oracle)"
    return None if error is None else f"{workload} mu={mu}: {error}"


@functools.cache
def expected() -> dict:
    return json.loads(EXPECTED.read_text())


def check_joint_answer(algorithm: str, mu: int, answer: dict) -> str | None:
    want = expected()["joint"][f"{algorithm}/{mu}"]
    got = {"found": answer["found"], "ranking": answer["ranking"]}
    return None if got == want else f"joint {algorithm} mu={mu}: ranking differs"


def check_serve_answer(key: str, result: dict | None) -> str | None:
    want = expected()["serve"][key]
    got = None if result is None else {
        "found": result.get("found"),
        "pi": result.get("pi"),
        "total_time": result.get("total_time"),
    }
    return None if got == want else f"serve {key}: answer {got} != {want}"


# -- search workloads --------------------------------------------------------


def run_child(request: dict, tally: Tally) -> dict | None:
    """One fresh search process; ``None`` (and failures tallied) on error."""
    request = dict(request)
    request["spawned"] = clock()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), json.dumps(request)],
            cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        tally.fail("search child timed out", len(request["queries"]))
        return None
    if proc.returncode != 0 or not proc.stdout.strip():
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        tally.fail(f"search child exited {proc.returncode}: {tail[0]}",
                   len(request["queries"]))
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def curve_pass(workload: str, rng: random.Random, trace: bool,
               tally: Tally) -> dict:
    algorithm, space, _ = CURVE_PROBLEMS[workload]
    out = {"times": {}, "setups": {}, "rss": [], "answers": {},
           "traces": [], "imports": []}
    for search in shuffled(rng, CURVE_SIZES):
        sizes = shuffled(rng, CURVE_SIZES[search])
        tally.attempted += len(sizes)
        report = run_child({
            "search": search, "space": space, "trace": trace,
            "warmup_algorithms": [algorithm], "warmup_mu": CURVE_WARMUP_MU,
            "queries": [[algorithm, mu] for mu in sizes],
        }, tally)
        if report is None:
            continue
        out["setups"][search] = report["setup_s"]
        out["rss"].append(report["rss_mb"])
        out["imports"].append(report["import_s"])
        if "trace" in report:
            out["traces"].append(report["trace"])
        for q in report["queries"]:
            error = check_curve_answer(workload, q["mu"], q)
            if error:
                tally.fail(error)
            out["times"][f"{search}:{q['mu']}"] = q["seconds"]
            out["answers"][f"{search}:{q['mu']}"] = [q["pi"], q["total_time"]]
    return out


def joint_pass(workload: str, rng: random.Random, trace: bool,
               tally: Tally) -> dict:
    queries = shuffled(rng, [[a, mu] for a in JOINT_ALGORITHMS for mu in JOINT_SIZES])
    tally.attempted += len(queries)
    out = {"times": {}, "setups": {}, "rss": [], "answers": {},
           "traces": [], "imports": []}
    report = run_child({
        "search": "joint", "space": None, "trace": trace,
        "warmup_algorithms": list(JOINT_ALGORITHMS),
        "warmup_mu": JOINT_WARMUP_MU, "queries": queries,
    }, tally)
    if report is None:
        return out
    out["setups"]["joint"] = report["setup_s"]
    out["rss"].append(report["rss_mb"])
    out["imports"].append(report["import_s"])
    if "trace" in report:
        out["traces"].append(report["trace"])
    for q in report["queries"]:
        error = check_joint_answer(q["algorithm"], q["mu"], q)
        if error:
            tally.fail(error)
        out["times"][f"joint:{q['algorithm']}:{q['mu']}"] = q["seconds"]
        out["answers"][f"{q['algorithm']}:{q['mu']}"] = q["ranking"]
    return out


def run_passes(one_pass, seed: int, passes: int, trace: bool):
    """``passes`` passes, each on inputs drawn from ``seed`` and its index.
    With ``trace``, each untraced pass is followed by a traced pass over
    the same inputs; returns ``(untraced, traced)`` pass lists."""
    untraced, traced = [], []
    for index in range(passes):
        pass_seed = f"{seed}/{index}"
        untraced.append(one_pass(random.Random(pass_seed), False))
        if trace:
            traced.append(one_pass(random.Random(pass_seed), True))
    return untraced, traced


def pass_metrics(passes: list[dict], classes: dict) -> dict:
    """End-to-end metrics of the search workloads from their passes."""
    metrics = {}
    for name, keys in classes.items():
        values = [sum(p["times"][k] for k in keys) for p in passes
                  if all(k in p["times"] for k in keys)]
        metrics[f"{name}_ms"] = median(values) * 1000.0
    searches = sorted({s for p in passes for s in p["setups"]})
    metrics["setup_s"] = sum(
        median([p["setups"][s] for p in passes if s in p["setups"]])
        for s in searches
    )
    metrics["peak_rss_mb"] = median([max(p["rss"]) for p in passes if p["rss"]])
    return metrics


def curve_classes() -> dict:
    return {name: [f"{search}:{mu}"] for name, (search, mu) in CURVE_CLASSES.items()}


def joint_classes() -> dict:
    return {name: [f"joint:{a}:{mu}" for a in JOINT_ALGORITHMS]
            for name, mu in JOINT_CLASSES.items()}


def search_workload(workload: str, seed: int, seconds: float,
                    trace: bool) -> dict:
    tally = Tally()
    if workload == "joint-small":
        one_pass, classes = joint_pass, joint_classes()
    else:
        one_pass, classes = curve_pass, curve_classes()
    # A traced pass costs as much as an untraced one: the traced run
    # makes half the pairs, so it takes about as long as an untraced run.
    passes = max(1, round(seconds / PASS_S[workload]))
    untraced, traced = run_passes(
        lambda rng, tr: one_pass(workload, rng, tr, tally), seed,
        max(1, passes // 2) if trace else passes, trace,
    )
    record = {"passes": len(untraced)}
    try:
        record["metrics"] = pass_metrics(untraced, classes)
    except (ValueError, KeyError) as exc:  # every pass of a class failed
        tally.fail(f"no complete pass: {exc!r}")
        record["metrics"] = {}
    all_keys = sorted({k for p in untraced for k in p["times"]},
                      key=lambda k: (k.rsplit(":", 1)[0], int(k.rsplit(":", 1)[1])))
    record["queries_ms"] = {
        k: median([p["times"][k] for p in untraced if k in p["times"]]) * 1000.0
        for k in all_keys
    }
    record["pass_ms"] = [{k: v * 1000.0 for k, v in p["times"].items()}
                         for p in untraced]
    if trace:
        for plain, traced_pass in zip(untraced, traced):
            for key, answer in traced_pass["answers"].items():
                if key in plain["answers"] and plain["answers"][key] != answer:
                    tally.fail(f"traced answer differs from untraced for {key}")
        walls = [(sum(p["times"].values()), sum(t["times"].values()))
                 for p, t in zip(untraced, traced)]
        overhead = median([t for _, t in walls]) / median([p for p, _ in walls])
        record["layers"] = layer_report(
            [s for p in traced for s in p["traces"]], len(traced),
            [i for p in traced for i in p["imports"]], overhead,
        )
    return finish(record, tally)


# -- serve workload ----------------------------------------------------------


def http_json(port: int, method: str, path: str, payload=None,
              timeout: float = 30.0):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        body = None if payload is None else json.dumps(payload)
        conn.request(method, path, body=body,
                     headers={"Content-Type": "application/json"})
        resp = conn.getresponse()
        data = resp.read()
        return resp.status, (json.loads(data) if data else None)
    finally:
        conn.close()


class Server:
    """A ``repro serve`` subprocess with fresh state and cache dirs."""

    def __init__(self, workdir, *, spans_path: str | None = None) -> None:
        self.workdir = workdir
        self.spans_path = spans_path
        self.proc: subprocess.Popen | None = None
        self.port = 0
        self.setup_s = 0.0

    def __enter__(self) -> "Server":
        os.makedirs(self.workdir)
        port_file = os.path.join(self.workdir, "port")
        serve_args = [
            "serve", "--state-dir", os.path.join(self.workdir, "state"),
            "--cache-dir", os.path.join(self.workdir, "cache"),
            "--port", "0", "--port-file", port_file,
            "--workers", "2", "--search-jobs", "1",
        ]
        if self.spans_path is None:
            argv = [sys.executable, "-m", "repro", *serve_args]
        else:
            argv = [sys.executable, str(HERE / "launcher.py"), self.spans_path,
                    *serve_args]
        log = open(os.path.join(self.workdir, "server.log"), "wb")
        start = clock()
        self.proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                                     stdout=log, stderr=log)
        log.close()
        try:
            self._wait_ready(port_file)
        except BaseException:
            self.__exit__()
            raise
        self.setup_s = clock() - start
        return self

    def _wait_ready(self, port_file: str) -> None:
        deadline = clock() + 60.0
        while clock() < deadline:
            if self.proc.poll() is not None:
                raise OpFailed(f"server exited {self.proc.returncode} on start")
            try:
                if not self.port:
                    with open(port_file) as fh:
                        self.port = int(fh.read() or 0)
                if self.port and http_json(self.port, "GET", "/readyz")[0] == 200:
                    return
            except (OSError, ValueError):
                pass
            time.sleep(0.002)
        raise OpFailed("server not ready within 60 s")

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise OpFailed("no VmHWM for the server process")

    def __exit__(self, *exc) -> None:
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


def spec_payload(entry) -> dict:
    algorithm, mu, space = entry
    return {"task": "schedule", "algorithm": algorithm, "mu": mu,
            "space": [list(space)]}


def drive_open_loop(port: int, schedule, pool) -> tuple[float, float, list]:
    """Send each arrival when due, one connection at a time."""
    ops = []
    wall0, mono0 = time.time(), clock()
    for due, kind, idx in schedule:
        target = mono0 + due
        delay = target - clock()
        if delay > 0:
            time.sleep(delay)
        sent = clock()
        try:
            status, body = http_json(port, "POST", "/jobs", spec_payload(pool[idx]))
        except (OSError, http.client.HTTPException, ValueError) as exc:
            status, body = None, repr(exc)
        ops.append({
            "due": due, "kind": kind, "idx": idx, "status": status,
            "body": body, "late_ms": (sent - target) * 1000.0,
            "sent": sent - mono0, "answered": clock() - mono0,
        })
    return wall0, mono0, ops


def collect_jobs(port: int, job_ids: set[str]) -> dict[str, dict]:
    """Wait until every job is terminal (or the drain deadline), then
    read each job's record; job timing comes from these records."""
    deadline = clock() + SERVE_DRAIN_S
    while True:
        _, listing = http_json(port, "GET", "/jobs")
        states = {j["id"]: j["state"] for j in listing["jobs"]}
        if all(states.get(i) in TERMINAL for i in job_ids) or clock() > deadline:
            break
        time.sleep(0.05)
    return {i: http_json(port, "GET", f"/jobs/{i}")[1] for i in job_ids}


def serve_load(server: Server, schedule, pool, tally: Tally) -> dict:
    """Drive one server with the schedule; latencies and answers."""
    wall0, _, ops = drive_open_loop(server.port, schedule, pool)
    new_ids = {op["body"]["id"] for op in ops
               if op["kind"] == "new" and op["status"] in (200, 201)}
    records = collect_jobs(server.port, new_ids)
    rss = server.peak_rss_mb()
    out = {"new_ms": [], "hit_ms": [], "submit_ms": [], "late_ms": [],
           "queue_ms": [], "run_ms": [], "engine_ms": [], "answers": {},
           "jobs": [], "rss_mb": rss, "attached": 0}
    for op in ops:
        tally.attempted += 1
        key = spec_key(*pool[op["idx"]])
        out["late_ms"].append(op["late_ms"])
        if op["status"] not in (200, 201):
            tally.fail(f"submit of {key} answered {op['status']}: {op['body']}")
            continue
        if op["kind"] == "resubmit":
            body = op["body"]
            if body.get("state") != "done":
                out["attached"] += 1  # deduplicated onto a running job
                continue
            error = check_serve_answer(key, body.get("result"))
            if error:
                tally.fail(error)
                continue
            out["hit_ms"].append((op["answered"] - op["due"]) * 1000.0)
            continue
        record = records[op["body"]["id"]]
        if record.get("state") != "done":
            tally.fail(f"job {key} ended {record.get('state')}: {record.get('error')}")
            continue
        error = check_serve_answer(key, record.get("result"))
        if error:
            tally.fail(error)
            continue
        out["answers"][key] = record["result"]
        job = {
            "key": key,
            "new_ms": (record["finished"] - (wall0 + op["due"])) * 1000.0,
            "submit_ms": (op["answered"] - op["sent"]) * 1000.0,
            "queue_ms": (record["started"] - record["created"]) * 1000.0,
            "run_ms": (record["finished"] - record["started"]) * 1000.0,
            "engine_ms": record["telemetry"]["wall_time"] * 1000.0,
        }
        out["jobs"].append(job)
        for name in ("new_ms", "submit_ms", "queue_ms", "run_ms", "engine_ms"):
            out[name].append(job[name])
    return out


def serve_workload(workload: str, seed: int, seconds: float,
                   trace: bool) -> dict:
    tally = Tally()
    pool = serve_pool()
    run_dir = os.path.join(OUT, f"work-{os.getpid()}")
    record: dict = {}
    try:
        if not trace:
            setups = []
            for i in range(SERVE_SETUPS - 1):
                with Server(os.path.join(run_dir, f"setup-{i}")) as server:
                    setups.append(server.setup_s)
            schedule = open_loop_schedule(seed, seconds)
            with Server(os.path.join(run_dir, "load")) as server:
                setups.append(server.setup_s)
                load = serve_load(server, schedule, pool, tally)
            if not load["hit_ms"] or not load["new_ms"]:
                raise OpFailed("no answered resubmission or new job; serve-mix "
                               f"needs --seconds above {SERVE_RESUBMIT_AGE:g}")
            record["arrivals"] = len(schedule)
            record["metrics"] = {
                "setup_s": median(setups),
                "mid_ms": median(load["submit_ms"]),
                "large_ms": median(load["new_ms"]),
                "peak_rss_mb": load["rss_mb"],
            }
            record["serve"] = serve_layers(load)
            record["jobs"] = load["jobs"]
            record["hits_ms"] = load["hit_ms"]
        else:
            # Two fresh servers, plain then traced, on the same arrivals.
            schedule = open_loop_schedule(seed, seconds / 2)
            with Server(os.path.join(run_dir, "plain")) as server:
                plain = serve_load(server, schedule, pool, tally)
            spans_path = os.path.join(run_dir, "spans.json")
            with Server(os.path.join(run_dir, "traced"),
                        spans_path=spans_path) as server:
                traced = serve_load(server, schedule, pool, tally)
            with open(spans_path) as fh:
                summary = json.load(fh)
            shutil.copy(spans_path + ".jsonl",
                        os.path.join(OUT, f"spans-{workload}-seed{seed}.jsonl"))
            for key, answer in traced["answers"].items():
                if key in plain["answers"] and plain["answers"][key] != answer:
                    tally.fail(f"traced answer differs from untraced for {key}")
            overhead = median(traced["new_ms"]) / median(plain["new_ms"])
            record["serve"] = serve_layers(traced)
            record["layers"] = layer_report([summary], 1, [summary["import_s"]],
                                            overhead)
    except OpFailed as exc:
        tally.fail(f"serve workload aborted: {exc}")
        record.setdefault("metrics", {})
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    return finish(record, tally)


def serve_layers(load: dict) -> dict:
    """Per-phase job timing read from the server's own job records."""
    def p(values, q):
        return percentile(values, q) if values else None

    run = load["run_ms"]
    return {
        "serve.job_p50_ms": p(load["new_ms"], 50),
        "serve.job_p90_ms": p(load["new_ms"], 90),
        "serve.hit_p50_ms": p(load["hit_ms"], 50),
        "serve.hit_p90_ms": p(load["hit_ms"], 90),
        "serve.submit_ms": p(load["submit_ms"], 50),
        "serve.queue_wait_ms.p50": p(load["queue_ms"], 50),
        "serve.queue_wait_ms.p90": p(load["queue_ms"], 90),
        "serve.run_ms": p(run, 50),
        "serve.engine_ms": p(load["engine_ms"], 50),
        "serve.persist_ms": p([r - e for r, e in zip(run, load["engine_ms"])], 50),
        "serve.gen.late_ms.p99": p(load["late_ms"], 99),
        "serve.new_jobs": len(load["new_ms"]),
        "serve.hits": len(load["hit_ms"]),
        "serve.attached": load["attached"],
    }


# -- per-layer report --------------------------------------------------------


def merge_layers(summaries: list[dict]) -> tuple[dict, dict, dict]:
    """Sum layer stats over every non-setup phase, per phase, and counters."""
    total: dict[str, dict] = {}
    by_phase: dict[str, dict] = {}
    counters: dict[str, int] = {"winners": 0}
    for summary in summaries:
        for phase, layers in summary["phases"].items():
            targets = [by_phase.setdefault(phase, {})]
            if phase != "setup":
                targets.append(total)
            for name, stats in layers.items():
                for target in targets:
                    acc = target.setdefault(name, {"self_s": 0.0, "calls": 0, "rows": 0})
                    for k in acc:
                        acc[k] += stats[k]
        for key, value in summary["counters"].items():
            counters[key] = counters.get(key, 0) + value
        counters["winners"] += summary["winners"]
    return total, by_phase, counters


def layer_report(summaries: list[dict], passes: int, imports: list[float],
                 overhead: float) -> dict:
    total, by_phase, counters = merge_layers(summaries)

    def layer(name: str, key: str = "self_s") -> float:
        return total.get(name, {}).get(key, 0) / passes

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    mask_calls = layer("intlin.batch.mask", "calls")
    metrics = {
        "core.optimize.ring_s": layer("core.optimize.ring"),
        "core.optimize.ring_candidates": layer("core.optimize.ring", "rows"),
        "intlin.batch.mask_s": layer("intlin.batch.mask"),
        "intlin.batch.mask_calls": mask_calls,
        "intlin.batch.rows_per_mask_call": ratio(
            layer("intlin.batch.mask", "rows"), mask_calls),
        "intlin.batch.images_s": layer("intlin.batch.images"),
        "core.conflict.screen_s": layer("core.conflict.screen"),
        "core.conflict.screen_calls": layer("core.conflict.screen", "calls"),
        "core.conflict.useful_ratio": ratio(
            counters["winners"], counters.get("conflict_screens", 0)),
        "core.conditions.check_s": layer("core.conditions.check"),
        "core.conditions.check_calls": layer("core.conditions.check", "calls"),
        "core.symmetry.s": layer("core.symmetry"),
        "core.symmetry.collapse_ratio": ratio(
            counters.get("orbits_collapsed", 0),
            counters.get("candidates_enumerated", 0)),
        "core.ilp_formulation.bound_s": layer("core.ilp_formulation.bound"),
        "core.ilp_formulation.skip_ratio": ratio(
            counters.get("candidates_skipped", 0),
            counters.get("candidates_skipped", 0)
            + counters.get("conflict_screens", 0)),
        "ilp.lp_s": layer("ilp.lp"),
        "ilp.lp_calls": layer("ilp.lp", "calls"),
        "search.self_s": layer("core.optimize.p51")
        + layer("dse.executor.explore"),
        "setup.import_s": median(imports),
        "trace.overhead": overhead,
    }
    for key in ("candidates_enumerated", "conflict_screens", "orbits_collapsed",
                "candidates_skipped", "batches_evaluated", "rings_expanded"):
        metrics[f"stats.{key}"] = counters.get(key, 0) / passes
    extra = {
        "dse.executor.calibration_s": sum(
            s.get("dse.executor.calibration", {}).get("self_s", 0.0)
            for s in by_phase.values()) / passes,
        "core.optimize.p51_self_s": layer("core.optimize.p51"),
        "dse.executor.explore_self_s": layer("dse.executor.explore"),
        "core.space_optimize.candidates": layer("core.space_optimize.candidate", "calls"),
        "core.space_optimize.candidate_s": layer("core.space_optimize.candidate"),
        "systolic.cost_s": layer("systolic.cost"),
        "stats.fastpath_promotions": counters.get("fastpath_promotions", 0) / passes,
    }
    for name in ("serve.protocol.parse", "serve.protocol.digest", "serve.queue.admit",
                 "serve.store.save", "serve.store.event", "dse.checkpoint.append",
                 "dse.cache.get", "dse.cache.put"):
        if name in total:
            extra[f"{name}_s"] = layer(name)
            extra[f"{name}_calls"] = layer(name, "calls")
    return {
        "metrics": metrics,
        "extra": extra,
        "splits": {phase: shares(layers) for phase, layers in
                   sorted(by_phase.items()) if phase != "setup"},
        "overall": shares(total),
        "absent": sorted({a for s in summaries for a in s["absent"]}),
    }


def shares(layers: dict) -> dict:
    """Each layer's self time as a share of the phase's traced time."""
    wall = sum(v["self_s"] for v in layers.values())
    return {name: round(v["self_s"] / wall, 4) if wall else 0.0
            for name, v in sorted(layers.items(), key=lambda kv: -kv[1]["self_s"])}


# -- command line ------------------------------------------------------------


def finish(record: dict, tally: Tally) -> dict:
    record.update(attempted=max(tally.attempted, 1), failed=tally.failed,
                  errors=tally.errors)
    record["correct"] = tally.failed == 0
    return record


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    runner = serve_workload if name == "serve-mix" else search_workload
    try:
        return runner(name, seed, seconds, trace)
    except Exception as exc:  # report, never hide: the run fails
        traceback.print_exc()
        tally = Tally()
        tally.fail(f"{name} crashed: {exc!r}")
        return finish({"metrics": {}}, tally)


def print_record(name: str, record: dict, units: dict) -> None:
    print(f"== {name}: {record['attempted']} operations, {record['failed']} failed")
    for error in record["errors"]:
        print(f"   ! {error}")
    for metric, value in record.get("metrics", {}).items():
        print(f"   {metric:<16} {value:>12.4f} {units[metric]}")
    for key, value in record.get("queries_ms", {}).items():
        print(f"   query {key:<28} {value:>10.2f} ms")
    for key, value in record.get("serve", {}).items():
        if value is not None:
            print(f"   {key:<28} {value:>10.3f}")
    if "layers" in record:
        layers = record["layers"]
        for metric, value in layers["metrics"].items():
            print(f"   {metric:<34} {value:>14.6f} {units[metric]}")
        for metric, value in layers["extra"].items():
            print(f"   {metric:<34} {value:>14.6f}")
        for phase, split in [("overall", layers["overall"]),
                             *layers["splits"].items()]:
            top = ", ".join(f"{k} {v:.1%}" for k, v in list(split.items())[:6])
            print(f"   split {phase}: {top}")
        if layers["absent"]:
            print(f"   absent layers: {', '.join(layers['absent'])}")


def main(argv=None) -> int:
    spec = load_benchmark_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads, default=None)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="sizes the run's passes or arrivals; "
                             "BENCHMARK.json's run_seconds by default")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file() or not EXPECTED.is_file():
        print(f"error: the program sources ({SRC}) or {EXPECTED.name} are "
              "missing; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)

    names = [args.workload] if args.workload else workloads
    results = {}
    for name in names:
        results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print_record(name, results[name], units)

    run_id = time.strftime("%Y%m%d-%H%M%S") + f"-{args.workload or 'all'}" \
        f"-seed{args.seed}-trace{args.trace}"
    out_path = args.out or os.path.join(OUT, f"{run_id}.json")
    with open(out_path, "w") as fh:
        json.dump({"seed": args.seed, "seconds": args.seconds,
                   "trace": args.trace, "workloads": results}, fh, indent=1)

    reported = spec["per_layer" if args.trace else "end_to_end"]

    def metric_block(record: dict) -> dict:
        values = (record.get("layers", {}).get("metrics", {}) if args.trace
                  else record.get("metrics", {}))
        return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                for m in reported if m["name"] in values}

    correct = all(r["correct"] for r in results.values())
    summary = {
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": (metric_block(results[names[0]]) if len(names) == 1
                    else {n: metric_block(r) for n, r in results.items()
                          if "metrics" in r and (not args.trace or "layers" in r)}),
    }
    print(json.dumps(summary))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
