"""E-SERVE — the mapping service: cold vs cached latency, throughput, recovery.

Standalone (no pytest needed): ``PYTHONPATH=src python
benchmarks/bench_serve.py`` starts a real ``repro serve`` subprocess
and measures, on the paper's Example 5.1 (matmul, mu=6, S=[1,1,-1]):

* **cold latency** — submit → done for a fresh spec (search runs);
* **cached latency** — resubmitting the identical spec, answered from
  the finished job in the submit response itself (no work enqueued);
  asserted to be at least 10x below cold;
* **warm-cache restart** — a brand-new server generation (fresh job
  state, same result-cache dir) answering the same spec from the
  persistent ``ResultCache``;
* **N-client throughput** — 8 threads submitting distinct specs;
* **restart recovery** — SIGTERM mid-search (a Problem 6.1 job on two
  shards, the second hung until its shard timeout), restart, time
  until the resumed job completes (with the result asserted equal to
  an uninterrupted serial run); schedule jobs run in process and
  journal only their answer, so they have nothing to resume;
* **hardening overhead** — the 8-client throughput shape scaled to 48
  distinct jobs, ``--no-hardening`` vs the fully armed defaults (queue
  bound, breaker, watchdog deadline), interleaved best-of-4 each; the
  containment layer must cost < 3%.

Writes the numbers to ``BENCH_serve.json``.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.dse.executor import explore_schedule, explore_space  # noqa: E402
from repro.model import matrix_multiplication  # noqa: E402
from repro.serve.client import ServeClient  # noqa: E402
from repro.serve.protocol import encode_result  # noqa: E402

OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_serve.json"
SRC = str(Path(__file__).resolve().parent.parent / "src")

EXAMPLE_51 = {
    "task": "schedule", "algorithm": "matmul", "mu": [6],
    "space": [[1, 1, -1]],
}
#: Problem 6.1 under Example 5.1's optimal schedule Pi = (1, 6, 1).
EXAMPLE_51_SPACE = {
    "task": "space", "algorithm": "matmul", "mu": [6], "pi": [1, 6, 1],
}


class Server:
    """One ``repro serve`` subprocess on an ephemeral port."""

    def __init__(self, state_dir: Path, cache_dir: Path | None = None,
                 *, env: dict | None = None, workers: int = 2,
                 extra_args: tuple = ()) -> None:
        self.port_file = state_dir / "port"
        if self.port_file.exists():
            self.port_file.unlink()
        run_env = dict(os.environ, PYTHONPATH=SRC)
        run_env.update(env or {})
        args = [
            sys.executable, "-m", "repro.cli", "serve",
            "--state-dir", str(state_dir), "--port", "0",
            "--port-file", str(self.port_file),
            "--workers", str(workers),
        ]
        args += (["--cache-dir", str(cache_dir)] if cache_dir
                 else ["--no-cache"])
        args += list(extra_args)
        self.proc = subprocess.Popen(args, env=run_env,
                                     stderr=subprocess.DEVNULL)
        deadline = time.monotonic() + 20
        while time.monotonic() < deadline:
            if self.port_file.exists() and self.port_file.read_text().strip():
                self.port = int(self.port_file.read_text())
                return
            time.sleep(0.02)
        raise RuntimeError("server never came up")

    def client(self) -> ServeClient:
        return ServeClient(port=self.port)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            self.proc.wait(timeout=30)


def bench_latency(root: Path, serial_encoded: dict) -> dict:
    state, cache = root / "lat-state", root / "lat-cache"
    state.mkdir()
    server = Server(state, cache)
    try:
        client = server.client()

        t0 = time.perf_counter()
        record = client.submit(EXAMPLE_51)
        final = client.wait(record["id"], timeout=120)
        cold = time.perf_counter() - t0
        assert final["result"] == serial_encoded, "serve != serial"

        # Identical spec again: the submit response itself carries the
        # result (digest dedup onto the finished job).
        best_cached = float("inf")
        for _ in range(5):
            t0 = time.perf_counter()
            again = client.submit(EXAMPLE_51)
            best_cached = min(best_cached, time.perf_counter() - t0)
            assert again["created"] is False
            assert again["result"] == serial_encoded
        jobs_after = len(client.jobs())
    finally:
        server.stop()

    # New server generation: fresh job state, same ResultCache dir.
    state2 = root / "lat-state-2"
    state2.mkdir()
    server = Server(state2, cache)
    try:
        client = server.client()
        t0 = time.perf_counter()
        record = client.submit(EXAMPLE_51)
        final = client.wait(record["id"], timeout=120)
        warm_new_server = time.perf_counter() - t0
        assert final["result"] == serial_encoded
        assert final["cache_hit"] is True, "expected a ResultCache hit"
    finally:
        server.stop()

    speedup = cold / best_cached
    assert jobs_after == 1, f"dedup failed: {jobs_after} jobs for one spec"
    assert speedup >= 10, (
        f"cached request only {speedup:.1f}x faster than cold"
    )
    return {
        "case": "example-5.1-matmul-mu6",
        "cold_s": cold,
        "cached_s": best_cached,
        "cached_speedup_vs_cold": speedup,
        "warm_cache_new_server_s": warm_new_server,
    }


def _throughput_run(root: Path, name: str, clients: int,
                    extra_args: tuple = (),
                    specs: list | None = None) -> float:
    """Wall time for `clients` threads driving distinct specs to done."""
    state = root / name
    state.mkdir()
    server = Server(state, None, workers=4, extra_args=extra_args)
    try:
        if specs is None:
            specs = [
                {"task": "schedule", "algorithm": "matmul", "mu": [mu],
                 "space": [[1, 1, -1]]}
                for mu in range(3, 3 + clients)
            ]

        def one(spec):
            client = server.client()
            record = client.submit(spec)
            final = client.wait(record["id"], timeout=300)
            assert final["state"] == "done"
            return final

        t0 = time.perf_counter()
        with ThreadPoolExecutor(max_workers=clients) as pool:
            list(pool.map(one, specs))
        return time.perf_counter() - t0
    finally:
        server.stop()


def bench_throughput(root: Path, clients: int = 8) -> dict:
    wall = _throughput_run(root, "thr-state", clients)
    return {
        "case": f"{clients}-clients-distinct-specs",
        "jobs": clients,
        "wall_s": wall,
        "jobs_per_s": clients / wall,
    }


def bench_hardening_overhead(root: Path, clients: int = 8) -> dict:
    """The containment layer on the hot path: the 8-client throughput
    shape scaled to 48 distinct jobs (8 sizes x 6 space vectors, so
    per-run wall is a couple of seconds and a 3% difference rises above
    subprocess scheduling noise), ``--no-hardening`` vs the armed
    defaults, interleaved best-of-4 each so a noisy neighbor cannot
    charge its wall time to one configuration."""
    spaces = [[1, 1, -1], [1, -1, 1], [-1, 1, 1],
              [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]
    specs = [
        {"task": "schedule", "algorithm": "matmul", "mu": [mu],
         "space": [space]}
        for mu in range(3, 3 + clients) for space in spaces
    ]
    hardened_args = ("--max-queue", "64", "--job-deadline", "300",
                     "--breaker-threshold", "3")
    baseline_args = ("--no-hardening",)
    hardened, baseline = [], []
    for i in range(4):
        hardened.append(_throughput_run(
            root, f"ovh-hard-{i}", clients, hardened_args, specs=specs))
        baseline.append(_throughput_run(
            root, f"ovh-base-{i}", clients, baseline_args, specs=specs))
        print(f"  overhead rep {i}: armed {hardened[-1]:.2f}s "
              f"vs bare {baseline[-1]:.2f}s", file=sys.stderr)
    best_hardened, best_baseline = min(hardened), min(baseline)
    overhead_pct = (best_hardened - best_baseline) / best_baseline * 100.0
    assert overhead_pct < 3.0, (
        f"hardening costs {overhead_pct:.2f}% on the {clients}-client "
        f"throughput case (budget: 3%)"
    )
    return {
        "case": f"{clients}-clients-hardening-overhead",
        "jobs": len(specs),
        "baseline_s": best_baseline,
        "hardened_s": best_hardened,
        "overhead_pct": overhead_pct,
    }


def bench_restart_recovery(root: Path) -> dict:
    state = root / "rec-state"
    state.mkdir()
    serial = explore_space(matrix_multiplication(6), (1, 6, 1), jobs=1)
    serial_encoded = encode_result("space", serial)
    shards = ("--search-jobs", "2")

    server = Server(
        state, None, extra_args=shards + ("--shard-timeout", "2"),
        env={"REPRO_DSE_SLOW": "0.2", "REPRO_DSE_FAULT": "hang:1"},
    )
    try:
        client = server.client()
        record = client.submit(EXAMPLE_51_SPACE)
        job_id = record["id"]
        journal = state / "journals" / f"{job_id}.ckpt"
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            if journal.exists() and len(journal.read_bytes().splitlines()) >= 2:
                break
            time.sleep(0.05)
        else:
            raise RuntimeError("journal never grew")
    finally:
        server.stop()  # graceful SIGTERM: job parks as interrupted

    t0 = time.perf_counter()
    server = Server(state, None, extra_args=shards)
    try:
        client = server.client()
        final = client.wait(job_id, timeout=120)
        recovery = time.perf_counter() - t0
        assert final["state"] == "done"
        assert final["result"] == serial_encoded, "resumed != uninterrupted"
        resumed = final["telemetry"]["shards_resumed"]
        assert resumed >= 1
    finally:
        server.stop()
    return {
        "case": "sigterm-restart-resume",
        "recovery_s": recovery,
        "shards_resumed": resumed,
    }


def main() -> None:
    serial = explore_schedule(matrix_multiplication(6), [[1, 1, -1]])
    serial_encoded = encode_result("schedule", serial)

    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        latency = bench_latency(root, serial_encoded)
        throughput = bench_throughput(root)
        recovery = bench_restart_recovery(root)
        overhead = bench_hardening_overhead(root)

    payload = {
        "benchmark": "serve-job-server",
        "cpu_count": os.cpu_count(),
        "latency": latency,
        "throughput": throughput,
        "restart_recovery": recovery,
        "hardening_overhead": overhead,
    }
    OUTPUT.write_text(json.dumps(payload, indent=2) + "\n")

    print(f"cold submit->done   : {latency['cold_s']*1000:8.1f} ms")
    print(f"cached resubmit     : {latency['cached_s']*1000:8.1f} ms "
          f"({latency['cached_speedup_vs_cold']:.0f}x faster)")
    print(f"warm-cache restart  : "
          f"{latency['warm_cache_new_server_s']*1000:8.1f} ms")
    print(f"throughput          : {throughput['jobs_per_s']:8.2f} jobs/s "
          f"({throughput['jobs']} clients)")
    print(f"restart recovery    : {recovery['recovery_s']*1000:8.1f} ms "
          f"({recovery['shards_resumed']} shard(s) replayed)")
    print(f"hardening overhead  : {overhead['overhead_pct']:+8.2f} % "
          f"(armed {overhead['hardened_s']:.2f}s vs "
          f"bare {overhead['baseline_s']:.2f}s)")
    print(f"wrote {OUTPUT.name}")


if __name__ == "__main__":
    main()
