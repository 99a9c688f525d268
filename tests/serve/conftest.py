"""Shared harness for the serve tests: a real server subprocess.

The server is exercised the way operators run it — ``repro serve`` in
its own process, ephemeral port via ``--port-file`` — so the tests
cover the CLI wiring, the signal handling and the HTTP surface, not
just the Python internals.
"""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[2] / "src")


class ServerProc:
    """One ``repro serve`` subprocess bound to an ephemeral port."""

    def __init__(self, state_dir: Path, *, extra_args=(), env=None,
                 cache_dir: Path | None = None) -> None:
        self.state_dir = state_dir
        self.port_file = state_dir / "port"
        if self.port_file.exists():
            self.port_file.unlink()
        run_env = dict(os.environ, PYTHONPATH=SRC)
        run_env.update(env or {})
        args = [
            sys.executable, "-m", "repro.cli", "serve",
            "--state-dir", str(state_dir),
            "--port", "0", "--port-file", str(self.port_file),
            "--log-level", "INFO",
        ]
        if cache_dir is None:
            args.append("--no-cache")
        else:
            args += ["--cache-dir", str(cache_dir)]
        args += list(extra_args)
        self.proc = subprocess.Popen(
            args, env=run_env, stderr=subprocess.PIPE, text=True
        )
        self.port = self._await_port()

    def _await_port(self, timeout: float = 20.0) -> int:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"server died at startup:\n{self.proc.stderr.read()}"
                )
            if self.port_file.exists():
                text = self.port_file.read_text().strip()
                if text:
                    return int(text)
            time.sleep(0.05)
        raise RuntimeError("server never wrote its port file")

    def client(self):
        from repro.serve.client import ServeClient

        return ServeClient(port=self.port)

    def sigterm(self, timeout: float = 30.0) -> int:
        self.proc.send_signal(signal.SIGTERM)
        return self.proc.wait(timeout=timeout)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stderr.close()


@pytest.fixture
def server(tmp_path):
    """A plain server (no cache, 2 workers) torn down after the test."""
    proc = ServerProc(tmp_path / "state")
    yield proc
    proc.stop()


#: Every design shard sleeps this long on the slowed servers below.
#: Schedule jobs run in process without shards, so only design jobs
#: (the ``*_SPACE_SPEC``\ s) can be slowed.
SLOW = "1.0"


@pytest.fixture
def slow_server(tmp_path, request):
    """A server whose design shards each sleep :data:`SLOW` seconds,
    two shards per search unless parametrized (indirectly) with another
    ``--search-jobs`` — space jobs stay observable long enough to be
    cancelled (a stop lands after the running shard), deduplicated
    onto, or killed."""
    jobs = getattr(request, "param", 2)
    proc = ServerProc(tmp_path / "state", env={"REPRO_DSE_SLOW": SLOW},
                      extra_args=["--search-jobs", str(jobs)])
    yield proc
    proc.stop()


MATMUL4_SPEC = {
    "task": "schedule", "algorithm": "matmul", "mu": [4],
    "space": [[1, 1, -1]],
}

MATMUL6_SPEC = {
    "task": "schedule", "algorithm": "matmul", "mu": [6],
    "space": [[1, 1, -1]],
}


def space_spec(mu: int) -> dict:
    """Problem 6.1 for matmul(mu) under Example 5.1's Pi = (1, mu, 1)."""
    return {"task": "space", "algorithm": "matmul", "mu": [mu],
            "pi": [1, mu, 1]}


MATMUL4_SPACE_SPEC = space_spec(4)
