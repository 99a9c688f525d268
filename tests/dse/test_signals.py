"""Kill-and-resume integration tests for checkpointed explorations.

These run the real CLI in a subprocess, interrupt a design search
(Problem 6.1) mid-run (graceful ``SIGTERM`` and hard ``SIGKILL``), and
verify the journal's crash-safety contract end to end: every surviving
line checksums, the graceful stop exits with the distinct resumable
code, and resuming the interrupted run reproduces the uninterrupted
serial result *exactly* — with zero journaled shards recomputed.

"Mid-run" is made deterministic from the outside: every shard sleeps
``$REPRO_DSE_SLOW``, and the last shard hangs (``$REPRO_DSE_FAULT``), so
the journal holds the header and the first shard, and the run is still
going, when the test strikes.  A graceful stop waits for the hung shard
to pass its ``--shard-timeout``.  The schedule search runs in process
and journals only its final decision, so it has no mid-run journal to
test.
"""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.cli import EXIT_INTERRUPTED
from repro.core.space_optimize import solve_space_optimal
from repro.dse.checkpoint import CheckpointJournal
from repro.dse.executor import explore_space
from repro.dse.records import decode_line as _parse_line
from repro.model import matrix_multiplication

REPO_ROOT = Path(__file__).resolve().parents[2]
PI = (1, 2, 3)

#: Per-shard sleep injected into the subprocess: the first shard lands
#: in the journal well after the run has started.
SLOW = "0.4"


def launch_explore(checkpoint: Path, jobs: int) -> subprocess.Popen:
    """A slowed Problem 6.1 search over ``jobs`` shards whose last
    shard hangs; in its own process group, so a hard kill takes its
    workers."""
    env = {
        **os.environ,
        "PYTHONPATH": str(REPO_ROOT / "src"),
        "REPRO_DSE_SLOW": SLOW,
        "REPRO_DSE_FAULT": f"hang:{jobs - 1}",
    }
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro", "explore",
            "--algorithm", "matmul", "--mu", "4",
            "--schedule", ",".join(map(str, PI)),
            "--jobs", str(jobs), "--no-cache", "--shard-timeout", "2",
            "--checkpoint", str(checkpoint),
        ],
        cwd=REPO_ROOT, env=env, start_new_session=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )


def hard_kill(proc: subprocess.Popen) -> None:
    """SIGKILL the whole run: the parent and its pool workers."""
    os.killpg(proc.pid, signal.SIGKILL)
    proc.communicate(timeout=120)


def wait_for_journal_lines(path: Path, minimum: int, timeout: float = 60.0) -> None:
    """Block until the journal holds ``minimum`` complete lines."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if path.exists() and path.read_bytes().count(b"\n") >= minimum:
            return
        time.sleep(0.02)
    raise AssertionError(
        f"journal never reached {minimum} lines within {timeout}s"
    )


def journal_shard_count(path: Path) -> int:
    j = CheckpointJournal(path)
    j.open(run_key_of(path), resume=True)
    try:
        return len(j.shards)
    finally:
        j.close()


def run_key_of(path: Path) -> str:
    head = _parse_line(path.read_bytes().splitlines()[0].decode() + "\n")
    assert head is not None and head["kind"] in ("run", "snapshot")
    return head["run"]


def resume_and_compare(checkpoint: Path, jobs: int) -> None:
    """Resume the interrupted journal and demand exact serial equality.

    Shard identity includes the shard's content, so the resume must use
    the same ``jobs`` value to hit the journal (a different partition
    recomputes, by design); the result is compared against the
    uninterrupted *serial* run either way — the engine's equality
    contract makes them the same thing.
    """
    algo = matrix_multiplication(4)
    uninterrupted = solve_space_optimal(algo, PI)
    saved = journal_shard_count(checkpoint)
    resumed = explore_space(
        algo, PI, jobs=jobs, checkpoint=checkpoint, resume=True
    )
    assert resumed == uninterrupted
    # zero replayed completed shards: everything the journal held was
    # served from it, not recomputed
    assert resumed.stats.shards_resumed == saved


class TestGracefulSigterm:
    @pytest.mark.parametrize("jobs", [2, 4])
    def test_sigterm_leaves_valid_journal_and_resumes_exactly(
        self, tmp_path, jobs
    ):
        ckpt = tmp_path / "run.ckpt"
        proc = launch_explore(ckpt, jobs)
        try:
            # header + at least one durable shard, so the interrupt
            # provably lands mid-exploration with work left to do
            wait_for_journal_lines(ckpt, 2)
            proc.send_signal(signal.SIGTERM)
            _, stderr = proc.communicate(timeout=120)
        finally:
            proc.kill()
        assert proc.returncode == EXIT_INTERRUPTED, stderr.decode()
        assert b"resumable" in stderr
        # a graceful stop flushes everything: every line verifies
        lines = ckpt.read_bytes().splitlines()
        assert lines and all(
            _parse_line(raw.decode() + "\n") is not None for raw in lines
        )
        assert 1 <= journal_shard_count(ckpt) < jobs
        resume_and_compare(ckpt, jobs=jobs)


class TestHardKill:
    def test_sigkill_mid_run_is_resumable(self, tmp_path):
        ckpt = tmp_path / "run.ckpt"
        proc = launch_explore(ckpt, jobs=2)
        try:
            wait_for_journal_lines(ckpt, 2)
            hard_kill(proc)
        finally:
            proc.kill()
        assert proc.returncode == -signal.SIGKILL
        # fsync-per-append means a hard kill can tear at most the line
        # being written; replay drops the tail and trusts the rest
        assert journal_shard_count(ckpt) == 1
        resume_and_compare(ckpt, jobs=2)

    def test_torn_tail_after_kill_is_tolerated(self, tmp_path):
        ckpt = tmp_path / "run.ckpt"
        proc = launch_explore(ckpt, jobs=2)
        try:
            wait_for_journal_lines(ckpt, 2)
            hard_kill(proc)
        finally:
            proc.kill()
        # simulate the worst allowed damage on top: a half-written line
        with open(ckpt, "ab") as fh:
            fh.write(b'{"crc":"00ab,partial')
        resume_and_compare(ckpt, jobs=2)
