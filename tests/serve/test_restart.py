"""The service's crash story: kill the server mid-run, restart, resume.

Mirrors ``tests/dse/test_signals.py`` at the service level.  A slowed
design search (a space job over two shards, the second of which hangs)
is interrupted by SIGTERM once its first shard is journaled; the
restarted server must pick the job up on its own (no resubmission),
replay the journaled shard, and finish with a result *equal* to an
uninterrupted serial run — the engine's serial-equality contract
surviving a process boundary and a server generation.  Schedule jobs
journal only their final answer, so a killed one simply re-runs.
"""

import sys
import time

import pytest

from repro.dse.executor import explore_schedule, explore_space
from repro.model.library import matrix_multiplication
from repro.serve.protocol import encode_result

from .conftest import MATMUL6_SPEC, ServerProc, space_spec

pytestmark = pytest.mark.skipif(
    sys.platform == "win32", reason="POSIX signal handling required"
)


def wait_for_journal_lines(path, wanted: int, timeout: float = 30.0) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if path.exists():
            with open(path, "rb") as fh:
                if sum(1 for line in fh if line.endswith(b"\n")) >= wanted:
                    return
        time.sleep(0.05)
    raise AssertionError(f"journal never reached {wanted} lines")


class TestKillAndRestart:
    def test_sigterm_then_restart_resumes_to_equal_result(self, tmp_path):
        state = tmp_path / "state"
        shards = ["--search-jobs", "2"]

        # Generation 1: slowed shards, the last one hung until its
        # shard timeout; SIGTERM lands after the first is journaled.
        gen1 = ServerProc(
            state, extra_args=shards + ["--shard-timeout", "2"],
            env={"REPRO_DSE_SLOW": "0.4", "REPRO_DSE_FAULT": "hang:1"},
        )
        try:
            client = gen1.client()
            record = client.submit(space_spec(6))
            job_id = record["id"]
            journal = state / "journals" / f"{job_id}.ckpt"
            wait_for_journal_lines(journal, 2)
            assert gen1.sigterm() == 0
        finally:
            gen1.stop()

        # The interruption is durable: the record says so on disk.
        from repro.serve.store import JobStore

        interrupted = JobStore(state).load(job_id)
        assert interrupted is not None
        assert interrupted.state == "interrupted"

        # Generation 2: full speed, same shard count.  No resubmission —
        # recovery alone must re-enqueue and resume the job.
        gen2 = ServerProc(state, extra_args=shards)
        try:
            client = gen2.client()
            final = client.wait(job_id, timeout=120)
            assert final["state"] == "done"
            assert final["resumes"] >= 1
            assert final["telemetry"]["shards_resumed"] >= 1

            serial = explore_space(matrix_multiplication(6), (1, 6, 1), jobs=1)
            assert final["result"] == encode_result("space", serial)
        finally:
            gen2.stop()

    def test_clean_restart_with_no_pending_jobs(self, tmp_path):
        state = tmp_path / "state"
        gen1 = ServerProc(state)
        try:
            client = gen1.client()
            record = client.submit(MATMUL6_SPEC)
            client.wait(record["id"])
            assert gen1.sigterm() == 0
        finally:
            gen1.stop()

        gen2 = ServerProc(state)
        try:
            client = gen2.client()
            # The finished job survived the restart, result intact...
            final = client.job(record["id"])
            assert final["state"] == "done"
            assert final["result"]["total_time"] == 49
            # ...and an identical request still deduplicates onto it.
            again = client.submit(MATMUL6_SPEC)
            assert again["created"] is False
            assert again["id"] == record["id"]
        finally:
            gen2.stop()


class TestUpgradeRestart:
    def test_old_schema_journal_restarts_the_job_fresh(self, tmp_path):
        """An interrupted job whose journal predates the current journal
        schema (and run key) is restarted from scratch — the old journal
        set aside as ``<id>.ckpt.stale`` — instead of failing and
        counting a quarantine strike."""
        from repro.dse.records import encode_line as _record_line
        from repro.serve.protocol import parse_job_spec
        from repro.serve.store import ID_LENGTH, JobRecord, JobStore

        state = tmp_path / "state"
        spec = parse_job_spec(MATMUL6_SPEC)
        job_id = spec.digest[:ID_LENGTH]
        store = JobStore(state)
        store.save(JobRecord(
            id=job_id, digest=spec.digest, spec=spec.to_dict(),
            task=spec.task, tenant=spec.tenant, state="interrupted",
        ))
        journal = store.journal_path(job_id)
        journal.write_text(
            _record_line({"kind": "run", "schema": 1, "run": "0" * 64,
                          "task": "procedure-5.1"})
            + _record_line({"kind": "shard", "key": "1" * 64,
                            "out": {"records": [], "wall_time": 0.0}})
        )

        server = ServerProc(state)
        try:
            final = server.client().wait(job_id, timeout=120)
            assert final["state"] == "done", final.get("error")
            assert final.get("error") is None
            assert not final.get("quarantined")
            assert final["telemetry"]["shards_resumed"] == 0
            serial = explore_schedule(matrix_multiplication(6), [[1, 1, -1]])
            assert final["result"] == encode_result("schedule", serial)
        finally:
            server.stop()
        stale = journal.with_name(journal.name + ".stale")
        assert '"schema":1' in stale.read_text()
