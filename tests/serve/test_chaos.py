"""End-to-end chaos suite: a real server under injected faults.

Each test boots ``repro serve`` in a subprocess with one fault armed
(``$REPRO_SERVE_FAULT``, see :mod:`repro.serve.hardening`) and proves
the containment contract from the ISSUE:

* the server keeps answering ``/healthz`` under every fault;
* over-capacity submits are shed with 503 + ``Retry-After`` (header
  and machine-readable body), never buffered or dropped silently;
* a poison spec is executed at most ``breaker_threshold`` times EVER,
  across restarts included — after that, resubmission answers from the
  recorded failure;
* a hung execution loses its worker slot to the watchdog and the slot
  immediately serves the next job;
* disk faults degrade the store to memory (flagged, visible on
  ``/healthz``) without wedging the server or corrupting answers;
* every completed result is bit-identical to an unfaulted run.
"""

import json
import time
from http.client import HTTPConnection

import pytest

from .conftest import (
    MATMUL4_SPACE_SPEC,
    MATMUL4_SPEC,
    SLOW,
    ServerProc,
    space_spec,
)

MATMUL3_SPEC = {
    "task": "schedule", "algorithm": "matmul", "mu": [3],
    "space": [[1, 1, -1]],
}

MATMUL5_SPEC = {
    "task": "schedule", "algorithm": "matmul", "mu": [5],
    "space": [[1, 1, -1]],
}


def raw_request(port, method, path, payload=None):
    """One request via http.client so response *headers* are visible
    (the ServeClient already folds Retry-After into ServeError)."""
    conn = HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        body = json.dumps(payload).encode() if payload is not None else None
        headers = {"Content-Type": "application/json"} if body else {}
        conn.request(method, path, body=body, headers=headers)
        response = conn.getresponse()
        data = response.read()
        return (response.status, dict(response.getheaders()),
                json.loads(data) if data else {})
    finally:
        conn.close()


def wait_until(predicate, timeout=30.0, interval=0.05, message="condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(interval)
    raise TimeoutError(f"{message} not reached within {timeout}s")


def running_executions(client, job_id):
    """How many times the job actually entered execution — the count
    the quarantine acceptance criterion is about."""
    return sum(1 for e in client.events(job_id)
               if e.get("event") == "state" and e.get("state") == "running")


@pytest.fixture(scope="module")
def clean_results(tmp_path_factory):
    """Ground truth: the same specs on an unfaulted server."""
    proc = ServerProc(tmp_path_factory.mktemp("clean") / "state")
    try:
        client = proc.client()
        results = {}
        for name, spec in (("mu3", MATMUL3_SPEC), ("mu4", MATMUL4_SPEC),
                           ("mu5", MATMUL5_SPEC),
                           ("space4", MATMUL4_SPACE_SPEC)):
            record = client.submit(spec)
            final = client.wait(record["id"], timeout=120)
            assert final["state"] == "done"
            results[name] = final["result"]
        return results
    finally:
        proc.stop()


# -- overload shedding ---------------------------------------------------------


def test_overload_sheds_503_with_retry_after(tmp_path, clean_results):
    """Past --max-queue the server sheds instead of buffering: 503,
    Retry-After header, machine-readable body — and /healthz stays up
    the whole time.  Slowed design jobs hold the one worker."""
    proc = ServerProc(
        tmp_path / "state",
        extra_args=["--workers", "1", "--max-queue", "1"],
        env={"REPRO_DSE_SLOW": SLOW},
    )
    try:
        client = proc.client()
        first = client.submit(MATMUL4_SPACE_SPEC)
        wait_until(lambda: client.job(first["id"])["state"] == "running",
                   message="first job running")
        queued = client.submit(space_spec(5))   # fills the 1-slot queue
        assert client.job(queued["id"])["state"] == "queued"

        status, headers, body = raw_request(proc.port, "POST", "/jobs",
                                            space_spec(6))
        assert status == 503
        assert int(headers["Retry-After"]) >= 1
        assert body["code"] == "queue_full"
        assert body["retry_after"] > 0
        assert "error" in body

        # The server is alive and says so; readiness correctly reports
        # the full queue.
        health = client.health()
        assert health["status"] == "ok"
        assert health["shed"].get("queue_full", 0) >= 1
        assert health["queue"] == {"depth": 1, "max": 1}
        status, _headers, ready = raw_request(proc.port, "GET", "/readyz")
        assert status == 503
        assert "queue_full" in ready["reasons"]
        # The client treats not-ready as a poll answer, not a failure.
        polled = client.ready()
        assert polled["ready"] is False
        assert "queue_full" in polled["reasons"]

        # Nothing admitted was lost: both jobs complete and the result
        # of the one that ran under load matches the unfaulted run.
        final = client.wait(first["id"], timeout=120)
        assert final["state"] == "done"
        assert final["result"] == clean_results["space4"]
        assert client.wait(queued["id"], timeout=120)["state"] == "done"

        # Capacity freed: the shed spec is accepted on retry.
        retried = client.submit(space_spec(6))
        assert retried["state"] == "queued"
        assert client.ready()["ready"] is True
        client.cancel(retried["id"])
    finally:
        proc.stop()


# -- poison-job quarantine + circuit breaker ------------------------------------


def test_poison_quarantine_breaker_and_restart(tmp_path, clean_results):
    """A spec that crashes the engine every time is executed at most
    --breaker-threshold times EVER — resubmits (same server or after a
    restart) answer from the recorded failure, and the tenant's breaker
    sheds unrelated new work while open."""
    state_dir = tmp_path / "state"
    env = {"REPRO_SERVE_FAULT": "crash:always"}
    extra = ["--workers", "1", "--breaker-threshold", "2",
             "--breaker-cooldown", "300"]
    proc = ServerProc(state_dir, extra_args=extra, env=env)
    try:
        client = proc.client()
        record = client.submit(MATMUL4_SPEC)
        job_id = record["id"]
        first = client.wait(job_id, timeout=60)
        assert first["state"] == "failed"
        assert "InjectedFault" in first["error"]
        assert not first["quarantined"]

        # Strike two: resubmission is the retry button — and the last
        # allowed execution.
        client.submit(MATMUL4_SPEC)
        second = client.wait(job_id, timeout=60)
        assert second["state"] == "failed"
        assert second["quarantined"] is True
        assert running_executions(client, job_id) == 2

        # From now on the recorded failure IS the answer.
        answered = client.submit(MATMUL4_SPEC)
        assert answered["created"] is False
        assert answered["quarantined"] is True
        assert "InjectedFault" in answered["error"]
        assert running_executions(client, job_id) == 2

        health = client.health()
        assert health["quarantined"] == 1
        assert health["breakers"]["default"]["state"] == "open"

        # Two consecutive failures also opened the tenant's breaker:
        # unrelated new work is shed until the cooldown.
        status, headers, body = raw_request(proc.port, "POST", "/jobs",
                                            MATMUL5_SPEC)
        assert status == 503
        assert body["code"] == "breaker_open"
        assert int(headers["Retry-After"]) >= 1
        assert client.health()["status"] == "ok"
    finally:
        proc.stop()

    # Restart on the same state dir, fault still armed: the quarantine
    # is durable, so the poison spec is NOT re-enqueued by recovery and
    # NOT re-executed on resubmit.
    proc = ServerProc(state_dir, extra_args=extra, env=env)
    try:
        client = proc.client()
        record = client.job(job_id)
        assert record["state"] == "failed"
        assert record["quarantined"] is True
        answered = client.submit(MATMUL4_SPEC)
        assert answered["quarantined"] is True
        assert running_executions(client, job_id) == 2  # never ran again
        health = client.health()
        assert health["quarantined"] == 1
        # The breaker is per-generation (in-memory): a fresh server
        # gives the tenant a clean slate for NEW work.
        assert health["breakers"] == {}
        fresh = client.submit(MATMUL5_SPEC)
        assert fresh["state"] == "queued"
    finally:
        proc.stop()


# -- watchdog -------------------------------------------------------------------


def test_watchdog_reclaims_hung_worker_slot(tmp_path, clean_results):
    """A hung execution (deaf even to its stop event) is abandoned by
    the watchdog; the worker slot immediately serves the next job and
    the hung job is left resumable-interrupted."""
    proc = ServerProc(
        tmp_path / "state",
        extra_args=["--workers", "1", "--job-deadline", "3"],
        env={"REPRO_SERVE_FAULT": "hang", "REPRO_SERVE_FAULT_HANG": "8"},
    )
    try:
        client = proc.client()
        hung = client.submit(MATMUL4_SPEC)
        # deadline 3s + grace 2s < the 8s hang: the watchdog must
        # abandon, not wait it out.
        final = client.wait(hung["id"], timeout=30)
        assert final["state"] == "interrupted"
        assert not final["quarantined"]  # one strike < threshold

        health = client.health()
        assert health["watchdog"]["fired"] == 1
        assert health["watchdog"]["abandoned"] == 1
        assert health["workers"]["alive"] == 1

        actions = [e.get("action") for e in client.events(hung["id"])
                   if e.get("event") == "watchdog"]
        assert actions == ["deadline", "abandoned"]

        # The reclaimed slot does real work: the next job (the hang
        # fault was one-shot) completes with a clean-run answer.
        record = client.submit(MATMUL3_SPEC)
        done = client.wait(record["id"], timeout=60)
        assert done["state"] == "done"
        assert done["result"] == clean_results["mu3"]
    finally:
        proc.stop()


# -- disk-fault degradation -------------------------------------------------------


def test_disk_full_degrades_store_not_service(tmp_path, clean_results):
    """With every record/event write failing ENOSPC the server still
    accepts, runs and answers jobs — from memory, flagged degraded on
    the record and on /healthz — and stays in rotation on /readyz."""
    proc = ServerProc(
        tmp_path / "state",
        env={"REPRO_SERVE_FAULT": "disk_full:always"},
    )
    try:
        client = proc.client()
        record = client.submit(MATMUL4_SPEC)
        final = client.wait(record["id"], timeout=60)
        assert final["state"] == "done"
        assert final["degraded"] is True
        assert final["result"] == clean_results["mu4"]

        health = client.health()
        assert health["status"] == "ok"
        store = health["store"]
        assert store["ok"] is False
        assert store["degraded"] is True
        assert store["write_errors"] >= 1
        assert store["memory_records"] >= 1
        assert store["degraded_since"] is not None
        # Degradation is NOT unreadiness: serving from memory is the
        # containment working.
        assert client.ready()["ready"] is True
        # Events were parked in memory and still stream in order.
        states = [e["state"] for e in client.events(record["id"])
                  if e.get("event") == "state"]
        assert states[0] == "running" and states[-1] == "done"
    finally:
        proc.stop()


def test_corrupt_store_quarantined_on_restart(tmp_path, clean_results):
    """Records torn on disk (fsync lied / bitrot) never wedge startup:
    the next server moves them aside as *.json.corrupt, boots healthy,
    and a resubmit re-runs the search to the same answer."""
    state_dir = tmp_path / "state"
    proc = ServerProc(state_dir,
                      env={"REPRO_SERVE_FAULT": "corrupt_store:always"})
    try:
        client = proc.client()
        record = client.submit(MATMUL4_SPEC)
        final = client.wait(record["id"], timeout=60)
        # The torn write "succeeded": the live server answers from its
        # in-memory state, unaware disk is lying.
        assert final["state"] == "done"
        job_id = record["id"]
    finally:
        proc.stop()

    proc = ServerProc(state_dir)  # fault disarmed: a clean generation
    try:
        client = proc.client()
        corrupt = list((state_dir / "jobs").glob("*.json.corrupt"))
        assert len(corrupt) == 1
        assert client.health()["status"] == "ok"
        assert all(j["id"] != job_id for j in client.jobs())

        resubmitted = client.submit(MATMUL4_SPEC)
        assert resubmitted["created"] is True
        final = client.wait(resubmitted["id"], timeout=60)
        assert final["state"] == "done"
        assert final["result"] == clean_results["mu4"]
    finally:
        proc.stop()


# -- races ------------------------------------------------------------------------


def test_cancel_while_running_releases_slot_and_tenant_cap(tmp_path):
    """Cancelling a running job must release both the worker slot and
    the tenant's max_active budget — the two leaks that would slowly
    brick a server whose clients cancel a lot.  The slowed design jobs
    run two shards, so a cancel lands at the first shard boundary."""
    proc = ServerProc(
        tmp_path / "state",
        extra_args=["--workers", "1", "--max-active", "1",
                    "--search-jobs", "2"],
        env={"REPRO_DSE_SLOW": SLOW},
    )
    try:
        client = proc.client()
        first = client.submit(MATMUL4_SPACE_SPEC)
        wait_until(lambda: client.job(first["id"])["state"] == "running",
                   message="first job running")

        # The tenant cap holds while the job runs...
        status, headers, body = raw_request(proc.port, "POST", "/jobs",
                                            space_spec(5))
        assert status == 429
        assert body["code"] == "tenant_busy"
        assert int(headers["Retry-After"]) >= 1

        client.cancel(first["id"])
        final = client.wait(first["id"], timeout=30)
        assert final["state"] == "cancelled"
        wait_until(lambda: client.health()["workers"]["busy"] == 0,
                   message="worker slot released")

        # ...and releases on cancel: the same spec is now admitted and
        # actually gets the worker.
        second = client.submit(space_spec(5))
        assert second["state"] == "queued"
        wait_until(
            lambda: client.job(second["id"])["state"] in ("running", "done"),
            message="second job scheduled")
        client.cancel(second["id"])
        client.wait(second["id"], timeout=30)
    finally:
        proc.stop()
