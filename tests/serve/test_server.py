"""End-to-end tests against a real ``repro serve`` subprocess."""

import socket
import sys
import time

import pytest

from repro.dse.executor import explore_schedule
from repro.model.library import matrix_multiplication
from repro.serve.client import ServeError
from repro.serve.protocol import encode_result

from .conftest import MATMUL4_SPACE_SPEC, MATMUL4_SPEC, SLOW, ServerProc, space_spec

pytestmark = pytest.mark.skipif(
    sys.platform == "win32", reason="POSIX signal handling required"
)


class TestJobLifecycle:
    def test_served_result_equals_direct_library_call(self, server):
        client = server.client()
        record = client.submit(MATMUL4_SPEC)
        assert record["created"] is True
        final = client.wait(record["id"])
        assert final["state"] == "done"

        serial = explore_schedule(matrix_multiplication(4), [[1, 1, -1]])
        assert final["result"] == encode_result("schedule", serial)
        assert final["telemetry"]["wall_time"] > 0

    def test_identical_spec_answers_without_new_work(self, server):
        client = server.client()
        first = client.submit(MATMUL4_SPEC)
        client.wait(first["id"])
        again = client.submit(MATMUL4_SPEC)
        assert again["created"] is False
        assert again["id"] == first["id"]
        assert again["state"] == "done"
        assert "result" in again  # answered in the submit response itself

    def test_listing_and_health(self, server):
        client = server.client()
        record = client.submit(MATMUL4_SPEC)
        client.wait(record["id"])
        jobs = client.jobs()
        assert [j["id"] for j in jobs] == [record["id"]]
        assert "result" not in jobs[0]  # summaries stay light
        assert client.health()["jobs"].get("done") == 1

    def test_events_materialize_progress(self, server):
        client = server.client()
        record = client.submit(MATMUL4_SPEC)
        client.wait(record["id"])
        events = list(client.events(record["id"]))
        kinds = [e["event"] for e in events]
        assert kinds[0] == "state"
        assert "phase" in kinds          # ring spans, via repro.obs
        assert "shard_done" not in kinds  # a schedule job runs in process
        assert kinds[-1] == "state"      # terminal transition
        ring = next(e for e in events if e["event"] == "phase")
        assert ring["phase"] == "dse.ring"
        assert "wall_time" in ring
        # A design job reports its shards instead.
        design = client.submit(MATMUL4_SPACE_SPEC)
        client.wait(design["id"])
        kinds = [e["event"] for e in client.events(design["id"])]
        assert (kinds[0], kinds[-1]) == ("state", "state")
        assert "shard_done" in kinds

    def test_follow_streams_until_done(self, server):
        client = server.client()
        record = client.submit(MATMUL4_SPEC)
        seen = [e["event"] for e in client.events(record["id"], follow=True)]
        assert seen and seen[-1] == "state"
        assert client.job(record["id"])["state"] == "done"

    def test_follow_of_a_finished_job_closes_at_once(self, server):
        # The stream ends with the terminal event, not after the
        # follower's 1 s poll runs dry.
        client = server.client()
        record = client.submit(MATMUL4_SPEC)
        client.wait(record["id"])
        start = time.monotonic()
        events = list(client.events(record["id"], follow=True))
        elapsed = time.monotonic() - start
        assert (events[-1]["event"], events[-1]["state"]) == ("state", "done")
        assert events == list(client.events(record["id"]))
        assert elapsed < 0.5


class TestErrors:
    def test_invalid_spec_is_400_with_diagnosis(self, server):
        client = server.client()
        with pytest.raises(ServeError) as excinfo:
            client.submit({"task": "schedule", "algorithm": "matmul",
                           "mu": [4]})
        assert excinfo.value.status == 400
        assert "space" in str(excinfo.value)

    def test_non_json_body_is_400(self, server):
        import http.client

        conn = http.client.HTTPConnection("127.0.0.1", server.port)
        try:
            conn.request("POST", "/jobs", body=b"not json{")
            response = conn.getresponse()
            assert response.status == 400
        finally:
            conn.close()

    def test_negative_content_length_is_400(self, server):
        # Raw bytes: http.client refuses to send a negative length.
        import socket

        with socket.create_connection(("127.0.0.1", server.port),
                                      timeout=10) as sock:
            sock.sendall(b"POST /jobs HTTP/1.1\r\nHost: x\r\n"
                         b"Content-Length: -5\r\n\r\nhello")
            reply = b""
            while b"\r\n" not in reply:
                chunk = sock.recv(4096)
                if not chunk:
                    break
                reply += chunk
        assert reply.startswith(b"HTTP/1.1 400"), reply[:80]
        assert server.client().health()["status"] == "ok"

    def test_unknown_job_is_404(self, server):
        with pytest.raises(ServeError) as excinfo:
            server.client().job("doesnotexist")
        assert excinfo.value.status == 404

    def test_unknown_route_is_404(self, server):
        with pytest.raises(ServeError) as excinfo:
            server.client()._request("GET", "/nope")
        assert excinfo.value.status == 404

    def test_validation_happens_before_enqueueing(self, server):
        client = server.client()
        with pytest.raises(ServeError):
            client.submit({"task": "schedule", "algorithm": "matmul",
                           "mu": [4], "space": [[1, 1, -1]],
                           "surprise": True})
        assert client.jobs() == []  # nothing was admitted


class TestCancelAndAdmission:
    @pytest.mark.parametrize("slow_server", [1, 2], indirect=True)
    def test_cancel_running_job(self, slow_server):
        # At --search-jobs 1 the one shard runs in process: the stop
        # must land after it, not be lost with the run's end.
        client = slow_server.client()
        record = client.submit(MATMUL4_SPACE_SPEC)
        journal = slow_server.state_dir / "journals" / f"{record['id']}.ckpt"
        # Let a shard start (the journal header is written first), then
        # stop the search while the shard sleeps.
        for _ in range(200):
            if journal.exists() and journal.stat().st_size:
                break
            time.sleep(0.05)
        time.sleep(0.2)
        client.cancel(record["id"])
        final = client.wait(record["id"], timeout=30)
        assert final["state"] == "cancelled"
        # The shard that was running is journaled: a resubmission
        # replays it.
        client.submit(MATMUL4_SPACE_SPEC)
        final = client.wait(record["id"], timeout=30)
        assert final["state"] == "done"
        assert final["telemetry"]["shards_resumed"] >= 1

    def test_follow_of_a_resubmitted_job_streams_the_new_run(self, slow_server):
        # Resubmitting a cancelled job re-arms the same id and appends to
        # its event log: the old terminal event must not end the stream.
        client = slow_server.client()
        record = client.submit(MATMUL4_SPACE_SPEC)
        client.cancel(record["id"])
        assert client.wait(record["id"], timeout=30)["state"] == "cancelled"
        again = client.submit(MATMUL4_SPACE_SPEC)
        assert (again["id"], again["created"]) == (record["id"], False)
        events = list(client.events(record["id"], follow=True))
        states = [e["state"] for e in events if e["event"] == "state"]
        assert "cancelled" in states
        assert states[-1] == "done"
        assert client.job(record["id"])["state"] == "done"

    def test_tenant_cap_yields_429(self, tmp_path):
        proc = ServerProc(
            tmp_path / "state",
            env={"REPRO_DSE_SLOW": SLOW},
            extra_args=["--max-active", "1"],
        )
        try:
            client = proc.client()
            first = client.submit(MATMUL4_SPACE_SPEC)
            with pytest.raises(ServeError) as excinfo:
                client.submit(space_spec(5))
            assert excinfo.value.status == 429
            # Deduplicating onto the running job stays allowed: it adds
            # no work.
            again = client.submit(MATMUL4_SPACE_SPEC)
            assert again["id"] == first["id"]
            assert again["created"] is False
        finally:
            proc.stop()


class TestShutdown:
    def test_sigterm_drops_open_connections_quietly(self, server):
        # Connections still open when the server drains, one idle and
        # one mid-body, are dropped without a traceback each.
        idle = socket.create_connection(("127.0.0.1", server.port))
        partial = socket.create_connection(("127.0.0.1", server.port))
        partial.sendall(b"POST /jobs HTTP/1.1\r\nContent-Length: 100\r\n\r\n{")
        with idle, partial:
            server.client().health()  # both connections are accepted by now
            assert server.sigterm() == 0
        assert "Traceback" not in server.proc.stderr.read()
