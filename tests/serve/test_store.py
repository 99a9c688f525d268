"""Unit tests for the durable job store."""

import json

from repro.serve.queue import JobManager
from repro.serve.store import JobRecord, JobStore


def record(job_id="abc123", **kw):
    return JobRecord(
        id=job_id, digest=job_id * 4, task="schedule",
        spec={"task": "schedule"}, **kw,
    )


class TestRecords:
    def test_save_load_round_trip(self, tmp_path):
        store = JobStore(tmp_path)
        original = record(state="running", deduped=3, resumes=1)
        store.save(original)
        loaded = store.load("abc123")
        assert loaded == original

    def test_load_missing_is_none(self, tmp_path):
        assert JobStore(tmp_path).load("nope") is None

    def test_damaged_record_is_quarantined(self, tmp_path):
        store = JobStore(tmp_path)
        path = store.jobs_dir / "bad.json"
        path.write_text("{torn")
        assert store.load("bad") is None
        assert not path.exists()
        assert (store.jobs_dir / "bad.json.corrupt").exists()

    def test_unknown_state_is_rejected(self, tmp_path):
        store = JobStore(tmp_path)
        path = store.jobs_dir / "weird.json"
        data = record("weird").to_dict()
        data["state"] = "levitating"
        path.write_text(json.dumps(data))
        assert store.load("weird") is None
        assert (store.jobs_dir / "weird.json.corrupt").exists()

    def test_load_all_sorts_by_creation(self, tmp_path):
        store = JobStore(tmp_path)
        store.save(record("later", created=200.0))
        store.save(record("early", created=100.0))
        assert [r.id for r in store.load_all()] == ["early", "later"]

    def test_tampered_done_record_is_not_served(self, tmp_path):
        # Example 5.1 at mu=6: Pi = (1, 2, 5), t = mu^2 + 2 mu + 1 = 49.
        # A record edited on disk to claim t = 48 fails its checksum.
        store = JobStore(tmp_path)
        store.save(record(state="done",
                          result={"pi": [1, 2, 5], "total_time": 49}))
        path = store.jobs_dir / "abc123.json"
        text = path.read_text()
        assert '"total_time":49' in text
        path.write_text(text.replace('"total_time":49', '"total_time":48'))
        assert JobStore(tmp_path).load("abc123") is None
        assert (store.jobs_dir / "abc123.json.corrupt").exists()

    def test_record_without_checksum_is_set_aside(self, tmp_path):
        # A record written before records carried a checksum is version
        # skew: not served, and its spec re-runs when resubmitted.
        store = JobStore(tmp_path)
        path = store.jobs_dir / "abc123.json"
        path.write_text(json.dumps(record(state="done").to_dict()))
        assert store.load_all() == []
        assert (store.jobs_dir / "abc123.json.corrupt").exists()

    def test_save_is_atomic_no_temp_residue(self, tmp_path):
        store = JobStore(tmp_path)
        store.save(record())
        assert not list(store.jobs_dir.glob(".tmp-*"))

    def test_public_view_hides_absent_fields(self, tmp_path):
        view = record().public()
        assert "result" not in view
        assert "error" not in view
        done = record(result={"found": True}, error=None).public()
        assert done["result"] == {"found": True}


class TestEvents:
    def test_append_and_read(self, tmp_path):
        store = JobStore(tmp_path)
        store.append_event("j1", {"event": "state", "state": "queued"})
        store.append_event("j1", {"event": "shard_done", "completed": 1})
        events = store.read_events("j1")
        assert [e["event"] for e in events] == ["state", "shard_done"]
        assert all("ts" in e for e in events)

    def test_read_from_offset(self, tmp_path):
        store = JobStore(tmp_path)
        for i in range(5):
            store.append_event("j1", {"event": "tick", "i": i})
        assert [e["i"] for e in store.read_events("j1", start=3)] == [3, 4]

    def test_missing_log_is_empty(self, tmp_path):
        assert JobStore(tmp_path).read_events("ghost") == []

    def test_line_without_checksum_ends_the_log(self, tmp_path):
        store = JobStore(tmp_path)
        store.append_event("j1", {"event": "ok"})
        with open(store.events_path("j1"), "a", encoding="utf-8") as fh:
            fh.write('{"event":"state","state":"done"}\n')
        store.append_event("j1", {"event": "later"})
        assert [e["event"] for e in store.read_events("j1")] == ["ok"]

    def test_recovery_trims_the_log_so_later_events_read(self, tmp_path):
        store = JobStore(tmp_path)
        store.save(record("j1", state="running"))
        store.append_event("j1", {"event": "ok"})
        with open(store.events_path("j1"), "a", encoding="utf-8") as fh:
            fh.write('{"event":"state","state":"done"}\n')
        restarted = JobStore(tmp_path)
        assert JobManager(restarted).recover() == 1
        restarted.append_event("j1", {"event": "later"})
        assert [e["event"] for e in restarted.read_events("j1")] == ["ok", "later"]

    def test_torn_tail_is_dropped(self, tmp_path):
        store = JobStore(tmp_path)
        store.append_event("j1", {"event": "ok"})
        with open(store.events_path("j1"), "a", encoding="utf-8") as fh:
            fh.write('{"event": "torn", "no_newline"')
        events = store.read_events("j1")
        assert [e["event"] for e in events] == ["ok"]

    def test_journal_path_is_per_job(self, tmp_path):
        store = JobStore(tmp_path)
        assert store.journal_path("a") != store.journal_path("b")
        assert store.journal_path("a").parent == store.journals_dir


class TestDurability:
    def test_fsyncs_per_served_schedule_job(self, tmp_path, monkeypatch):
        # The job record's three saves (queued, running, done) and the
        # journal's two appends (header, result) are fsynced; the cache
        # entry, the event lines and the directories are not.
        import asyncio
        import os

        from repro.serve.protocol import TERMINAL_STATES, parse_job_spec
        from repro.serve.server import MappingServer, ServerConfig

        from .conftest import MATMUL4_SPEC

        fsynced = []
        real_fsync = os.fsync

        def counting_fsync(fd):
            fsynced.append(fd)
            real_fsync(fd)

        async def serve_one_job():
            server = MappingServer(ServerConfig(
                state_dir=str(tmp_path / "state"), port=0,
                cache_dir=str(tmp_path / "cache"),
            ))
            await server.start()
            try:
                job, _ = server.manager.submit(parse_job_spec(MATMUL4_SPEC))
                while server.manager.jobs[job.id].state not in TERMINAL_STATES:
                    await asyncio.sleep(0.01)
                return server.manager.jobs[job.id]
            finally:
                server.request_stop()
                await server._shutdown()

        monkeypatch.setattr(os, "fsync", counting_fsync)
        final = asyncio.run(serve_one_job())
        assert final.state == "done" and not final.cache_hit
        assert len(fsynced) == 5
