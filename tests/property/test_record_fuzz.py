"""Byte-flip fuzzing of every checksummed file kind (repro.dse.records).

The files come from real served schedule jobs (Example 5.1, matmul
mu=4, and Example 5.2, transitive closure mu=4): the job record, its
checkpoint journal, its cache entry, its event log and a poison-registry
entry.  Flipping bytes of one of them must never make a read return a
different value: every read gives the original, or nothing (the file
quarantined or skewed, or a dropped tail).  The answer served after a
restart is also checked against the exact kernel-box oracle.
"""

from __future__ import annotations

import shutil
import tempfile
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.conflict import is_conflict_free_kernel_box
from repro.core.mapping import MappingMatrix
from repro.core.schedule import LinearSchedule
from repro.dse.cache import ResultCache
from repro.dse.checkpoint import CheckpointJournal
from repro.serve.bridge import execute_job
from repro.serve.hardening import QuarantineRegistry
from repro.serve.protocol import parse_job_spec
from repro.serve.store import ID_LENGTH, JobRecord, JobStore

SPECS = {
    "matmul": {"task": "schedule", "algorithm": "matmul", "mu": [4],
               "space": [[1, 1, -1]]},
    "tc": {"task": "schedule", "algorithm": "transitive-closure", "mu": [4],
           "space": [[0, 0, 1]]},
}

KINDS = ("cache", "journal", "job", "events", "registry")

#: One to three flipped bytes: an offset (taken modulo the file size)
#: and a non-zero XOR mask.
FLIPS = st.lists(
    st.tuples(st.integers(min_value=0), st.integers(1, 255)), min_size=1, max_size=3
)


def check_answer(spec, result: dict) -> None:
    """The served answer is conflict-free by the exact oracle, and its
    total time is its schedule's."""
    algo = spec.build_algorithm()
    pi = tuple(result["pi"])
    t = MappingMatrix(space=tuple(map(tuple, spec.options["space"])), schedule=pi)
    assert is_conflict_free_kernel_box(t, algo.index_set.mu)
    assert result["total_time"] == LinearSchedule(pi=pi, index_set=algo.index_set).total_time


def serve(kind: str, spec, state: Path) -> dict:
    """What a restarted server answers for ``spec`` from ``state``: the
    stored job record when it loads, else a resumed run, which reads the
    cache entry (``kind == "cache"``) and the journal before searching."""
    store = JobStore(state / "store")
    job_id = spec.digest[:ID_LENGTH]
    record = store.load(job_id) if kind == "job" else None
    if record is not None:
        return record.result
    cache = ResultCache(state / "cache") if kind == "cache" else None
    outcome = execute_job(spec, journal_path=store.journal_path(job_id),
                          cache=cache, stop=threading.Event())
    assert outcome.state == "done", outcome.error
    return outcome.result


@pytest.fixture(scope="module", params=sorted(SPECS))
def golden(request, tmp_path_factory):
    """A state directory holding every file kind of one served job."""
    spec = parse_job_spec(SPECS[request.param])
    state = tmp_path_factory.mktemp(f"golden-{request.param}")
    store = JobStore(state / "store")
    job_id = spec.digest[:ID_LENGTH]
    events: list[dict] = []
    outcome = execute_job(
        spec, journal_path=store.journal_path(job_id),
        cache=ResultCache(state / "cache"), stop=threading.Event(),
        on_progress=events.append,
    )
    assert outcome.state == "done"
    check_answer(spec, outcome.result)
    record = JobRecord(
        id=job_id, digest=spec.digest, spec=spec.to_dict(), task=spec.task,
        state="done", result=outcome.result, telemetry=outcome.telemetry,
    )
    store.save(record)
    for event in [{"event": "state", "state": "running"}, *events,
                  {"event": "state", "state": "done"}]:
        store.append_event(job_id, event)
    QuarantineRegistry(state / "quarantine", threshold=1).record_failure(
        spec.digest, "RuntimeError: injected")
    (cache_file,) = (state / "cache").glob("*.json")
    golden = {"spec": spec, "state": state, "record": record}
    golden["files"] = {
        "cache": cache_file,
        "journal": store.journal_path(job_id),
        "job": store.jobs_dir / f"{job_id}.json",
        "events": store.events_path(job_id),
        "registry": next((state / "quarantine").glob("*.json")),
    }
    golden["original"] = {kind: read_back(kind, golden, state) for kind in KINDS}
    assert golden["original"]["journal"] == golden["original"]["cache"]
    return golden


def read_back(kind: str, golden: dict, state: Path):
    """Read the one fuzzed file of ``kind`` through its production reader."""
    spec = golden["spec"]
    job_id = spec.digest[:ID_LENGTH]
    if kind == "cache":
        return ResultCache(state / "cache").get(golden["files"]["cache"].stem)
    if kind == "journal":
        journal = CheckpointJournal(JobStore(state / "store").journal_path(job_id))
        journal.open(spec.digest, resume=True)
        journal.close()
        return journal.result_entry
    if kind == "job":
        record = JobStore(state / "store").load(job_id)
        return record if record is None else record.to_dict()
    if kind == "events":
        return JobStore(state / "store").read_events(job_id)
    return QuarantineRegistry(state / "quarantine", threshold=1).get(spec.digest)


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=40)
@given(flips=FLIPS)
def test_flipped_bytes_never_read_as_another_value(golden, kind, flips):
    with tempfile.TemporaryDirectory() as tmp:
        state, served = Path(tmp) / "read", Path(tmp) / "served"
        shutil.copytree(golden["state"], state)
        target = state / golden["files"][kind].relative_to(golden["state"])
        data = bytearray(target.read_bytes())
        for offset, mask in flips:
            data[offset % len(data)] ^= mask
        target.write_bytes(bytes(data))

        shutil.copytree(state, served)

        value = read_back(kind, golden, state)
        original = golden["original"][kind]
        if kind == "events":
            # A torn or failing line ends the log: a prefix, never a
            # changed event.
            assert value == original[:len(value)]
        else:
            assert value is None or value == original
        if kind in ("cache", "journal", "job"):
            answer = serve(kind, golden["spec"], served)
            assert answer == golden["record"].result
            check_answer(golden["spec"], answer)
