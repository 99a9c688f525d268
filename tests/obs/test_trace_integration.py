"""End-to-end tracing through the searches and the simulator.

The acceptance contract of the observability layer:

* a traced parallel search returns a result equal to the serial one
  (tracing is telemetry, never a semantic);
* the exported JSONL is schema-valid;
* the timing is one source of truth — the shard spans of a design
  search sum exactly to ``SearchStats.shard_wall_times`` and the root
  span *is* ``SearchStats.wall_time``.

The schedule search runs in process: its trace is the ring spans under
the ``dse.explore_schedule`` root, with no shard spans.
"""

from __future__ import annotations

import pytest

from repro.core import MappingMatrix, solve_joint_optimal
from repro.core.optimize import procedure_5_1, ring_candidate_array, ring_size
from repro.core.space_optimize import enumerate_space_mappings
from repro.dse import ResultCache, explore_joint, explore_schedule, explore_space
from repro.model import matrix_multiplication
from repro.obs import load_trace, trace_session
from repro.systolic import simulate_mapping

SPACE_51 = ((1, 1, -1),)  # Example 5.1's space mapping


@pytest.fixture
def matmul4():
    return matrix_multiplication(4)


class TestTracedScheduleSearch:
    def test_ring_size_and_materialized_rows(self, matmul4, tmp_path):
        # candidates is the full ring; materialized counts the rows with
        # the forced signs of D (all positive for matmul).
        path, events = tmp_path / "t.jsonl", []
        with trace_session(path):
            result = procedure_5_1(matmul4, SPACE_51)
            explore_schedule(matmul4, SPACE_51, on_progress=events.append)
        rings = [
            r["attrs"] for r in load_trace(path)
            if r["type"] == "span" and r["name"] in ("core.ring", "dse.ring")
        ]
        rings += [e for e in events if e.get("phase") == "dse.ring"]
        # One span per ring group on each path (rings 0 | 1 | 2-3) and one
        # progress event per logical ring.
        assert len(rings) == 2 * 3 + (result.rings_expanded + 1) == 10
        for ring in rings:
            assert ring["candidates"] == ring_size(
                matmul4.mu, ring["f_max"], ring["f_min"]
            )
            assert ring["materialized"] == len(ring_candidate_array(
                matmul4.mu, ring["f_max"], f_min=ring["f_min"], signs=(1, 1, 1)
            ))
            assert ring["materialized"] < ring["candidates"]

    def test_traced_parallel_equals_serial(self, matmul4, tmp_path):
        with trace_session(tmp_path / "t.jsonl"):
            schedule = explore_schedule(matmul4, SPACE_51)
            parallel = explore_joint(matmul4, jobs=4)
        assert schedule == procedure_5_1(matmul4, SPACE_51)
        assert parallel == solve_joint_optimal(matmul4)

    def test_trace_is_schema_valid_and_timing_consistent(
        self, matmul4, tmp_path
    ):
        path = tmp_path / "t.jsonl"
        with trace_session(path):
            result = explore_joint(matmul4, jobs=4)
            schedule = explore_schedule(matmul4, SPACE_51)
        records = load_trace(path)  # raises on any schema problem
        spans = [r for r in records if r["type"] == "span"]

        shard_spans = [s for s in spans if s["name"] == "dse.shard"]
        assert shard_spans, "worker spans were not absorbed into the trace"
        assert sum(s["duration"] for s in shard_spans) == pytest.approx(
            sum(result.stats.shard_wall_times), rel=1e-9
        )

        for name, run in (("dse.explore_joint", result),
                          ("dse.explore_schedule", schedule)):
            [root] = [
                s for s in spans if s["name"] == name and s["parent_id"] is None
            ]
            assert root["duration"] == pytest.approx(
                run.stats.wall_time, rel=1e-9
            )

    def test_spans_form_one_tree_with_shard_tags(self, matmul4, tmp_path):
        # A shard traces where it runs: in process at jobs=1, in a pool
        # worker at jobs=4; either way its search nests under it.
        for jobs in (1, 4):
            path = tmp_path / f"joint{jobs}.jsonl"
            with trace_session(path):
                result = explore_joint(matmul4, jobs=jobs)
            spans = [r for r in load_trace(path) if r["type"] == "span"]
            by_id = {s["span_id"]: s for s in spans}
            shards = [s for s in spans if s["name"] == "dse.shard"]
            assert len(shards) == jobs
            for shard in shards:
                assert "shard" in shard["attrs"]
                assert by_id[shard["parent_id"]]["name"] == "dse.designs"
            assert sum(s["duration"] for s in shards) == pytest.approx(
                sum(result.stats.shard_wall_times), rel=1e-9
            )
            inner = [s for s in spans
                     if s["name"] in ("core.procedure_5_1", "core.ring")]
            assert {s["name"] for s in inner} == {"core.procedure_5_1", "core.ring"}
            for span in inner:
                while span["name"] != "dse.shard":
                    assert span["parent_id"] is not None, (jobs, span["name"])
                    span = by_id[span["parent_id"]]

        path = tmp_path / "t.jsonl"
        with trace_session(path):
            explore_schedule(matmul4, SPACE_51)
        spans = [r for r in load_trace(path) if r["type"] == "span"]
        by_id = {s["span_id"]: s for s in spans}
        # The in-process schedule search: its rings hang off its root.
        rings = [s for s in spans if s["name"] == "dse.ring"]
        assert rings
        for ring in rings:
            assert by_id[ring["parent_id"]]["name"] == "dse.explore_schedule"

    def test_cache_events_reach_the_trace(self, matmul4, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        with trace_session(tmp_path / "cold.jsonl"):
            cold = explore_schedule(matmul4, SPACE_51, cache=cache)
        with trace_session(tmp_path / "warm.jsonl"):
            warm = explore_schedule(matmul4, SPACE_51, cache=cache)
        assert warm == cold
        cold_events = [
            r["name"] for r in load_trace(tmp_path / "cold.jsonl")
            if r["type"] == "event"
        ]
        warm_events = [
            r["name"] for r in load_trace(tmp_path / "warm.jsonl")
            if r["type"] == "event"
        ]
        assert "cache.miss" in cold_events
        assert "cache.hit" in warm_events

    def test_untraced_run_unchanged(self, matmul4):
        # The disabled path: no tracer configured, result still equal
        # and wall_time still populated (spans time themselves).
        result = explore_schedule(matmul4, SPACE_51)
        assert result == procedure_5_1(matmul4, SPACE_51)
        assert result.stats.wall_time > 0.0
        assert all(w > 0.0 for w in result.stats.shard_wall_times)


class TestTracedJointSearch:
    def test_one_ring_span_per_shared_ring(self, matmul4, tmp_path):
        # Problem 6.2 runs one stacked Procedure 5.1 over its 13 S: one
        # core.ring span (and one mask) per shared group of rings, 5
        # groups over rings 0-6, where a search per S would open 64 rings.
        singles = [
            procedure_5_1(matmul4, space)
            for space in enumerate_space_mappings(matmul4.n, 1)
        ]
        assert sum(r.rings_expanded + 1 for r in singles) == 64
        path = tmp_path / "j.jsonl"
        with trace_session(path):
            solve_joint_optimal(matmul4)
        spans = [r for r in load_trace(path) if r["type"] == "span"]
        names = [s["name"] for s in spans]
        rings = [s["attrs"] for s in spans if s["name"] == "core.ring"]
        assert max(r.rings_expanded for r in singles) == 6
        assert [(ring["ring"], ring["rings"]) for ring in rings] == [
            (0, 1), (1, 1), (2, 2), (4, 2), (6, 3)
        ]
        assert names.count("ring.mask") == len(rings)
        assert names.count("core.procedure_5_1") == 1
        assert rings[0]["spaces_open"] == len(singles) == 13
        for ring, later in zip(rings, rings[1:]):
            assert later["spaces_open"] == ring["spaces_open"] - ring["retired"]
        assert sum(ring["retired"] for ring in rings) == 13
        assert all("winner" not in ring for ring in rings)

    def test_one_space_ring_spans_carry_the_winner(self, matmul4, tmp_path):
        path = tmp_path / "p.jsonl"
        with trace_session(path):
            result = procedure_5_1(matmul4, SPACE_51)
        rings = [
            r["attrs"] for r in load_trace(path)
            if r["type"] == "span" and r["name"] == "core.ring"
        ]
        assert all("spaces_open" not in ring for ring in rings)
        assert rings[-1]["winner"] == list(result.schedule.pi)


class TestTracedSpaceSearch:
    def test_traced_space_search_writes_root_span(self, matmul4, tmp_path):
        path = tmp_path / "s.jsonl"
        with trace_session(path):
            result = explore_space(matmul4, (1, 4, 1), jobs=2)
        spans = [r for r in load_trace(path) if r["type"] == "span"]
        [root] = [s for s in spans if s["name"] == "dse.explore_space"]
        assert root["duration"] == pytest.approx(
            result.stats.wall_time, rel=1e-9
        )
        assert any(s["name"] == "dse.shard" for s in spans)


class TestTracedSimulation:
    def test_simulation_phases_and_link_histogram(self, matmul4, tmp_path):
        t = MappingMatrix(space=SPACE_51, schedule=(1, 4, 1))
        path = tmp_path / "sim.jsonl"
        with trace_session(path):
            report = simulate_mapping(matmul4, t)
        assert report.ok
        records = load_trace(path)
        names = {r["name"] for r in records if r["type"] == "span"}
        assert {"systolic.simulate", "sim.place", "sim.route",
                "sim.fifo"} <= names
        [ev] = [
            r for r in records
            if r["type"] == "event" and r["name"] == "sim.link_utilization"
        ]
        assert ev["attrs"]["links"] > 0
        assert ev["attrs"]["max_tokens_per_link"] >= 1

    def test_procedure_5_1_root_span_is_wall_time(self, matmul4, tmp_path):
        path = tmp_path / "p.jsonl"
        with trace_session(path):
            result = procedure_5_1(matmul4, SPACE_51)
        spans = [r for r in load_trace(path) if r["type"] == "span"]
        [root] = [s for s in spans if s["name"] == "core.procedure_5_1"]
        assert root["duration"] == pytest.approx(
            result.stats.wall_time, rel=1e-9
        )
        assert any(s["name"] == "core.ring" for s in spans)


class TestRingSubPhases:
    """Each ring splits into materialize / mask / screen child spans."""

    PHASES = ("ring.materialize", "ring.mask", "ring.screen")

    def _children_by_parent(self, spans, parent_name):
        parents = {s["span_id"]: s for s in spans if s["name"] == parent_name}
        children: dict[int, list[dict]] = {sid: [] for sid in parents}
        for s in spans:
            if s["parent_id"] in parents:
                children[s["parent_id"]].append(s)
        return parents, children

    def test_report_prints_split_of_traced_procedure_5_1(
        self, matmul4, tmp_path, capsys
    ):
        from repro.cli import main

        path = tmp_path / "p.jsonl"
        with trace_session(path):
            procedure_5_1(matmul4, SPACE_51)
        spans = [r for r in load_trace(path) if r["type"] == "span"]
        rings, children = self._children_by_parent(spans, "core.ring")
        assert rings
        for ring_id, ring in rings.items():
            kids = children[ring_id]
            # One span per phase per ring, never per candidate.
            assert sorted(s["name"] for s in kids) == sorted(self.PHASES)
            assert sum(s["duration"] for s in kids) <= ring["duration"]
        assert main(["obs", "report", str(path)]) == 0
        out = capsys.readouterr().out
        for phase in self.PHASES:
            line = next(ln for ln in out.splitlines() if ln.startswith(phase))
            assert int(line.split()[1]) == len(rings)

    def test_engine_ring_spans_carry_the_split(self, matmul4, tmp_path):
        path = tmp_path / "e.jsonl"
        with trace_session(path):
            explore_schedule(matmul4, SPACE_51)
        spans = [r for r in load_trace(path) if r["type"] == "span"]
        rings, children = self._children_by_parent(spans, "dse.ring")
        assert rings
        for ring_id, ring in rings.items():
            kids = children[ring_id]
            assert sorted(s["name"] for s in kids) == sorted(self.PHASES)
            assert sum(s["duration"] for s in kids) <= ring["duration"]
