"""Schema validator and report renderer (repro.obs.schema / .report)."""

from __future__ import annotations

import json

import pytest

from repro.obs import (
    Tracer,
    format_report,
    phase_breakdown,
    load_trace,
    validate_lines,
    validate_record,
)


def _valid_span(**over):
    rec = {
        "type": "span", "name": "s", "span_id": 1, "parent_id": None,
        "start_unix": 1.0, "duration": 0.5, "pid": 42, "attrs": {},
    }
    rec.update(over)
    return rec


class TestValidateRecord:
    def test_valid_span_passes(self):
        assert validate_record(_valid_span()) == []

    def test_missing_field_reported(self):
        rec = _valid_span()
        del rec["duration"]
        assert any("duration" in p for p in validate_record(rec))

    def test_wrong_type_reported(self):
        assert any(
            "duration" in p
            for p in validate_record(_valid_span(duration="fast"))
        )

    def test_negative_duration_reported(self):
        assert any(
            "negative" in p
            for p in validate_record(_valid_span(duration=-1.0))
        )

    def test_unknown_type_reported(self):
        assert validate_record({"type": "mystery"}) == [
            "unknown record type 'mystery'"
        ]

    def test_non_object_reported(self):
        assert validate_record([1, 2]) != []

    def test_bool_is_not_a_number(self):
        assert any(
            "bool" in p
            for p in validate_record(
                {"type": "counter", "name": "c", "value": True}
            )
        )


class TestValidateLines:
    def _trace_lines(self):
        tracer = Tracer()
        with tracer.span("root"):
            pass
        return [
            json.dumps(r)
            for r in [tracer.meta_record(), *tracer.records()]
        ]

    def test_valid_stream(self):
        records, errors = validate_lines(self._trace_lines())
        assert errors == []
        assert records[0]["type"] == "meta"

    def test_must_start_with_meta(self):
        lines = self._trace_lines()[1:]
        _, errors = validate_lines(lines)
        assert any("meta" in e for e in errors)

    def test_dangling_parent_reported(self):
        lines = self._trace_lines()
        lines.append(json.dumps(_valid_span(span_id=99, parent_id=1234)))
        _, errors = validate_lines(lines)
        assert any("references no span" in e for e in errors)

    def test_bad_json_reported_with_line_number(self):
        lines = self._trace_lines() + ["{not json"]
        _, errors = validate_lines(lines)
        assert any(e.startswith(f"line {len(lines)}:") for e in errors)

    def test_load_trace_raises_on_invalid(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("{not json\n")
        with pytest.raises(ValueError, match="invalid trace"):
            load_trace(path)


class TestReport:
    def _records(self):
        return [
            {"type": "meta", "schema": 1, "service": "repro", "pid": 1,
             "created_unix": 0.0},
            _valid_span(name="search", span_id=1, duration=2.5),
            _valid_span(name="ring", span_id=2, parent_id=1, duration=1.5),
            _valid_span(name="ring", span_id=3, parent_id=1, start_unix=2.5,
                        duration=0.5),
            {"type": "event", "name": "cache.hit", "time_unix": 0.0,
             "span_id": 1, "pid": 1, "attrs": {}},
            {"type": "counter", "name": "cache.hits", "value": 1},
        ]

    def test_phase_breakdown_groups_and_sorts(self):
        phases = phase_breakdown(self._records())
        assert [p.name for p in phases] == ["search", "ring"]
        ring = phases[1]
        assert ring.count == 2
        assert ring.total == 2.0
        assert ring.max == 1.5
        assert ring.share == pytest.approx(0.8)  # 2.0s over a 2.5s wall

    def test_parallel_spans_share_wall_time_once(self):
        """Two overlapping shards: busy time adds up, the share does not."""
        records = [
            _valid_span(name="dse.designs", span_id=1, duration=0.063),
            _valid_span(name="dse.shard", span_id=2, parent_id=1,
                        start_unix=1.010, duration=0.042),
            _valid_span(name="dse.shard", span_id=3, parent_id=1,
                        start_unix=1.015, duration=0.042),
        ]
        shard = phase_breakdown(records)[0]
        assert shard.name == "dse.shard"
        assert shard.total == pytest.approx(0.084)
        assert shard.share == pytest.approx(0.047 / 0.063)
        assert all(p.share <= 1.0 for p in phase_breakdown(records))

    def test_wall_time_is_longest_root_span(self):
        phases = phase_breakdown(self._records())
        search = phases[0]
        assert search.share == pytest.approx(1.0)

    def test_format_report_renders_table_events_counters(self):
        text = format_report(self._records())
        assert "search" in text and "ring" in text
        assert "cache.hit: 1" in text
        assert "cache.hits: 1" in text
        assert "wall time" in text

    def test_top_limits_phases(self):
        text = format_report(self._records(), top=1)
        assert "search" in text
        # 'ring' appears only via the phase table, which was truncated.
        assert "\nring " not in text

    def test_empty_trace_reports_no_spans(self):
        text = format_report([self._records()[0]])
        assert "no spans recorded" in text
