"""Unit tests for the persistent result cache and its canonical keys."""

import json

import pytest

from repro.dse.cache import (
    CACHE_SCHEMA_VERSION,
    ResultCache,
    canonical_key,
    default_cache_dir,
)


class TestCanonicalKey:
    def test_key_order_does_not_matter(self):
        a = canonical_key({"mu": [4, 4, 4], "space": [[1, 1, -1]]})
        b = canonical_key({"space": [[1, 1, -1]], "mu": [4, 4, 4]})
        assert a == b

    def test_tuples_and_lists_coincide(self):
        assert canonical_key({"s": ((1, 2), (3, 4))}) == canonical_key(
            {"s": [[1, 2], [3, 4]]}
        )

    def test_any_component_change_changes_the_key(self):
        base = {
            "task": "procedure-5.1",
            "mu": [4, 4, 4],
            "dependence": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
            "space": [[1, 1, -1]],
            "method": "auto",
            "alpha": 4,
            "initial_bound": 12,
            "max_bound": 60,
        }
        reference = canonical_key(base)
        perturbed = [
            {**base, "mu": [4, 4, 5]},
            {**base, "dependence": [[1, 0, 0], [0, 1, 0], [0, 0, 2]]},
            {**base, "space": [[1, 1, 1]]},
            {**base, "method": "exact"},
            {**base, "alpha": 5},
            {**base, "initial_bound": 13},
            {**base, "max_bound": 61},
            {**base, "task": "joint-optimal"},
        ]
        keys = {canonical_key(p) for p in perturbed}
        assert reference not in keys
        assert len(keys) == len(perturbed)

    def test_unserializable_component_is_rejected(self):
        with pytest.raises(TypeError):
            canonical_key({"cb": object()})


class TestResultCache:
    def test_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = canonical_key({"q": 1})
        assert cache.get(key) is None
        cache.put(key, {"found": True, "pi": [1, 2, 3]})
        assert cache.get(key) == {"found": True, "pi": [1, 2, 3]}
        assert cache.hits == 1 and cache.misses == 1
        assert len(cache) == 1

    def test_schema_bump_invalidates(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = canonical_key({"q": 2})
        cache.put(key, {"found": False})
        path = tmp_path / f"{key}.json"
        entry = json.loads(path.read_text())
        entry["schema"] = CACHE_SCHEMA_VERSION + 1
        path.write_text(json.dumps(entry))
        assert cache.get(key) is None

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = canonical_key({"q": 3})
        cache.put(key, {"x": 1})
        (tmp_path / f"{key}.json").write_text("{not json")
        assert cache.get(key) is None
        assert cache.misses == 1

    def test_disabled_cache_never_stores(self, tmp_path):
        cache = ResultCache(tmp_path, enabled=False)
        key = canonical_key({"q": 4})
        cache.put(key, {"x": 1})
        assert cache.get(key) is None
        assert len(cache) == 0
        assert cache.misses == 1 and cache.hits == 0

    def test_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        for i in range(3):
            cache.put(canonical_key({"q": i}), {"i": i})
        assert len(cache) == 3
        assert cache.clear() == 3
        assert len(cache) == 0

    def test_default_dir_honors_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_DSE_CACHE_DIR", str(tmp_path / "envdir"))
        assert default_cache_dir() == tmp_path / "envdir"
        monkeypatch.delenv("REPRO_DSE_CACHE_DIR")
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
        assert default_cache_dir() == tmp_path / "xdg" / "repro-dse"


class TestMalformedEntries:
    """Malformed files are misses that get quarantined, never crashes."""

    def test_entry_without_value_is_miss_and_quarantined(self, tmp_path):
        # Regression: a truncated/hand-edited entry that still passes the
        # isinstance+schema guard used to raise KeyError on entry["value"].
        cache = ResultCache(tmp_path)
        key = canonical_key({"q": 10})
        (tmp_path / f"{key}.json").write_text(
            json.dumps({"schema": CACHE_SCHEMA_VERSION})
        )
        assert cache.get(key) is None
        assert cache.misses == 1 and cache.hits == 0
        assert cache.quarantined == 1
        assert not (tmp_path / f"{key}.json").exists()
        assert (tmp_path / f"{key}.json.corrupt").exists()

    def test_non_object_document_is_quarantined(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = canonical_key({"q": 11})
        (tmp_path / f"{key}.json").write_text("[1, 2, 3]")
        assert cache.get(key) is None
        assert cache.quarantined == 1

    def test_unparsable_json_is_quarantined(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = canonical_key({"q": 12})
        (tmp_path / f"{key}.json").write_text("{truncated")
        assert cache.get(key) is None
        assert cache.quarantined == 1
        assert len(cache) == 0  # the quarantined file is no longer an entry

    def test_schema_skew_is_a_plain_miss_not_damage(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = canonical_key({"q": 13})
        path = tmp_path / f"{key}.json"
        path.write_text(
            json.dumps({"schema": CACHE_SCHEMA_VERSION + 1, "value": {"x": 1}})
        )
        assert cache.get(key) is None
        assert cache.quarantined == 0
        assert path.exists()

    def test_quarantined_key_can_be_repopulated(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = canonical_key({"q": 14})
        (tmp_path / f"{key}.json").write_text("garbage")
        assert cache.get(key) is None
        cache.put(key, {"fresh": True})
        assert cache.get(key) == {"fresh": True}


class TestContentChecksum:
    """Entries carry a checksum; bit-rot that parses is still caught."""

    def test_entries_are_written_with_checksum(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = canonical_key({"q": 30})
        cache.put(key, {"found": True, "pi": [1, 2, 3]})
        entry = json.loads((tmp_path / f"{key}.json").read_text())
        assert entry["schema"] == CACHE_SCHEMA_VERSION
        assert isinstance(entry["crc"], str) and len(entry["crc"]) == 64

    def test_tampered_value_is_quarantined(self, tmp_path):
        # The dangerous case: valid JSON, right schema, wrong content.
        cache = ResultCache(tmp_path)
        key = canonical_key({"q": 31})
        cache.put(key, {"found": True, "pi": [1, 2, 3]})
        path = tmp_path / f"{key}.json"
        entry = json.loads(path.read_text())
        entry["value"]["pi"] = [9, 9, 9]
        path.write_text(json.dumps(entry))
        assert cache.get(key) is None
        assert cache.quarantined == 1
        assert (tmp_path / f"{key}.json.corrupt").exists()

    def test_missing_crc_on_v3_entry_is_quarantined(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = canonical_key({"q": 32})
        (tmp_path / f"{key}.json").write_text(
            json.dumps({"schema": CACHE_SCHEMA_VERSION, "value": {"x": 1}})
        )
        assert cache.get(key) is None
        assert cache.quarantined == 1

    @pytest.mark.parametrize("schema", [2, 3, 4, 5])
    def test_older_schema_entries_are_plain_misses(self, tmp_path, schema):
        # Only the current schema is read.  v3 schedule keys coincide
        # with v5 ones (both lack the removed pruning switches), so a v3
        # entry must miss rather than answer, and is not damage either.
        cache = ResultCache(tmp_path)
        key = canonical_key({"q": 33})
        value = {"found": False, "pi": None}
        path = tmp_path / f"{key}.json"
        path.write_text(json.dumps({"schema": schema, "value": value}))
        assert cache.get(key) is None
        assert cache.hits == 0 and cache.quarantined == 0
        cache.put(key, value)
        assert cache.get(key) == value

    def test_checksum_survives_key_reordering(self, tmp_path):
        # sort_keys canonicalization: rewriting the file with different
        # key order (e.g. a pretty-printer) must not look like damage.
        cache = ResultCache(tmp_path)
        key = canonical_key({"q": 34})
        cache.put(key, {"a": 1, "b": [2, 3]})
        path = tmp_path / f"{key}.json"
        entry = json.loads(path.read_text())
        reordered = {"value": {"b": entry["value"]["b"], "a": 1},
                     "crc": entry["crc"], "schema": entry["schema"]}
        path.write_text(json.dumps(reordered, indent=2))
        assert cache.get(key) == {"a": 1, "b": [2, 3]}
        assert cache.quarantined == 0


class TestAutoSweep:
    """Opening a cache reclaims temp files leaked by crashed writers."""

    def test_open_sweeps_stale_temp_files(self, tmp_path):
        import os as _os
        import time as _time

        old = tmp_path / ".tmp-dead.json"
        old.write_text("{}")
        stale = _time.time() - 7200
        _os.utime(old, (stale, stale))
        cache = ResultCache(tmp_path)
        assert cache.swept == 1
        assert not old.exists()

    def test_open_leaves_fresh_temp_files(self, tmp_path):
        young = tmp_path / ".tmp-live.json"
        young.write_text("{}")
        cache = ResultCache(tmp_path)
        assert cache.swept == 0
        assert young.exists()

    def test_disabled_cache_does_not_sweep(self, tmp_path):
        import os as _os
        import time as _time

        old = tmp_path / ".tmp-dead.json"
        old.write_text("{}")
        stale = _time.time() - 7200
        _os.utime(old, (stale, stale))
        cache = ResultCache(tmp_path, enabled=False)
        assert cache.swept == 0
        assert old.exists()


class TestTempFiles:
    """Crashed writers leak ``.tmp-*.json``; they must never read as entries."""

    def test_len_and_clear_ignore_temp_files(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(canonical_key({"q": 20}), {"x": 1})
        (tmp_path / ".tmp-dead.json").write_text("{}")
        assert len(cache) == 1
        assert cache.clear() == 1
        assert len(cache) == 0
        # clear() also sweeps the leaked temp file.
        assert not list(tmp_path.glob(".tmp-*.json"))

    def test_clear_sweeps_quarantined_files(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = canonical_key({"q": 21})
        (tmp_path / f"{key}.json").write_text("garbage")
        cache.get(key)
        assert list(tmp_path.glob("*.json.corrupt"))
        assert cache.clear() == 0
        assert not list(tmp_path.glob("*.json.corrupt"))

    def test_sweep_temp_respects_age(self, tmp_path):
        import os as _os
        import time as _time

        cache = ResultCache(tmp_path)
        old = tmp_path / ".tmp-old.json"
        young = tmp_path / ".tmp-young.json"
        old.write_text("{}")
        young.write_text("{}")
        stale = _time.time() - 7200
        _os.utime(old, (stale, stale))
        assert cache.sweep_temp(max_age_seconds=3600) == 1
        assert not old.exists() and young.exists()

    def test_sweep_temp_on_missing_dir(self, tmp_path):
        cache = ResultCache(tmp_path / "never-created")
        assert cache.sweep_temp() == 0


# -- concurrent access -------------------------------------------------------

_WRITER_SCRIPT = """
import sys, time
sys.path.insert(0, sys.argv[1])
from repro.dse.cache import ResultCache

cache = ResultCache(sys.argv[2])
key, tag, fill = sys.argv[3], sys.argv[4], int(sys.argv[5])
deadline = time.monotonic() + float(sys.argv[6])
writes = 0
while time.monotonic() < deadline:
    cache.put(key, {"who": tag, "seq": writes, "payload": [fill] * 200})
    writes += 1
print(writes)
"""

_READER_SCRIPT = """
import sys, time
sys.path.insert(0, sys.argv[1])
from repro.dse.cache import ResultCache

cache = ResultCache(sys.argv[2])
key = sys.argv[3]
deadline = time.monotonic() + float(sys.argv[4])
fills = {"a": 1, "b": 2}
reads = 0
while time.monotonic() < deadline:
    value = cache.get(key)
    if value is not None:
        assert value["who"] in fills, value
        assert value["payload"] == [fills[value["who"]]] * 200, "torn read"
    reads += 1
assert cache.quarantined == 0, f"reader quarantined {cache.quarantined}"
print(reads)
"""


class TestConcurrentAccess:
    """Two processes sharing one cache directory must never corrupt it.

    The atomic temp-file + ``os.replace`` protocol is the whole story:
    a reader sees either the old complete entry or the new complete
    entry, never a mixture, and therefore never quarantines a healthy
    file.  These tests drive real concurrent processes at it.
    """

    @staticmethod
    def _spawn(script, *argv):
        import subprocess
        import sys
        from pathlib import Path

        src = str(Path(__file__).resolve().parents[2] / "src")
        return subprocess.Popen(
            [sys.executable, "-c", script, src, *map(str, argv)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )

    def _finish(self, proc):
        out, err = proc.communicate(timeout=60)
        assert proc.returncode == 0, err
        return int(out.strip())

    def test_simultaneous_same_key_writers(self, tmp_path):
        key = canonical_key({"contended": True})
        w1 = self._spawn(_WRITER_SCRIPT, tmp_path, key, "a", 1, 1.0)
        w2 = self._spawn(_WRITER_SCRIPT, tmp_path, key, "b", 2, 1.0)
        writes = self._finish(w1) + self._finish(w2)
        assert writes > 2  # both actually overlapped in the window

        # Whoever won the last race, the surviving entry is complete
        # and internally consistent — and nothing got quarantined.
        cache = ResultCache(tmp_path)
        value = cache.get(key)
        assert value is not None
        assert value["payload"] == [{"a": 1, "b": 2}[value["who"]]] * 200
        assert cache.quarantined == 0
        assert not list(tmp_path.glob("*.json.corrupt"))

    def test_read_during_write(self, tmp_path):
        key = canonical_key({"streamed": True})
        writer = self._spawn(_WRITER_SCRIPT, tmp_path, key, "a", 1, 1.5)
        reader = self._spawn(_READER_SCRIPT, tmp_path, key, 1.5)
        writes = self._finish(writer)
        reads = self._finish(reader)
        assert writes > 0 and reads > 0
        assert not list(tmp_path.glob("*.json.corrupt"))

    def test_no_double_quarantine_of_corrupt_entry(self, tmp_path):
        # Two caches racing to quarantine the same damaged file must
        # produce exactly one .corrupt file and no crash.
        key = canonical_key({"damaged": True})
        (tmp_path / f"{key}.json").write_text("{not json")
        first = ResultCache(tmp_path)
        second = ResultCache(tmp_path)
        assert first.get(key) is None
        assert second.get(key) is None
        corpses = list(tmp_path.glob("*.json.corrupt"))
        assert len(corpses) == 1
        assert first.quarantined + second.quarantined == 1
