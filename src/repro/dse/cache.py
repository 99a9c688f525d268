"""Persistent result cache for design-space exploration queries.

A query is identified by a **canonical key**: the SHA-256 of a
canonical-JSON rendering (sorted keys, compact separators, no floats
except plain weights) of everything the answer depends on — the index
set ``J``, the dependence matrix ``D``, the space mapping ``S`` (or the
design-space bounds when ``S`` is being searched), the solver/method,
and the search bounds.  Renaming an algorithm does not change its key;
changing ``mu``, ``D``, the method, or any bound does.

Entries are stored one checksummed record file (:mod:`repro.dse.records`)
per key under a cache directory (``$REPRO_DSE_CACHE_DIR``, else
``~/.cache/repro-dse``).  Writes go through a temp file +
:func:`os.replace`, so concurrent processes never observe a torn entry;
corruption that still parses as JSON is quarantined instead of served.
What is stored is the *decision* of the search
(the winning schedule vector, the ranked design list, the deterministic
counters) — never derived objects like verdicts or cost structures,
which the engine re-derives exactly on a hit.  That keeps entries tiny,
version-tolerant, and guarantees a warm result is equal to a cold one.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import time
from pathlib import Path

from ..intlin.intmat import IntMat
from ..obs.tracer import get_tracer
from . import records

logger = logging.getLogger("repro.dse.cache")

__all__ = ["ResultCache", "canonical_key", "default_cache_dir"]

# Bump when the stored-entry layout or the key canonicalization changes;
# entries of any other version are then inert misses, overwritten by the
# next put.  Only this version is read: v5 schedule keys have the same
# shape as v3 ones, and the bump keeps v3 entries from answering them.
# v6: the checksum covers the whole entry (records.encode_record), not
# only its value.
CACHE_SCHEMA_VERSION = 6


def default_cache_dir() -> Path:
    """``$REPRO_DSE_CACHE_DIR`` if set, else ``~/.cache/repro-dse``."""
    env = os.environ.get("REPRO_DSE_CACHE_DIR")
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro-dse"


def canonical_key(payload: dict) -> str:
    """SHA-256 hex digest of the canonical JSON form of ``payload``.

    The payload must be JSON-serializable; lists/tuples of ints are the
    expected currency.  :class:`~repro.intlin.IntMat` components are
    rendered as their cached content digest (shape + entries), so keying
    on a matrix costs one hash of an immutable value instead of
    re-serializing rows.  Key order and whitespace never influence the
    digest.
    """
    blob = json.dumps(_canonicalize(payload), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _canonicalize(obj):
    # IntMat first: it is a tuple subclass, so json.dumps would happily
    # re-serialize its rows without ever consulting the default hook.
    if isinstance(obj, IntMat):
        return {"intmat": obj.digest()}
    if isinstance(obj, dict):
        return {k: _canonicalize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_canonicalize(x) for x in obj]
    return obj


class ResultCache:
    """On-disk JSON store mapping canonical keys to search decisions.

    Parameters
    ----------
    cache_dir:
        Directory for entries; created lazily on first write.  ``None``
        uses :func:`default_cache_dir`.
    enabled:
        A disabled cache never reads or writes but still counts lookups
        as misses, so callers need no branching.
    """

    def __init__(self, cache_dir: str | os.PathLike | None = None,
                 *, enabled: bool = True) -> None:
        self.cache_dir = Path(cache_dir) if cache_dir is not None else default_cache_dir()
        self.enabled = enabled
        self.hits = 0
        self.misses = 0
        self.quarantined = 0
        # Opening the cache reclaims temp files leaked by writers that
        # crashed mid-put; recent ones may belong to a live writer and
        # are left alone (sweep_temp's default age threshold).
        self.swept = self.sweep_temp() if enabled else 0
        if self.swept:
            tracer = get_tracer()
            tracer.event("cache.sweep", removed=self.swept)
            tracer.add("cache.swept", self.swept)
            logger.info("swept %d stale writer temp file(s)", self.swept)

    # -- lookup ----------------------------------------------------------

    def _path(self, key: str) -> Path:
        return self.cache_dir / f"{key}.json"

    def get(self, key: str) -> dict | None:
        """The stored entry for ``key``, or ``None`` (counted as a miss).

        A damaged entry — unparsable JSON, a non-object document, or one
        whose checksum is missing or no longer matches — is a miss too:
        the file is quarantined aside (renamed ``*.json.corrupt``) so
        the search re-runs and overwrites it, instead of crashing on (or
        silently trusting) a truncated, bit-rotted, or hand-edited file.
        A JSON object of any other schema version is an ordinary miss
        (version skew, not damage).
        """
        if self.enabled:
            path = self._path(key)
            entry = records.read_record(path, schema=CACHE_SCHEMA_VERSION)
            if entry is records.DAMAGED:
                self.quarantined += 1
                tracer = get_tracer()
                tracer.event("cache.quarantine", path=path.name)
                tracer.add("cache.quarantined")
                logger.warning("quarantined malformed cache entry: %s", path)
            elif entry is not None:
                self.hits += 1
                tracer = get_tracer()
                tracer.event("cache.hit", key=key)
                tracer.add("cache.hits")
                logger.debug("cache hit: %s", key)
                return entry["value"]
        self.misses += 1
        tracer = get_tracer()
        tracer.event("cache.miss", key=key)
        tracer.add("cache.misses")
        logger.debug("cache miss: %s", key)
        return None

    def put(self, key: str, value: dict) -> None:
        """Store ``value`` under ``key`` atomically (no-op when disabled)."""
        if not self.enabled:
            return
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        records.write_atomic(
            self._path(key),
            records.encode_record({"schema": CACHE_SCHEMA_VERSION, "value": value}),
        )

    # -- maintenance -----------------------------------------------------

    def _entry_paths(self):
        """Real entry files only — writer temp files (``.tmp-*.json``,
        left behind if a writer crashes between ``mkstemp`` and
        ``os.replace``) are dotfiles and must never count as entries,
        even though :meth:`Path.glob` happily matches them."""
        if not self.cache_dir.is_dir():
            return
        for path in self.cache_dir.glob("*.json"):
            if not path.name.startswith("."):
                yield path

    def clear(self) -> int:
        """Delete every entry; returns how many entries were removed.

        Leftover writer temp files and quarantined ``*.json.corrupt``
        files are swept as well (not counted — they were never
        entries).
        """
        removed = 0
        for path in self._entry_paths():
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        self.sweep_temp(max_age_seconds=0.0)
        if self.cache_dir.is_dir():
            for path in self.cache_dir.glob("*.json.corrupt"):
                try:
                    path.unlink()
                except OSError:  # pragma: no cover - raced deletion
                    pass
        return removed

    def sweep_temp(self, max_age_seconds: float = 3600.0) -> int:
        """Delete stale writer temp files; returns how many were removed.

        A temp file only outlives its ``put`` if the writing process
        died between creating it and the atomic rename, so anything
        older than ``max_age_seconds`` is garbage from a crashed
        writer.  Newer files are left alone — they may belong to a
        concurrent live writer.
        """
        removed = 0
        if not self.cache_dir.is_dir():
            return 0
        cutoff = time.time() - max_age_seconds
        for path in self.cache_dir.glob(".tmp-*.json"):
            try:
                if path.stat().st_mtime <= cutoff:
                    path.unlink()
                    removed += 1
            except OSError:  # pragma: no cover - raced deletion
                pass
        return removed

    def stats(self) -> dict:
        """Operator-facing snapshot: this instance's counters plus the
        directory's on-disk state (entry/corrupt/temp counts, bytes).

        Hit/miss/quarantine/sweep counters are per-instance — a long-
        lived holder (the :mod:`repro.serve` server) accumulates them
        across requests; a fresh CLI instance reports the disk state
        plus whatever its own opening swept.
        """
        entries = corrupt = temp = 0
        disk_bytes = 0
        if self.cache_dir.is_dir():
            for path in self.cache_dir.iterdir():
                try:
                    size = path.stat().st_size
                except OSError:  # pragma: no cover - raced deletion
                    continue
                name = path.name
                if name.endswith(".json.corrupt"):
                    corrupt += 1
                elif name.startswith(".tmp-") and name.endswith(".json"):
                    temp += 1
                elif name.endswith(".json") and not name.startswith("."):
                    entries += 1
                else:
                    continue
                disk_bytes += size
        return {
            "dir": str(self.cache_dir),
            "enabled": self.enabled,
            "schema": CACHE_SCHEMA_VERSION,
            "hits": self.hits,
            "misses": self.misses,
            "quarantined": self.quarantined,
            "swept": self.swept,
            "entries": entries,
            "corrupt_files": corrupt,
            "temp_files": temp,
            "disk_bytes": disk_bytes,
        }

    def __len__(self) -> int:
        return sum(1 for _ in self._entry_paths())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "on" if self.enabled else "off"
        return (
            f"ResultCache({str(self.cache_dir)!r}, {state}, "
            f"hits={self.hits}, misses={self.misses}, "
            f"quarantined={self.quarantined}, swept={self.swept})"
        )
