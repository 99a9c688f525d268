"""The checksummed record format of every file the engine and the service
trust: cache entries, checkpoint journals, job records, job event logs
and poison-registry entries.

A record is a JSON object, its *body*, stored with the SHA-256 of the
body's canonical JSON (sorted keys, compact separators), so a torn
write, bit rot or a hand edit reads as damage, never as another value.
A **record line** ``{"crc": ..., "rec": <body>}`` is the unit of the
append-only files (journals, event logs); a **record file** holds one
body's own fields with ``"crc"`` beside them.  Stdlib only.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import BinaryIO

#: :func:`read_record`'s answer for a file that exists but does not
#: verify (after it was moved aside).
DAMAGED = object()


class UnsyncedWrite(OSError):
    """Writing or fsyncing a record's temp file failed: how much of it
    reached the disk is unknown.  The file it was to replace is intact."""


def _digest(body: dict) -> tuple[str, str]:
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return canonical, hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _verified(body, crc) -> dict | None:
    ok = isinstance(body, dict) and isinstance(crc, str) and _digest(body)[1] == crc
    return body if ok else None


def _loads(data: str | bytes):
    try:
        return json.loads(data)
    except ValueError:  # JSONDecodeError, UnicodeDecodeError
        return None


def encode_line(body: dict) -> str:
    """One record line, newline included.  Assembled by hand (``"crc"``
    sorts before ``"rec"`` and the body is already canonical), so the
    body is serialized once on the journal's per-shard append path."""
    canonical, crc = _digest(body)
    return f'{{"crc":"{crc}","rec":{canonical}}}\n'


def decode_line(line: str | bytes) -> dict | None:
    """The verified body of one record line, or ``None``."""
    doc = _loads(line)
    return _verified(doc.get("rec"), doc.get("crc")) if isinstance(doc, dict) else None


def decode_lines(data: bytes) -> tuple[list[dict], int]:
    """The bodies of ``data``'s lines before the first unterminated or
    failing one, and the byte length of that good prefix.  With appends
    flushed in order only the tail can be torn, so the rest is dropped."""
    bodies: list[dict] = []
    good = 0
    while (end := data.find(b"\n", good)) != -1:
        body = decode_line(data[good:end + 1])
        if body is None:
            break
        bodies.append(body)
        good = end + 1
    return bodies, good


def append_line(fh: BinaryIO, body: dict, *, durable: bool = False) -> None:
    """Append one record line to ``fh`` and flush; ``durable`` fsyncs."""
    fh.write(encode_line(body).encode("utf-8"))
    fh.flush()
    if durable:
        os.fsync(fh.fileno())


def encode_record(body: dict) -> bytes:
    """A record file's bytes: ``"crc"`` spliced in front of the canonical
    body, serialized once (a body field named ``crc`` is reserved)."""
    canonical, crc = _digest(body)
    return f'{{"crc":"{crc}"{"," if body else ""}{canonical[1:]}'.encode("utf-8")


def write_atomic(path: Path, data: bytes, *, durable: bool = False) -> None:
    """Replace ``path`` by ``data``: a ``.tmp-*`` file from ``mkstemp`` in
    the same directory, then :func:`os.replace`, so readers see the old
    file or the new one.  ``durable`` fsyncs the temp file before the
    rename.  A failed write or fsync raises :class:`UnsyncedWrite`."""
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".tmp-", suffix=path.suffix)
    try:
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(data)
                if durable:
                    fh.flush()
                    os.fsync(fh.fileno())
        except OSError as exc:
            raise UnsyncedWrite(exc.errno, exc.strerror) from exc
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def sync_dir(path: Path) -> None:
    """Best-effort fsync of a directory, so a rename in it is durable."""
    with contextlib.suppress(OSError):  # exotic filesystems
        fd = os.open(path, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)


def quarantine(path: Path, suffix: str = ".corrupt") -> bool:
    """Move ``path`` aside to ``path + suffix``; ``False`` if it is gone."""
    try:
        path.replace(path.with_name(path.name + suffix))
    except OSError:
        return False
    return True


def read_record(path: Path, *, schema: int | None = None):
    """The verified body of record file ``path``; ``None`` when there is
    none to read; :data:`DAMAGED` when the file does not parse or verify
    (no checksum included), after renaming it ``*.corrupt``.  With
    ``schema``, an object whose ``"schema"`` field differs is version
    skew, not damage: ``None``, the file left for the next write."""
    try:
        doc = _loads(path.read_bytes())
    except OSError:
        return None
    if schema is not None and isinstance(doc, dict) and doc.get("schema") != schema:
        return None
    body = _verified(doc, doc.pop("crc", None)) if isinstance(doc, dict) else None
    if body is None:
        return DAMAGED if quarantine(path) else None
    return body
