"""Small deterministic helpers: canonical JSON, digests, seeded RNG, atomic
file rewrites, and append-only logs that survive a torn last record."""

from __future__ import annotations

import hashlib
import json
import logging
import os
import random
from pathlib import Path
from typing import Any, Callable, Iterator

from .errors import LogError

logger = logging.getLogger(__name__)


# built once: json.dumps with these options builds a new encoder per call;
# encode() keeps no state between calls, so threads may share it
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"), ensure_ascii=False)


def canonical_json(obj: Any) -> str:
    """Serialize with sorted keys and no whitespace so digests are stable."""
    return _CANONICAL.encode(obj)


def digest_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def digest_obj(obj: Any, n: int = 16) -> str:
    return digest_text(canonical_json(obj))[:n]


def stable_seed(*parts: Any) -> int:
    """Map arbitrary parts to a 64-bit seed, independent of PYTHONHASHSEED."""
    h = hashlib.sha256(canonical_json([str(p) for p in parts]).encode("utf-8"))
    return int.from_bytes(h.digest()[:8], "big")


def stable_rng(*parts: Any) -> random.Random:
    return random.Random(stable_seed(*parts))


def write_atomic(path: Path, text: str) -> None:
    """Replace ``path`` with ``text`` through a temp file and ``os.replace``, so
    a reader or a killed process finds the old file or the new one, never a
    truncated one. No fsync: this covers a crashed process, not a power cut."""
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


class TornRecord(Exception):
    """A log record runs past the end of the file: what an interrupted append
    leaves behind."""


def iter_records(path: Path, parse: Callable[[bytes, int], tuple[Any, int]]) -> Iterator[tuple[Any, int]]:
    """Each whole record of the append-only log at ``path`` (none when it is
    absent), with the offset where it ends, parsed as it is needed.

    ``parse(data, pos)`` returns the record that starts at ``pos`` and the
    offset after it, raising :class:`TornRecord` when it runs past the end of
    ``data``. Each record starts on a new line. A torn or bad record whose
    first line is the file's last is dropped with a warning; a bad record
    before it raises :class:`LogError` naming the file and the line.
    """
    data = path.read_bytes() if path.exists() else b""
    pos = 0
    while pos < len(data):
        try:
            record, pos_after = parse(data, pos)
        except (TornRecord, ValueError, KeyError, TypeError, AttributeError) as exc:
            line = data.count(b"\n", 0, pos) + 1
            if isinstance(exc, TornRecord) or data.find(b"\n", pos) in (-1, len(data) - 1):
                logger.warning("%s: line %d: dropped a torn last record", path, line)
                break
            raise LogError(f"{path}: line {line}: bad record: {exc}") from exc
        yield record, pos_after
        pos = pos_after


def read_records(path: Path, parse: Callable[[bytes, int], tuple[Any, int]]) -> tuple[list[Any], int]:
    """The whole records of the log at ``path`` (see :func:`iter_records`) and
    the offset where the last of them ends."""
    records: list[Any] = []
    end = 0
    for record, end in iter_records(path, parse):
        records.append(record)
    return records, end


def append_record(path: Path, end: int, record: bytes) -> int:
    """Append one record to the log whose whole records end at ``end``, first
    cutting off whatever follows them, so no record lands after a torn one.
    Returns the new end."""
    with path.open("ab") as fh:
        if fh.tell() != end:
            fh.truncate(end)
        fh.write(record)
    return end + len(record)
