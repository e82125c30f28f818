"""Small deterministic helpers: canonical JSON, digests, seeded RNG, UTF-8
input reads, atomic file rewrites, and append-only logs that survive a torn last record, each
written through one descriptor held from its first append to its owner's
``close()``.

``canonical_json`` and ``json_dumps`` each call one JSON encoder built at
import, where ``json.dumps`` builds a new one per call. Their text is
``json.dumps``'s; only a cyclic value fails otherwise (see ``_prebuilt``).
The store's memory JSON is written with ``json_dumps``. The writes still on
``json.dumps(indent=1)``, off the per-episode path, are the CLI summaries
(``run_summary.json``, ``infer_summary.json``, ``eval``'s scores),
``report``, ``replay``'s and ``lint``'s printed reports, ``simulate-dropout``
and ``RecordingGateway.save``."""

from __future__ import annotations

import hashlib
import json
import logging
import os
import random
import re
from json.encoder import c_make_encoder, encode_basestring, encode_basestring_ascii
from pathlib import Path
from typing import Any, BinaryIO, Callable, Iterator, Mapping, Optional, Sequence

from .errors import ContractError, LogError

logger = logging.getLogger(__name__)


def _prebuilt(encoder: json.JSONEncoder) -> Callable[[Any, int], Sequence[str]]:
    """The C encoder that ``encoder.encode`` builds on every call, built
    once: called as ``(obj, 0)``, it returns the chunks of
    ``encoder.encode(obj)``. It keeps no state between calls, so threads may
    share it. It skips the circular-reference check, so a cyclic value raises
    ``RecursionError`` instead of ``ValueError``; the engine encodes only
    trees. Without the C accelerator it calls ``encoder.encode``."""
    if c_make_encoder is None:
        return lambda obj, _level: (encoder.encode(obj),)
    escape = encode_basestring_ascii if encoder.ensure_ascii else encode_basestring
    return c_make_encoder(
        None, encoder.default, escape, None, encoder.key_separator, encoder.item_separator,
        encoder.sort_keys, encoder.skipkeys, encoder.allow_nan,
    )


_CANONICAL = _prebuilt(json.JSONEncoder(sort_keys=True, separators=(",", ":"), ensure_ascii=False))
_DUMPS = {sort_keys: _prebuilt(json.JSONEncoder(sort_keys=sort_keys)) for sort_keys in (False, True)}


def canonical_json(obj: Any) -> str:
    """Serialize with sorted keys and no whitespace so digests are stable."""
    return "".join(_CANONICAL(obj, 0))


def json_dumps(obj: Any, sort_keys: bool = False) -> str:
    """``json.dumps(obj, sort_keys=sort_keys)``, from a prebuilt encoder."""
    return "".join(_DUMPS[sort_keys](obj, 0))


def splice_json(encoded: Mapping[str, str]) -> str:
    """The canonical JSON of an object whose values are given already
    encoded: ``splice_json({k: canonical_json(v)})`` equals
    ``canonical_json({k: v})`` for string keys, so one encoding of a value
    can be spliced into several objects."""
    return "{" + ",".join([f"{encode_basestring(key)}:{encoded[key]}" for key in sorted(encoded)]) + "}"


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


def read_text(path: Path) -> str:
    """The text of the input file at ``path``, decoded as UTF-8 whatever the
    locale; :class:`ContractError` naming the file when it is not UTF-8."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError:
        raise ContractError(f"{path} is not UTF-8 text") from None


def read_lines(path: Path) -> list[str]:
    """The lines of the UTF-8 input file at ``path``. Only "\\n" ends a line:
    ``str.splitlines`` also splits at the U+2028 and U+0085 that
    ``canonical_json`` writes raw inside strings."""
    return read_text(path).split("\n")


def parse_json(text: str, source: Any) -> Any:
    """``json.loads(text)``; :class:`ContractError` naming ``source`` for text
    that does not parse."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # also an int or a nesting past its limit
        raise ContractError(f"{source}: not JSON: {exc}") from None


def read_json(path: Path) -> Any:
    """The JSON value of the UTF-8 input file at ``path``."""
    return parse_json(read_text(path), path)


def write_atomic(path: Path, text: str) -> None:
    """Replace ``path`` with ``text`` through a temp file and ``os.replace``, so
    a reader or a killed process finds the old file or the new one, never a
    truncated one. No fsync: this covers a crashed process, not a power cut."""
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        tmp.write_text(text, encoding="utf-8")
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
    yield from _frame(path.read_bytes() if path.exists() else b"", parse, path, lambda: 0)


def _frame(
    data: bytes, parse: Callable[[bytes, int], tuple[Any, int]], path: Path, lines_before: Callable[[], int]
) -> Iterator[tuple[Any, int]]:
    """:func:`iter_records` over ``data``, the bytes of ``path`` from some
    line start to its end; ``lines_before()`` counts the lines before them,
    and is called only to name a line in a warning or an error."""
    pos = 0
    while pos < len(data):
        try:
            record, pos_after = parse(data, pos)
        except (TornRecord, ValueError, KeyError, TypeError, AttributeError, RecursionError) as exc:
            line = lines_before() + data.count(b"\n", 0, pos) + 1
            if isinstance(exc, TornRecord) or data.find(b"\n", pos) in (-1, len(data) - 1):
                logger.warning("%s: line %d: dropped a torn last record", path, line)
                break
            raise LogError(f"{path}: line {line}: bad record: {exc}") from exc
        yield record, pos_after
        pos = pos_after


_TAIL_WINDOW = 1 << 16  # the bytes read first from a log's tail; doubled until enough


def _last_line_end(fh: BinaryIO, size: int, line_start: re.Pattern[bytes]) -> int:
    """The offset after the last whole line of the file ``fh`` of ``size``
    bytes that ``line_start`` matches at its start; 0 when none does. The
    file is read from its tail, in windows that double until one holds that
    line or the whole file."""
    window = _TAIL_WINDOW
    while True:
        offset = max(size - window, 0)
        fh.seek(offset)
        # a newline before the file's first byte makes its first line one that starts after a newline
        data = fh.read() if offset else b"\n" + fh.read()
        base = offset if offset else -1
        term = data.rfind(b"\n")  # the end of the last whole line not yet looked at
        while term > 0:
            start = data.rfind(b"\n", 0, term) + 1
            if not start:
                break  # the line starts before the window
            if line_start.match(data, start):
                return base + term + 1
            term = start - 1
        if not offset:
            return 0
        window *= 2


def records_end(path: Path, parse: Callable[[bytes, int], tuple[Any, int]], last_line: re.Pattern[bytes]) -> int:
    """Where the last whole record of the log at ``path`` ends (0 when it is
    absent), for a log whose records each end with a line that ``last_line``
    matches at its start. The file is read from its tail back to its last
    whole such line, and only what follows that line is framed, as
    :func:`iter_records` frames a log: a torn last record is dropped with a
    warning, a bad record before it raises :class:`LogError`. The records
    before it are not read, so a bad one among them goes unseen here."""
    try:
        fh = path.open("rb")
    except FileNotFoundError:
        return 0
    with fh:
        end = _last_line_end(fh, fh.seek(0, os.SEEK_END), last_line)
        fh.seek(end)
        tail = fh.read()

        def lines_before() -> int:
            fh.seek(0)
            return fh.read(end).count(b"\n")

        framed = 0  # stays 0 unless ``last_line`` misses a record's last line, as in a log not written canonically
        for _record, framed in _frame(tail, parse, path, lines_before):
            pass
        return end + framed


def read_records(path: Path, parse: Callable[[bytes, int], tuple[Any, int]]) -> tuple[list[Any], int]:
    """The whole records of the log at ``path`` (see :func:`iter_records`) and
    the offset where the last of them ends."""
    records: list[Any] = []
    end = 0
    for record, end in iter_records(path, parse):
        records.append(record)
    return records, end


class AppendLog:
    """One append-only log, written through one descriptor that its first
    append opens with ``O_APPEND`` and :meth:`close` releases; making the
    object opens and creates nothing. ``end`` is where the log's last whole
    record ends. Each append first cuts off whatever follows ``end``, so no record
    lands after a torn one, then writes its record whole with ``os.write``:
    nothing is buffered in the process, so a reader, or what a killed
    process leaves, sees every record appended so far. One owner writes a
    log; it serializes its appends. An append after :meth:`close` opens the
    file again."""

    __slots__ = ("path", "end", "_fd")

    def __init__(self, path: Path, end: int = 0):
        self.path = path
        self.end = end
        self._fd: Optional[int] = None

    def append(self, record: bytes) -> None:
        fd = self._fd
        if fd is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            fd = self._fd = os.open(self.path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o666)
        if os.lseek(fd, 0, os.SEEK_END) != self.end:
            os.ftruncate(fd, self.end)
        view = memoryview(record)
        while view:
            view = view[os.write(fd, view):]
        self.end += len(record)

    def close(self) -> None:
        fd, self._fd = self._fd, None
        if fd is not None:
            os.close(fd)

    __del__ = close  # a log its owner never closed releases its descriptor when collected
