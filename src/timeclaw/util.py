"""Small deterministic helpers: canonical JSON, digests, seeded RNG, atomic
file rewrites."""

from __future__ import annotations

import hashlib
import json
import os
import random
from pathlib import Path
from typing import Any


def canonical_json(obj: Any) -> str:
    """Serialize with sorted keys and no whitespace so digests are stable."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


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
