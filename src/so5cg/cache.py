"""Content-addressed on-disk cache for computed coefficient tables.

The cache directory comes from the SO5CG_CACHE environment variable; when it
is unset the cache is disabled and every lookup misses. Keys hash a
fingerprint of the package's own source files together with the request, so
any change to the engine's sources changes every key and stale entries are
never replayed. Payloads round-trip bit-exactly through the exact
number JSON encoding, which keeps cache hits byte-identical to cold runs.
An entry that is unreadable or whose payload does not match the expected
shape is a miss. Each writer goes through its own temporary file, so
concurrent writers of one key never see each other's partial files.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import dataclass
from datetime import datetime, timezone
from functools import lru_cache
from pathlib import Path
from typing import Optional

SCHEMA = "so5cg/1"


@dataclass(frozen=True)
class CacheEntry:
    key: str
    created_at: str
    payload: dict

    def to_json_dict(self) -> dict:
        return {
            "schema": SCHEMA,
            "kind": "cache_entry",
            "key": self.key,
            "created_at": self.created_at,
            "payload": self.payload,
        }


@lru_cache(maxsize=None)
def engine_fingerprint() -> str:
    """sha256 over every module of the package, in file name order."""
    h = hashlib.sha256()
    for path in sorted(Path(__file__).parent.glob("*.py")):
        h.update(path.name.encode("utf-8") + b"\0" + path.read_bytes())
    return h.hexdigest()


def cache_key(kind: str, *parts: str) -> str:
    material = "\x1f".join((engine_fingerprint(), kind) + parts)
    return hashlib.sha256(material.encode("utf-8")).hexdigest()


def cache_dir() -> Optional[Path]:
    root = os.environ.get("SO5CG_CACHE")
    if not root:
        return None
    return Path(root)


def _fits(value, shape) -> bool:
    """Whether a decoded JSON value has the given shape.

    A dict shape needs exactly its keys, each fitting its shape; a
    one-element list shape needs a list whose items all fit that element;
    a tuple lists alternatives; None needs None; a type needs an instance;
    any other callable needs to return True for the value.
    """
    if isinstance(shape, dict):
        return (isinstance(value, dict) and value.keys() == shape.keys()
                and all(_fits(value[k], s) for k, s in shape.items()))
    if isinstance(shape, list):
        return (isinstance(value, list)
                and all(_fits(item, shape[0]) for item in value))
    if isinstance(shape, tuple):
        return any(_fits(value, s) for s in shape)
    if shape is None:
        return value is None
    if isinstance(shape, type):
        return isinstance(value, shape)
    return shape(value)


def load(key: str, shape=dict) -> Optional[dict]:
    """The payload stored under key, or None on a miss or a corrupt entry."""
    root = cache_dir()
    if root is None:
        return None
    path = root / f"{key}.json"
    try:
        with path.open("r", encoding="utf-8") as fh:
            entry = json.load(fh)
    except (FileNotFoundError, ValueError):
        return None
    if (not isinstance(entry, dict) or entry.get("schema") != SCHEMA
            or entry.get("key") != key):
        return None
    payload = entry.get("payload")
    return payload if _fits(payload, shape) else None


def store(key: str, payload: dict) -> None:
    root = cache_dir()
    if root is None:
        return
    root.mkdir(parents=True, exist_ok=True)
    entry = CacheEntry(
        key=key,
        created_at=datetime.now(timezone.utc).isoformat(),
        payload=payload,
    )
    fd, tmp = tempfile.mkstemp(prefix=f"{key}.", suffix=".tmp", dir=root)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(entry.to_json_dict(), fh, sort_keys=True)
        os.replace(tmp, root / f"{key}.json")
    except BaseException:
        os.unlink(tmp)
        raise
