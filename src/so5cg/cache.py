"""Content-addressed on-disk cache for computed coefficient tables.

The cache directory comes from the SO5CG_CACHE environment variable; when it
is unset the cache is disabled and every lookup misses. Keys hash a
fingerprint of the package's own source files together with the request, so
any change to the engine's sources changes every key and stale entries are
never replayed. Payloads round-trip bit-exactly through the exact
number JSON encoding, which keeps cache hits byte-identical to cold runs.
Each entry carries a sha256 of its payload; an entry that is unreadable, has
another schema or key, or whose payload does not hash to that digest is a
miss, so any changed byte of a payload is recomputed rather than printed.
Each writer goes through its own temporary file, so concurrent writers of
one key never see each other's partial files.

The cache is not an authentication boundary: the digest detects corruption,
not tampering, and an entry whose digest matches is trusted as this engine's
own output.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from datetime import datetime, timezone
from functools import lru_cache
from pathlib import Path
from typing import Optional

SCHEMA = "so5cg/1"


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


def _digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load(key: str) -> Optional[dict]:
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
    if (isinstance(entry, dict) and entry.get("schema") == SCHEMA
            and entry.get("key") == key
            and entry.get("sha256") == _digest(entry.get("payload"))):
        return entry["payload"]
    return None


def store(key: str, payload: dict) -> None:
    root = cache_dir()
    if root is None:
        return
    root.mkdir(parents=True, exist_ok=True)
    entry = {
        "schema": SCHEMA,
        "kind": "cache_entry",
        "key": key,
        "created_at": datetime.now(timezone.utc).isoformat(),
        "sha256": _digest(payload),
        "payload": payload,
    }
    fd, tmp = tempfile.mkstemp(prefix=f"{key}.", suffix=".tmp", dir=root)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(entry, fh, sort_keys=True)
        os.replace(tmp, root / f"{key}.json")
    except BaseException:
        os.unlink(tmp)
        raise
