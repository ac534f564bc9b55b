"""Content-addressed on-disk cache of exported documents.

The cache directory comes from the SO5CG_CACHE environment variable; when it
is unset the cache is disabled and every lookup misses. An entry holds the
text of one exported document (a table, decomposition or branching, in CSV
or JSON), so a hit prints exactly the bytes the cold run printed. Keys hash
the request and its format only, so each request has one entry file. The
entry records the engine that wrote it, a fingerprint of the package's own
source files: another engine's entry is a miss, and the store that follows
overwrites it in place, so a change to the engine's sources never replays a
stale entry and leaves no unread one behind. Each entry carries a sha256 of
the UTF-8 bytes of its text; an entry that cannot be opened or read (any
OSError, such as a directory or a permission-denied file at its path), is
not JSON, has another schema, key or engine, holds no text, or whose text
does not hash to that digest is a miss, so any changed byte is recomputed
rather than printed. A store that cannot write raises. Each writer goes
through its own temporary file, so concurrent writers of one key never see
each other's partial files. Entries get the mode a plain open() gives,
0o666 less the umask, so a cache directory shared between users is shared
by its entries too.

The cache is not an authentication boundary: the digest detects corruption,
not tampering, and an entry whose digest matches is trusted as this engine's
own output.

Importing the module loads neither hashlib (which brings in OpenSSL) nor
json: each function that hashes or parses imports them, so a process that
runs with the cache off never loads either.
"""

from __future__ import annotations

import os
from functools import lru_cache
from pathlib import Path
from typing import Optional

SCHEMA = "so5cg/1"


@lru_cache(maxsize=None)
def engine_fingerprint() -> str:
    """sha256 over every module of the package, in file name order."""
    import hashlib

    h = hashlib.sha256()
    for path in sorted(Path(__file__).parent.glob("*.py")):
        h.update(path.name.encode("utf-8") + b"\0" + path.read_bytes())
    return h.hexdigest()


def cache_key(kind: str, *parts: str) -> str:
    import hashlib

    material = "\x1f".join((kind,) + parts)
    return hashlib.sha256(material.encode("utf-8")).hexdigest()


def cache_dir() -> Optional[Path]:
    root = os.environ.get("SO5CG_CACHE")
    if not root:
        return None
    return Path(root)


def _digest(text: str) -> str:
    import hashlib

    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load(key: str) -> Optional[str]:
    """The text stored under key, or None on a miss or a corrupt entry."""
    import json

    root = cache_dir()
    if root is None:
        return None
    path = root / f"{key}.json"
    try:
        with path.open("r", encoding="utf-8") as fh:
            entry = json.load(fh)
        # A text with a lone surrogate does not encode: a ValueError too.
        if (isinstance(entry, dict) and isinstance(entry.get("payload"), str)
                and entry.get("schema") == SCHEMA and entry.get("key") == key
                and entry.get("engine") == engine_fingerprint()
                and entry.get("sha256") == _digest(entry["payload"])):
            return entry["payload"]
    except (OSError, ValueError):
        pass
    return None


def store(key: str, text: str) -> None:
    # Imported here: a process that only reads the cache never needs it.
    import json
    from datetime import datetime, timezone

    root = cache_dir()
    if root is None:
        return
    root.mkdir(parents=True, exist_ok=True)
    entry = {
        "schema": SCHEMA,
        "kind": "cache_entry",
        "key": key,
        "engine": engine_fingerprint(),
        "created_at": datetime.now(timezone.utc).isoformat(),
        "sha256": _digest(text),
        "payload": text,
    }
    # O_EXCL on a random name, as tempfile.mkstemp does, but with mode 0o666
    # for the umask to narrow where mkstemp would fix 0o600.
    tmp = root / f"{key}.{os.urandom(8).hex()}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(entry, fh, sort_keys=True)
        os.replace(tmp, root / f"{key}.json")
    except BaseException:
        os.unlink(tmp)
        raise
