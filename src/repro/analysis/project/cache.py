"""Content-addressed cache for per-module analysis results.

Entries are keyed by a sha256 digest, laid out as
``<dir>/<key[:2]>/<key>.json`` and published atomically via
``os.replace`` so concurrent lint runs can share one directory. The
digest covers the module *source bytes* plus an engine fingerprint
(cache format, summary schema, active rule ids), so editing a file,
upgrading the engine or toggling a rule each invalidate exactly the
affected entries — stale keys are simply never requested again.

One entry stores everything the engine needs to skip parsing a module:
its JSON summary (which feeds every project rule), the serialized
findings of the per-module rules, or the parse error if the file does
not compile.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Dict, Iterable, Optional

#: Bump to invalidate every cache entry on a cache-format change.
CACHE_FORMAT_VERSION = 1


def engine_fingerprint(schema_version: int, rule_ids: Iterable[str]) -> str:
    """The run configuration half of every cache key."""
    return f"v{CACHE_FORMAT_VERSION}:s{schema_version}:" + ",".join(
        sorted(rule_ids)
    )


class AnalysisCache:
    """Disk + in-memory cache of per-module analysis payloads."""

    def __init__(self, directory: Optional[Path], fingerprint: str):
        self.directory = Path(directory) if directory is not None else None
        self.fingerprint = fingerprint
        self._memory: Dict[str, dict] = {}
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------------
    def key_for(self, source: bytes) -> str:
        digest = hashlib.sha256()
        digest.update(self.fingerprint.encode("utf-8"))
        digest.update(b"\0")
        digest.update(source)
        return digest.hexdigest()

    def _path_for(self, key: str) -> Optional[Path]:
        if self.directory is None:
            return None
        return self.directory / key[:2] / f"{key}.json"

    # ------------------------------------------------------------------
    def get(self, key: str) -> Optional[dict]:
        payload = self._memory.get(key)
        if payload is None:
            path = self._path_for(key)
            if path is not None and path.is_file():
                try:
                    payload = json.loads(path.read_text(encoding="utf-8"))
                except (OSError, ValueError):
                    payload = None  # corrupt entry: treat as a miss
                if payload is not None:
                    self._memory[key] = payload
        if payload is None:
            self.misses += 1
            return None
        self.hits += 1
        return payload

    def put(self, key: str, payload: dict) -> None:
        self._memory[key] = payload
        path = self._path_for(key)
        if path is None:
            return
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            handle, tmp_name = tempfile.mkstemp(
                dir=str(path.parent), suffix=".tmp"
            )
            with os.fdopen(handle, "w", encoding="utf-8") as stream:
                json.dump(payload, stream)
            os.replace(tmp_name, path)
        except OSError:
            pass  # a read-only cache directory degrades to in-memory
