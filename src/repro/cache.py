"""Artifact cache shared by experiments and reporting.

Besides the cache root, this module provides content-addressed JSON
caching for individual experiment cells: :func:`content_key` hashes an
arbitrary JSON-serializable description of the work (model, format,
bits, profile, code salt) and :func:`store_cached_json` /
:func:`load_cached_json` persist results under that key.  Writes are
atomic (temp file + rename) so concurrent workers — the parallel sweep
runner — can share one cache directory safely.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import tempfile
from typing import Any, Optional

__all__ = ["cache_dir", "content_key", "cell_cache_path",
           "load_cached_json", "store_cached_json", "write_json_atomic"]


def cache_dir() -> pathlib.Path:
    """Artifact cache root (override with ``REPRO_CACHE_DIR``).

    Holds trained-model checkpoints and experiment result JSONs.
    """
    root = pathlib.Path(os.environ.get("REPRO_CACHE_DIR", "artifacts"))
    root.mkdir(parents=True, exist_ok=True)
    return root


def content_key(payload: Any) -> str:
    """A stable sha256 hex digest of a JSON-serializable payload.

    Keys are insensitive to dict ordering (``sort_keys``) and to
    int/float formatting quirks only insofar as ``json`` canonicalizes
    them; anything non-serializable is a ``TypeError`` — cache keys must
    be explicit.
    """
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def cell_cache_path(namespace: str, key: str) -> pathlib.Path:
    """Path of a cached cell result (file may or may not exist)."""
    safe_ns = namespace.replace(os.sep, "_")
    return cache_dir() / "cells" / safe_ns / f"{key}.json"


def load_cached_json(namespace: str, key: str) -> Optional[Any]:
    """Return the cached value for ``key``, or ``None`` on miss/corruption."""
    path = cell_cache_path(namespace, key)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


def store_cached_json(namespace: str, key: str, value: Any) -> pathlib.Path:
    """Atomically persist ``value`` under ``key``; returns the path.

    Non-JSON-serializable payloads raise ``TypeError`` (mirroring
    :func:`content_key`) rather than being silently stringified into a
    poisoned cell that every later warm run would faithfully replay.
    """
    path = cell_cache_path(namespace, key)
    path.parent.mkdir(parents=True, exist_ok=True)
    return write_json_atomic(path, value, sort_keys=True)


def write_json_atomic(path: pathlib.Path, value: Any,
                      **dump_kwargs: Any) -> pathlib.Path:
    """Write ``value`` as indented JSON to ``path`` via a temp file.

    The temp-file + ``os.replace`` dance means a concurrent reader sees
    either nothing or a complete JSON document, and concurrent writers
    leave one of their documents whole, never an interleaving.
    """
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(value, fh, indent=2, **dump_kwargs)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return path
