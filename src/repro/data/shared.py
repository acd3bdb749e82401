"""Eval batches built once per task and shared read-only.

Every ``bundle.evaluate`` asks its task for the same fixed eval set; a
256-image set costs ~8 ms to sample, and a campaign evaluates dozens of
times per cell.  Each task therefore keeps the batch it built for a
``(count, seed_offset, seed)`` key and hands every caller that one
object, frozen so no caller can change it under another: its arrays are
read-only and its lists become tuples.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Dict, Hashable

import numpy as np

__all__ = ["shared_batch"]


def shared_batch(cache: Dict[Hashable, Any], key: Hashable,
                 build: Callable[[], Any]) -> Any:
    """``cache[key]``, built with ``build()`` and frozen on first use.

    Concurrent first calls may both build; every caller still gets the
    one batch that landed in ``cache``.
    """
    batch = cache.get(key)
    if batch is None:
        batch = cache.setdefault(key, _freeze(build()))
    return batch


def _freeze(batch: Any) -> Any:
    for field in dataclasses.fields(batch):
        value = getattr(batch, field.name)
        if isinstance(value, np.ndarray):
            value.flags.writeable = False
        elif isinstance(value, list):
            setattr(batch, field.name, tuple(
                tuple(item) if isinstance(item, list) else item
                for item in value))
    return batch
