"""Format-generic bit-codec adapters: parameter dispatch and decode LUTs.

Every registry format exposes a bit-level codec, but the ``encode`` /
``decode`` signatures differ: AdaptivFloat takes its ``exp_bias``, BFP
its ``shared_exp``, uniform its ``scale`` (and optional ``zero_point``),
while IEEE-like float and posit take nothing.  :func:`encode_tensor` and
:func:`decode_tensor` give callers one calling convention keyed on the
format's adaptive-parameter dict — the convention the fault-injection
subsystem (:mod:`repro.resilience`) standardized on.

:func:`decode_lut` materializes the complete word -> value decode table
of a (format, bits, params) combination.  Two properties make this
well-defined:

* every codec's ``decode`` is **total** — all ``2**bits`` words decode
  to a value (possibly NaN/Inf for a corrupted float32 scale register),
  which is exactly the behaviour a datapath reading a flipped word
  exhibits;
* ``decode`` is **elementwise** — decoding a word inside ``arange(2**n)``
  yields bit-identically the same value as decoding it inside any other
  array.

:func:`decode_words` routes through the cached LUT when one exists
(word sizes up to :data:`MAX_DECODE_LUT_BITS`) and falls back to the
format's vectorized ``decode`` otherwise, so callers get the fast path
without caring whether a table fits in memory.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Dict, Optional, Tuple

import numpy as np

from .. import obs
from .base import Quantizer

__all__ = [
    "MAX_DECODE_LUT_BITS",
    "encode_tensor",
    "decode_tensor",
    "decode_lut",
    "decode_words",
    "decode_lut_cache_stats",
    "clear_decode_lut_cache",
]

#: Largest word size for which a full word -> value decode table is
#: materialized (a 16-bit table is 65536 float64s = 512 KiB; 2**17 and
#: above fall back to vectorized slice decode).
MAX_DECODE_LUT_BITS = 16

#: Bounded LRU over decode tables.  Register-fault sweeps that flip a
#: float32 ``scale`` walk through many parameter values; the bound keeps
#: a pathological sweep from accumulating tables without limit.
_LUT_CACHE_SIZE = 128

_LUT_CACHE: "OrderedDict[Tuple, np.ndarray]" = OrderedDict()
_LUT_HITS = 0
_LUT_MISSES = 0
#: Guards the LRU and its counters; tables are built outside it.
_LUT_LOCK = threading.Lock()


def encode_tensor(quantizer: Quantizer, values: np.ndarray,
                  params: Optional[Dict[str, Any]]) -> np.ndarray:
    """Dispatch to the format's ``encode`` with its adaptive parameters."""
    params = params or {}
    name = quantizer.name
    if name == "adaptivfloat":
        return quantizer.encode(values, params["exp_bias"])
    if name == "bfp":
        return quantizer.encode(values, params["shared_exp"])
    if name == "uniform":
        return quantizer.encode(values, params["scale"],
                                params.get("zero_point", 0))
    return quantizer.encode(values)


def decode_tensor(quantizer: Quantizer, words: np.ndarray,
                  params: Optional[Dict[str, Any]]) -> np.ndarray:
    """Dispatch to the format's ``decode`` with its adaptive parameters."""
    params = params or {}
    name = quantizer.name
    if name == "adaptivfloat":
        return quantizer.decode(words, params["exp_bias"])
    if name == "bfp":
        return quantizer.decode(words, params["shared_exp"])
    if name == "uniform":
        return quantizer.decode(words, params["scale"],
                                params.get("zero_point", 0))
    return quantizer.decode(words)


def _lut_key(quantizer: Quantizer,
             params: Optional[Dict[str, Any]]) -> Optional[Tuple]:
    """Hashable identity of a (format, bits, params) decode table.

    ``None`` marks the combination ineligible: word sizes above the
    table cap, or non-scalar (per-channel / per-block) parameters whose
    decode is not a single shared table.
    """
    if quantizer.bits > MAX_DECODE_LUT_BITS:
        return None
    normalized = []
    for key in sorted(params or {}):
        value = params[key]
        if isinstance(value, (bool, np.bool_)):
            normalized.append((key, bool(value)))
        elif isinstance(value, (int, np.integer)):
            normalized.append((key, int(value)))
        elif isinstance(value, (float, np.floating)):
            normalized.append((key, float(value)))
        else:
            return None
    spec_items = tuple(sorted(quantizer.spec().items()))
    return (type(quantizer).__name__, spec_items, tuple(normalized))


def decode_lut(quantizer: Quantizer,
               params: Optional[Dict[str, Any]]) -> Optional[np.ndarray]:
    """The cached ``2**bits``-entry word -> value table, or ``None``.

    The returned array is read-only and owned by the cache.  A NaN
    parameter value (a float32 scale register whose exponent was
    poisoned by a flip) never compares equal to itself, so such tables
    always miss; the LRU bound keeps them from accumulating.
    """
    global _LUT_HITS, _LUT_MISSES
    key = _lut_key(quantizer, params)
    if key is None:
        return None
    with _LUT_LOCK:
        table = _LUT_CACHE.get(key)
        if table is not None:
            _LUT_CACHE.move_to_end(key)
            _LUT_HITS += 1
            return table
        _LUT_MISSES += 1
    words = np.arange(2 ** quantizer.bits, dtype=np.uint32)
    # A corrupted register (Inf/NaN scale) legitimately decodes to
    # non-finite values; suppress numpy's FP warnings while building.
    with np.errstate(all="ignore"):
        table = np.asarray(decode_tensor(quantizer, words, params),
                           dtype=np.float64)
    table.flags.writeable = False
    with _LUT_LOCK:
        _LUT_CACHE[key] = table
        _LUT_CACHE.move_to_end(key)
        while len(_LUT_CACHE) > _LUT_CACHE_SIZE:
            _LUT_CACHE.popitem(last=False)
    return table


def decode_words(quantizer: Quantizer, words: np.ndarray,
                 params: Optional[Dict[str, Any]]) -> np.ndarray:
    """Decode words through the cached LUT when one exists.

    Bit-identical to :func:`decode_tensor` (the LUT *is* ``decode`` over
    ``arange(2**bits)`` and ``decode`` is elementwise); a single gather
    instead of per-word field extraction.
    """
    table = decode_lut(quantizer, params)
    if table is not None:
        return table[np.asarray(words, dtype=np.uint32)]
    with np.errstate(all="ignore"):
        return decode_tensor(quantizer, words, params)


def decode_lut_cache_stats() -> Dict[str, int]:
    """Hit/miss/size counters of the decode-table cache (for tests)."""
    with _LUT_LOCK:
        return {"hits": _LUT_HITS, "misses": _LUT_MISSES,
                "size": len(_LUT_CACHE)}


def clear_decode_lut_cache() -> None:
    """Drop every cached decode table and reset the counters."""
    global _LUT_HITS, _LUT_MISSES
    with _LUT_LOCK:
        _LUT_CACHE.clear()
        _LUT_HITS = 0
        _LUT_MISSES = 0


# ------------------------------------------------------------ observability
# Pull collector mirroring the legacy counters into gauges at
# snapshot/render time; the module-global ints stay the source of truth.
_OBS_GAUGE = obs.gauge(
    "repro_decode_lut_cache", "Decode-LUT cache state "
    "(hits/misses/size).", ("stat",))


def _collect_lut_stats(_registry) -> None:
    for stat, value in decode_lut_cache_stats().items():
        _OBS_GAUGE.labels(stat=stat).set(float(value))


obs.register_collector(_collect_lut_stats)
