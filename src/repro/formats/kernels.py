"""Codebook fast-path quantization kernels.

At word sizes of n <= 8 bits every format in :mod:`repro.formats` has at
most ``2**n`` representable values, so nearest-value quantization does
not need per-element transcendental math (``frexp`` / ``exp2`` /
``log2``): it is a table lookup.  This module materializes, once per
``(format spec, adaptive params)`` key, the sorted codepoint table plus
the *exact* decision thresholds of the analytic implementation, memoizes
them in a bounded LRU cache, and quantizes through one of three
vectorized strategies:

* :class:`AffineCodebook` — grids with uniformly spaced levels
  (``uniform``, ``bfp``, ``fixedpoint``): a fused clamp +
  magic-constant round (the classic ``x + 1.5 * 2**52 * q - ...`` trick
  for power-of-two quanta) touching the tensor a minimal number of
  times.
* :class:`LutCodebook` — float-shaped grids (``adaptivfloat``,
  ``float``, ``posit``, ``logquant``): the top 16 bits of each
  ``float64``'s magnitude index a 32K-entry prefix table that resolves
  the codepoint up to at most a couple of threshold comparisons,
  replacing a full binary search per element with O(1) gathers.
* :class:`SearchCodebook` — the general fallback: a single
  ``np.searchsorted`` against the exact thresholds.

Bit-exactness contract
----------------------
The analytic implementations (``_quantize_analytic`` /
``_quantize_with_params_analytic`` on each format) remain the reference.
Thresholds for the lookup strategies are not assumed to be arithmetic
midpoints: they are recovered by vectorized bisection *against the
analytic implementation itself*, so every rounding subtlety — nearest-
even tie parity, log-domain rounding in ``logquant``, division rounding
in ``uniform`` — is captured exactly.  The fast path is therefore
bit-identical to the analytic path for every finite input.  (NaN inputs
are the one documented exception: the analytic path propagates NaN, the
table path maps it to the largest-magnitude codepoint.)

Eligibility and invalidation
----------------------------
A quantizer opts in through ``Quantizer._codebook_key``: the key encodes
the full format spec plus the adaptive parameters, so a changed
``exp_bias`` / ``scale`` / ``shared_exp`` is simply a different cache
entry — invalidation is automatic.  Stochastic rounding, per-channel or
per-block (vector) parameters, and word sizes above
:func:`max_table_bits` (default 8, moved by :func:`set_max_table_bits`)
always bypass the table path; :func:`set_cache_size` bounds the LRU
(default 128 entries).  ``REPRO_NO_CODEBOOK=1`` (read at import) or
:func:`analytic_only` forces the analytic path.
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
import sys
import threading
from collections import OrderedDict
from typing import Any, Callable, Dict, Hashable, Optional, Tuple

import numpy as np

from .. import obs

__all__ = [
    "AffineGrid",
    "Codebook",
    "AffineCodebook",
    "LutCodebook",
    "SearchCodebook",
    "get_codebook",
    "exact_thresholds",
    "analytic_only",
    "max_table_bits",
    "set_max_table_bits",
    "set_cache_size",
    "codebook_cache_stats",
    "clear_codebook_cache",
]

# The magic-constant round trick and the value-domain clamp both need the
# grid step comfortably inside the normal float64 range.
_MIN_STEP = 2.0 ** -900
_MAX_STEP = 2.0 ** 900

# How many threshold-comparison fix-up rounds the prefix LUT may use
# before we fall back to a full binary search.
_MAX_LUT_SPAN = 4

_LITTLE_ENDIAN = sys.byteorder == "little"


_max_table_bits = 8
_enabled = os.environ.get("REPRO_NO_CODEBOOK", "") not in ("1", "true", "yes")


def max_table_bits() -> int:
    """Largest word size served by the codebook fast path."""
    return _max_table_bits


def set_max_table_bits(bits: int) -> None:
    """Raise or lower the fast-path word-size cap (clears the cache)."""
    global _max_table_bits
    if bits < 0:
        raise ValueError(f"bits cap must be non-negative, got {bits}")
    _max_table_bits = int(bits)
    clear_codebook_cache()


@contextlib.contextmanager
def analytic_only():
    """Context manager: force every quantizer onto its analytic path.

    Used by the equivalence tests to obtain reference outputs, and
    available to callers who need NaN propagation.
    """
    global _enabled
    previous = _enabled
    _enabled = False
    try:
        yield
    finally:
        _enabled = previous


# --------------------------------------------------------------- thresholds
def exact_thresholds(reference: Callable[[np.ndarray], np.ndarray],
                     table: np.ndarray) -> Optional[np.ndarray]:
    """Recover the exact decision boundaries of a monotone quantizer.

    For each adjacent codepoint pair ``(table[i], table[i+1])`` returns
    the *smallest* float64 that ``reference`` maps to ``table[i+1]`` —
    found by bisection in float space, so ties and rounding quirks of the
    reference are captured exactly.  Returns ``None`` if the reference is
    not idempotent on its own codepoints (in which case no table path can
    be bit-exact).
    """
    table = np.asarray(table, dtype=np.float64)
    if table.size < 2:
        return np.empty(0, dtype=np.float64)
    if not np.array_equal(reference(table), table):
        return None
    lo = table[:-1].copy()
    hi = table[1:].copy()
    # Invariants: reference(lo) == table[i], reference(hi) == table[i+1].
    # Arithmetic bisection halves the real interval each step, so ~53
    # steps reach ulp resolution within a binade and ~110 cover the
    # subnormal-threshold worst case; 200 is a comfortable cap.
    for _ in range(200):
        mid = 0.5 * lo + 0.5 * hi
        active = (mid > lo) & (mid < hi)
        if not active.any():
            break
        q_mid = reference(mid)
        up = q_mid > lo  # mid already rounds to the upper codepoint
        hi = np.where(active & up, mid, hi)
        lo = np.where(active & ~up, mid, lo)
    return hi


# ------------------------------------------------------------------- grids
@dataclasses.dataclass(frozen=True)
class AffineGrid:
    """A uniformly spaced grid: codepoints ``k * step`` for integer
    ``k`` in ``[lo_level, hi_level]`` (after any zero-point shift)."""

    step: float
    lo_level: int
    hi_level: int


class Codebook:
    """Base class: a materialized grid with a vectorized lookup."""

    strategy = "abstract"

    def quantize(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class AffineCodebook(Codebook):
    """Fused quantizer for uniformly spaced grids.

    For power-of-two steps and round-to-nearest-even the whole operation
    is three passes — ``clip``, ``+= C``, ``-= C`` with
    ``C = 1.5 * 2**52 * step`` (adding C aligns the mantissa so the FPU's
    own nearest-even rounding drops the sub-step bits) — with no
    division, no ``rint`` and no level/value conversions.  Non-power-of-
    two steps (``uniform``'s float scale) keep the analytic division so
    the result stays bit-identical, then round and clamp in the level
    domain in place.
    """

    strategy = "affine"

    def __init__(self, grid: AffineGrid, round_mode: str) -> None:
        self.grid = grid
        self.round_mode = round_mode
        step = float(grid.step)
        mant, _ = np.frexp(step)
        self._pow2_step = mant == 0.5
        self._magic = 1.5 * 2.0 ** 52 * step
        self._magic_level = 1.5 * 2.0 ** 52
        self._lo_value = grid.lo_level * step
        self._hi_value = grid.hi_level * step

    def codepoints(self) -> np.ndarray:
        levels = np.arange(self.grid.lo_level, self.grid.hi_level + 1,
                           dtype=np.float64)
        return levels * self.grid.step

    def quantize(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        from .base import RoundMode  # local import to avoid a cycle
        if self._pow2_step and self.round_mode == RoundMode.NEAREST_EVEN:
            # Value-domain path: clamp, then magic-round to multiples of
            # step.  Division by a power of two is exact, so skipping it
            # cannot change the result.
            out = np.clip(x, self._lo_value, self._hi_value)
            out += self._magic
            out -= self._magic
            return out
        # Level-domain path (division semantics must match the analytic
        # implementation exactly, so divide by the same scale).
        buf = x / self.grid.step
        if self.round_mode == RoundMode.NEAREST_EVEN:
            buf += self._magic_level
            buf -= self._magic_level
        else:  # NEAREST_AWAY: trunc(x + copysign(0.5, x)), as ulp_round
            half = np.copysign(0.5, buf)
            buf += half
            np.trunc(buf, out=buf)
        np.clip(buf, self.grid.lo_level, self.grid.hi_level, out=buf)
        buf *= self.grid.step
        return buf


class SearchCodebook(Codebook):
    """General table lookup: one binary search against exact thresholds."""

    strategy = "search"

    def __init__(self, table: np.ndarray, thresholds: np.ndarray) -> None:
        self.table = table
        self.thresholds = thresholds

    def quantize(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        idx = np.searchsorted(self.thresholds, x, side="right")
        return self.table[idx]


class LutCodebook(Codebook):
    """Prefix-LUT lookup for float-shaped grids.

    The top 16 bits of each ``float64`` (sign + exponent + 4 mantissa
    bits) select one of 65536 buckets; each bucket is a contiguous real
    interval, so it maps to a contiguous run of codepoints.  The LUT
    stores the first codepoint index of the run and lookup finishes with
    ``span`` gather/compare rounds against the exact thresholds — O(1)
    per element instead of a binary search, with no abs/copysign passes
    because the sign bit participates in the bucket index.
    """

    strategy = "lut"

    def __init__(self, table: np.ndarray, thresholds: np.ndarray,
                 lut: np.ndarray, span: int) -> None:
        self.table = table
        self.thresholds = thresholds
        self._lut = lut
        self._span = span
        # thr_pad[i] separates table[i] and table[i+1].  The top pad is
        # NaN, not inf: every comparison against it is False, so +inf
        # inputs stay clamped at the last codepoint instead of indexing
        # past the table.
        self._thr_pad = np.concatenate([thresholds, [np.nan]])
        # Magnitude view for bit-codec callers (encode paths): only
        # defined when the table is symmetric around a zero codepoint.
        n = table.size
        if n % 2 == 1 and table[n // 2] == 0.0 \
                and np.array_equal(table, -table[::-1]):
            self._zero_idx = n // 2
            self.mag_table: Optional[np.ndarray] = table[n // 2:]
        else:
            self._zero_idx = None
            self.mag_table = None

    @classmethod
    def build(cls, table: np.ndarray,
              thresholds: np.ndarray) -> Optional["LutCodebook"]:
        if not _LITTLE_ENDIAN:
            return None
        # Bucket edges: the two float64 values with the given top 16 bits
        # and all-zero / all-one low mantissa bits.  For negative buckets
        # the all-ones pattern is the *smaller* value, hence minimum/
        # maximum.  NaN buckets propagate NaN and searchsorted sends them
        # to the last codepoint (the documented NaN behaviour).
        idx16 = np.arange(2 ** 16, dtype=np.uint64)
        edge_a = (idx16 << np.uint64(48)).view(np.float64)
        edge_b = ((idx16 << np.uint64(48))
                  | np.uint64(0x0000FFFFFFFFFFFF)).view(np.float64)
        # fmin/fmax ignore NaN so the +/-inf buckets (which also contain
        # NaN bit patterns) keep their infinite edge; all-NaN buckets stay
        # NaN and searchsorted sends them to the last codepoint.
        lo_code = np.searchsorted(thresholds, np.fmin(edge_a, edge_b),
                                  side="right")
        hi_code = np.searchsorted(thresholds, np.fmax(edge_a, edge_b),
                                  side="right")
        span = int((hi_code - lo_code).max())
        if span > _MAX_LUT_SPAN:
            return None
        dtype = np.uint16 if table.size <= 2 ** 16 else np.int64
        return cls(table, thresholds, lo_code.astype(dtype), span)

    def indices(self, flat: np.ndarray) -> np.ndarray:
        """Index into :attr:`table` of the codepoint for each element."""
        prefix = flat.view(np.uint16)[3::4]
        idx = self._lut[prefix]
        for _ in range(self._span):
            idx = idx + (flat >= self._thr_pad[idx])
        return idx

    def magnitude_indices(self, x: np.ndarray) -> np.ndarray:
        """Index into :attr:`mag_table` of the codepoint for ``|x|``."""
        if self._zero_idx is None:
            raise ValueError("table is not symmetric around zero")
        flat = np.abs(np.ascontiguousarray(x).reshape(-1))
        return self.indices(flat).astype(np.int64) - self._zero_idx

    def quantize(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        flat = np.ascontiguousarray(x).reshape(-1)
        return self.table[self.indices(flat)].reshape(x.shape)


# -------------------------------------------------------------------- cache
_lock = threading.Lock()
_cache: "OrderedDict[Hashable, Optional[Codebook]]" = OrderedDict()
_cache_size = 128
_stats = {"hits": 0, "misses": 0, "builds": 0, "evictions": 0,
          "fallbacks": 0}


def set_cache_size(size: int) -> None:
    """Bound the codebook LRU (clears it)."""
    global _cache_size
    if size < 1:
        raise ValueError(f"cache size must be positive, got {size}")
    _cache_size = int(size)
    clear_codebook_cache()


def codebook_cache_stats() -> Dict[str, int]:
    """Hit/miss/build/eviction counters plus the current entry count."""
    with _lock:
        stats = dict(_stats)
        stats["entries"] = len(_cache)
        stats["capacity"] = _cache_size
    return stats


def clear_codebook_cache() -> None:
    with _lock:
        _cache.clear()
        for key in _stats:
            _stats[key] = 0


def _build_codebook(quantizer: Any,
                    params: Optional[Dict[str, Any]]) -> Optional[Codebook]:
    round_mode = getattr(quantizer, "round_mode", None) or "nearest-even"
    grid = quantizer._affine_grid(params)
    if grid is not None:
        if not (np.isfinite(grid.step)
                and _MIN_STEP <= abs(grid.step) <= _MAX_STEP):
            return None
        return AffineCodebook(grid, round_mode)
    try:
        table = np.unique(np.asarray(
            quantizer.codepoints(**(params or {})), dtype=np.float64))
    except (TypeError, NotImplementedError):
        return None
    if table.size < 2 or not np.isfinite(table).all():
        return None
    thresholds = exact_thresholds(quantizer._codebook_reference(params), table)
    if thresholds is None:
        return None
    lut = LutCodebook.build(table, thresholds)
    if lut is not None:
        return lut
    return SearchCodebook(table, thresholds)


def get_codebook(quantizer: Any,
                 params: Optional[Dict[str, Any]]) -> Optional[Codebook]:
    """Return the memoized codebook for ``(quantizer, params)``.

    ``None`` means the combination is ineligible (too many bits,
    stochastic rounding, vector params, non-enumerable grid, ...) and the
    caller must use the analytic path.  Negative results are cached too.
    """
    if not _enabled:
        return None
    key = quantizer._codebook_key(params)
    if key is None:
        return None
    with _lock:
        if key in _cache:
            _cache.move_to_end(key)
            _stats["hits"] += 1
            return _cache[key]
        _stats["misses"] += 1
    codebook = _build_codebook(quantizer, params)
    with _lock:
        _stats["builds"] += 1
        if codebook is None:
            _stats["fallbacks"] += 1
        _cache[key] = codebook
        _cache.move_to_end(key)
        while len(_cache) > _cache_size:
            _cache.popitem(last=False)
            _stats["evictions"] += 1
    return codebook


# ------------------------------------------------------------ observability
# The legacy dict above stays the source of truth (zero hot-path cost);
# a pull collector copies it into gauges whenever the obs registry
# snapshots or renders, so scrapes see the LRU state without the cache
# paying per-lookup metric writes.
_OBS_GAUGE = obs.gauge(
    "repro_codebook_cache", "Codebook LRU cache state "
    "(hits/misses/builds/evictions/fallbacks/entries/capacity).",
    ("stat",))


def _collect_codebook_stats(_registry) -> None:
    for stat, value in codebook_cache_stats().items():
        _OBS_GAUGE.labels(stat=stat).set(float(value))


obs.register_collector(_collect_codebook_stats)
