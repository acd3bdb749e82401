"""Percentiles, tail choice and readers for ``repro.obs`` snapshots.

Kept free of ``repro`` imports so the self-tests can run it without the
program.
"""

from __future__ import annotations

import math
import statistics
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

#: Samples a tail percentile must leave beyond it.
TAIL_BEYOND = 10


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile (``pct`` in 0..100)."""
    if not values:
        raise ValueError("percentile of no samples")
    return float(np.percentile(np.asarray(values, dtype=np.float64), pct))


def beyond(values: Sequence[float], pct: float) -> int:
    """Samples strictly above the ``pct`` percentile."""
    cut = percentile(values, pct)
    return int(sum(1 for v in values if v > cut))


def min_samples_for_tail(pct: float, need: int = TAIL_BEYOND) -> int:
    """Smallest sample count that leaves ``need`` samples beyond ``pct``."""
    return int(math.ceil(need / (1.0 - pct / 100.0))) + 1


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


# ------------------------------------------------------------ obs snapshots
def _samples(snap: Dict[str, Any], family: str) -> List[Dict[str, Any]]:
    entry = snap.get(family)
    return entry["samples"] if entry else []


def value(snap: Dict[str, Any], family: str, **labels: str) -> float:
    """Sum of a counter/gauge family's samples matching ``labels``."""
    total = 0.0
    for sample in _samples(snap, family):
        if all(sample["labels"].get(k) == v for k, v in labels.items()):
            total += float(sample["value"])
    return total


def hist(snap: Dict[str, Any], family: str, **labels: str) -> Dict[str, Any]:
    """Summed ``count``/``sum``/bucket ``counts`` of a histogram family."""
    buckets = snap.get(family, {}).get("buckets", [])
    out = {"count": 0, "sum": 0.0, "counts": [0] * (len(buckets) + 1),
           "buckets": list(buckets)}
    for sample in _samples(snap, family):
        if all(sample["labels"].get(k) == v for k, v in labels.items()):
            out["count"] += int(sample["count"])
            out["sum"] += float(sample["sum"])
            for i, c in enumerate(sample["counts"]):
                out["counts"][i] += int(c)
    return out


def hist_delta(after: Dict[str, Any], before: Dict[str, Any]
               ) -> Dict[str, Any]:
    """Histogram ``after - before`` (same family and labels)."""
    return {"count": after["count"] - before["count"],
            "sum": after["sum"] - before["sum"],
            "counts": [a - b for a, b in zip(after["counts"],
                                             before["counts"])],
            "buckets": after["buckets"]}


def hist_quantile(h: Dict[str, Any], q: float) -> Optional[float]:
    """Bucket-interpolated quantile of a histogram (``None`` if empty).

    ``counts`` holds per-bucket counts, the last one the overflow bucket.
    """
    counts = list(h["counts"])
    total = sum(counts)
    if total <= 0:
        return None
    target = q * total
    seen = 0.0
    lower = 0.0
    bounds = list(h["buckets"]) + [h["buckets"][-1] if h["buckets"] else 0.0]
    for upper, count in zip(bounds, counts):
        if count and seen + count >= target:
            return lower + (upper - lower) * (target - seen) / count
        seen += count
        lower = upper
    return bounds[-1]
