"""Serving metrics: one server's view of the ``repro_serve_*`` families.

The paper motivates AdaptivFloat by the efficiency of *deployed*
inference (Table 4 budgets 81.2 us per inference on the accelerator);
the serving engine therefore measures itself the way a deployment
would: request/batch counters, queue-depth high-water marks, a
batch-size histogram (how well requests coalesce), and latency
percentiles split into queue wait vs. total.  Queue wait runs from
submit until a worker takes the request's batch, so it includes waiting
for a free worker.

Every event is counted once, in the process-wide :mod:`repro.obs`
registry: each :class:`ServerStats` writes the children of the
``repro_serve_*`` families labelled with its own ``server`` (a
per-process sequence number), and :meth:`ServerStats.snapshot` reads
those children back into a plain JSON-safe dict, so benchmarks can
embed it verbatim in ``BENCH_serve.json`` and scrapers see the same
numbers.  The one sample store beside the registry is the ``latency``
ring, whose exact percentiles the scrub and obs overhead gates read.
"""

from __future__ import annotations

import itertools
import threading
from array import array
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from .. import obs
from ..obs.registry import SIZE_BUCKETS

__all__ = ["LatencyRecorder", "ServerStats"]

#: Latency samples kept per recorder; enough for every benchmark in the
#: repo while bounding memory for long-running servers (beyond the cap,
#: new samples overwrite the oldest — percentile estimates stay recent).
#: Samples are stored as packed doubles, 8 bytes each.
_SAMPLE_CAP = 100_000

#: Source of the ``server`` label: one number per ServerStats in the
#: process, so two live servers never share a child.
_SERVER_IDS = itertools.count()

_REQUESTS = obs.counter(
    "repro_serve_requests_total", "Request lifecycle events by server.",
    ("server", "event"))
_QUEUE_DEPTH = obs.gauge(
    "repro_serve_queue_depth", "In-flight requests (submitted, not yet "
    "resolved).", ("server",))
_QUEUE_PEAK = obs.gauge(
    "repro_serve_queue_depth_peak", "High-water mark of the server's "
    "queue depth.", ("server",))
_BATCHES = obs.counter(
    "repro_serve_batches_total", "Micro-batches taken from the buckets "
    "by workers, by exact size.", ("server", "size"))
_BATCH_SIZE = obs.histogram(
    "repro_serve_batch_size", "Requests coalesced per dispatched "
    "micro-batch.", ("server",), buckets=SIZE_BUCKETS)
_LATENCY = obs.histogram(
    "repro_serve_latency_seconds", "Total request residence time "
    "(submit to resolve), successful requests only.", ("server",))
_QUEUE_WAIT = obs.histogram(
    "repro_serve_queue_wait_seconds", "Wait from submit until a worker "
    "takes the request's batch (includes waiting for a free worker), "
    "successful requests only.", ("server",))
_SCRUB_PASSES = obs.counter(
    "repro_serve_scrubs_total", "Scrub passes observed by serving "
    "(periodic daemon + on-demand).", ("server",))
_SCRUB_TENSORS = obs.counter(
    "repro_serve_scrub_tensors_total", "Tensors CRC-checked by scrub "
    "passes observed by serving.", ("server",))
_SCRUB_SECONDS = obs.histogram(
    "repro_serve_scrub_seconds", "Duration of scrub passes observed by "
    "serving.", ("server",))
_FAULTS = obs.counter(
    "repro_serve_faults_total", "Detected weight/numeric faults by "
    "detector kind.", ("server", "kind"))
_RETRIES = obs.counter(
    "repro_serve_retries_total", "Micro-batch retry attempts after a "
    "detected-and-repaired fault.", ("server",))
_RESTORES = obs.counter(
    "repro_serve_restores_total", "Tensors repaired from golden streams, "
    "as observed by serving.", ("server",))
_RECOVERED = obs.counter(
    "repro_serve_recovered_batches_total", "Micro-batches that survived "
    "a fault through retry.", ("server",))
_UNCORRECTABLE = obs.counter(
    "repro_serve_uncorrectable_total", "Faults the scrubber could not "
    "repair (corrupted golden or retries exhausted).", ("server",))
_DEGRADATION = obs.gauge(
    "repro_serve_degradation_state", "Circuit-breaker degradation: "
    "0=ok, 1=half-open, 2=open.", ("server",))

#: Breaker state -> numeric gauge level, and a level's snapshot name.
_DEGRADATION_LEVELS = {"ok": 0, "closed": 0, "half-open": 1, "open": 2}
_DEGRADATION_STATES = ("ok", "half-open", "open")


class LatencyRecorder:
    """Ring buffer of latency samples with percentile summaries."""

    def __init__(self, cap: int = _SAMPLE_CAP) -> None:
        # cap=0 used to slip through and blow up later inside record()
        # with a ZeroDivisionError on the ring modulo; reject it here.
        if cap < 1:
            raise ValueError(f"cap must be >= 1, got {cap}")
        self._cap = cap
        self._samples = array("d")
        self._next = 0
        self.count = 0
        self.total = 0.0

    def record(self, value: float) -> None:
        self.count += 1
        self.total += value
        if len(self._samples) < self._cap:
            self._samples.append(value)
        else:
            self._samples[self._next] = value
            self._next = (self._next + 1) % self._cap

    def summary(self) -> Optional[Dict[str, float]]:
        """Windowed ``{mean, p50, p95, p99, max}`` in ms, or None if empty.

        Every statistic describes the *same* population: the (up to)
        ``cap`` most recent samples in the ring.  Mixing the lifetime
        mean with windowed percentiles (as an earlier version did) made
        the summary internally inconsistent once the ring wrapped — a
        latency regression would move the percentiles while a long calm
        history pinned the mean.  The lifetime request count survives
        under the separate ``count_lifetime`` key; ``window`` is the
        sample count the other fields were computed over.  A 1-sample
        window is well-defined: every percentile equals the sample.
        """
        if not self._samples:
            return None
        # A copy: a view would pin the buffer, and record() could not grow
        # the array while the view lives.
        arr = np.array(self._samples, dtype=np.float64)
        p50, p95, p99 = np.percentile(arr, [50.0, 95.0, 99.0])
        return {
            "mean_ms": round(float(arr.mean()) * 1e3, 4),
            "p50_ms": round(float(p50) * 1e3, 4),
            "p95_ms": round(float(p95) * 1e3, 4),
            "p99_ms": round(float(p99) * 1e3, 4),
            "max_ms": round(float(arr.max()) * 1e3, 4),
            "window": int(arr.size),
            "count_lifetime": self.count,
        }


class ServerStats:
    """One :class:`~repro.serve.InferenceServer`'s metrics, kept in obs.

    ``record_*`` methods are called from client threads (submit) and
    workers (dispatch and completion); each writes this server's
    children of the ``repro_serve_*`` families, whose stripe locks make
    every write atomic.  The queue-depth high-water mark is exact only
    if the depth changes under one lock: the engine calls
    :meth:`record_submit` and :meth:`record_done` under its state lock.
    """

    def __init__(self) -> None:
        #: This server's ``server`` label value, unique in the process.
        self.server = str(next(_SERVER_IDS))
        self._lock = threading.Lock()           # guards the latency ring
        self.latency = LatencyRecorder()
        # Handles on the children every request touches, resolved once
        # (the counts live in the registry, not here).
        self._submitted = self._child(_REQUESTS, event="submitted")
        self._completed = self._child(_REQUESTS, event="completed")
        self._failed = self._child(_REQUESTS, event="failed")
        self._depth = self._child(_QUEUE_DEPTH)
        self._peak = self._child(_QUEUE_PEAK)
        self._sizes = self._child(_BATCH_SIZE)
        self._latency_hist = self._child(_LATENCY)
        self._queue_wait = self._child(_QUEUE_WAIT)

    def _child(self, family: Any, **labels: str) -> Any:
        return family.labels(server=self.server, **labels)

    # ------------------------------------------------------------ mutation
    def record_submit(self) -> None:
        self._submitted.inc()
        self._depth.inc()
        self._peak.set_max(self._depth.value)

    def record_reject(self) -> None:
        self._child(_REQUESTS, event="rejected").inc()

    def record_batch(self, size: int) -> None:
        self._child(_BATCHES, size=str(size)).inc()
        self._sizes.observe(size)

    def record_done(self, latency_s: float, queue_wait_s: float,
                    failed: bool = False) -> None:
        self._depth.dec()
        if failed:
            self._failed.inc()
            return
        self._completed.inc()
        self._latency_hist.observe(latency_s)
        self._queue_wait.observe(queue_wait_s)
        with self._lock:
            self.latency.record(latency_s)

    # -------------------------------------------------------- resilience
    def record_scrub(self, checked: int, restored: int, uncorrectable: int,
                     duration_s: float) -> None:
        self._child(_SCRUB_PASSES).inc()
        self._child(_SCRUB_TENSORS).inc(checked)
        self._child(_SCRUB_SECONDS).observe(duration_s)
        self._child(_RESTORES).inc(restored)
        self._child(_UNCORRECTABLE).inc(uncorrectable)

    def record_fault(self, kind: str) -> None:
        self._child(_FAULTS, kind=kind).inc()

    def record_retry(self) -> None:
        self._child(_RETRIES).inc()

    def record_recovered(self) -> None:
        self._child(_RECOVERED).inc()

    def record_uncorrectable(self) -> None:
        self._child(_UNCORRECTABLE).inc()

    def record_deadline(self) -> None:
        self._child(_REQUESTS, event="deadline_expired").inc()

    def record_degraded_rejection(self) -> None:
        self._child(_REQUESTS, event="degraded_rejected").inc()

    def set_degradation(self, state: str) -> None:
        self._child(_DEGRADATION).set(_DEGRADATION_LEVELS.get(state, 2))

    # ------------------------------------------------------------- reading
    def _mine(self, family: Any) -> List[Tuple[Dict[str, str], Any]]:
        """This server's children of ``family``, with their labels."""
        return [(labels, child) for labels, child in family.children()
                if labels["server"] == self.server]

    def _value(self, family: Any) -> int:
        return int(sum(child.value for _, child in self._mine(family)))

    def snapshot(self) -> Dict:
        """JSON-safe summary of this server's children.

        ``latency`` summarizes the exact sample ring; ``queue_wait``
        gives the count and mean of its histogram.  The families are
        read one after another, so a snapshot of a busy server may
        split an event that is being recorded; after ``drain()`` it is
        exact.  The whole registry is :func:`repro.obs.snapshot`, which
        bench records embed beside this.
        """
        requests = {labels["event"]: int(child.value)
                    for labels, child in self._mine(_REQUESTS)}
        sizes = sorted((int(labels["size"]), int(child.value))
                       for labels, child in self._mine(_BATCHES))
        batches = sum(count for _, count in sizes)
        kinds = {labels["kind"]: int(child.value)
                 for labels, child in self._mine(_FAULTS)}
        waits = self._queue_wait.count
        degradation = self._mine(_DEGRADATION)
        with self._lock:
            latency = self.latency.summary()
        return {
            "requests": {event: requests.get(event, 0) for event in
                         ("submitted", "completed", "failed", "rejected")},
            "queue": {
                "depth": int(self._depth.value),
                "depth_peak": int(self._peak.value),
            },
            "batches": {
                "count": batches,
                "mean_size": round(sum(size * count for size, count
                                       in sizes) / batches, 3)
                if batches else 0.0,
                "histogram": {str(size): count for size, count in sizes},
            },
            "latency": latency,
            "queue_wait": {
                "count": waits,
                "mean_ms": round(self._queue_wait.sum / waits * 1e3, 4),
            } if waits else None,
            "resilience": {
                "scrubs": self._value(_SCRUB_PASSES),
                "scrub_tensors": self._value(_SCRUB_TENSORS),
                "scrub_time_s": round(sum(
                    child.sum for _, child in self._mine(_SCRUB_SECONDS)), 6),
                "faults_detected": sum(kinds.values()),
                "fault_kinds": dict(sorted(kinds.items())),
                "retries": self._value(_RETRIES),
                "restores": self._value(_RESTORES),
                "recovered_batches": self._value(_RECOVERED),
                "uncorrectable": self._value(_UNCORRECTABLE),
                "deadline_expired": requests.get("deadline_expired", 0),
                "degraded_rejections": requests.get("degraded_rejected", 0),
                "degradation": _DEGRADATION_STATES[
                    int(degradation[0][1].value) if degradation else 0],
            },
        }
