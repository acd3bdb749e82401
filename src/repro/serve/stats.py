"""Thread-safe serving metrics: counters, latency percentiles, histograms.

The paper motivates AdaptivFloat by the efficiency of *deployed*
inference (Table 4 budgets 81.2 us per inference on the accelerator);
the serving engine therefore measures itself the way a deployment
would: request/batch counters, queue-depth high-water marks, a
batch-size histogram (how well requests coalesce), and latency
percentiles split into queue wait vs. total.  Queue wait runs from
submit until a worker takes the request's batch, so it includes waiting
for a free worker.

All mutation goes through one lock; reads (:meth:`ServerStats.snapshot`)
produce a plain JSON-safe dict so benchmarks can embed it verbatim in
``BENCH_serve.json``.

Every ``record_*`` call is also mirrored into the process-wide
:mod:`repro.obs` registry (``repro_serve_*`` families), so the same
events that feed this per-server snapshot are scrapeable via the
Prometheus/JSON exporters; :meth:`ServerStats.snapshot` embeds the
registry dump under the ``"obs"`` key.  With the registry disabled the
mirror costs one branch per event.
"""

from __future__ import annotations

import threading
from array import array
from typing import Dict, Optional

import numpy as np

from .. import obs
from ..obs.registry import SIZE_BUCKETS

__all__ = ["LatencyRecorder", "ServerStats"]

#: Latency samples kept per recorder; enough for every benchmark in the
#: repo while bounding memory for long-running servers (beyond the cap,
#: new samples overwrite the oldest — percentile estimates stay recent).
#: Samples are stored as packed doubles, 8 bytes each.
_SAMPLE_CAP = 100_000

# ---- process-wide obs mirror of the per-server counters ----------------
_REQUESTS = obs.counter(
    "repro_serve_requests_total",
    "Request lifecycle events across every InferenceServer in the "
    "process.", ("event",))
_REQ_SUBMITTED = _REQUESTS.labels(event="submitted")
_REQ_COMPLETED = _REQUESTS.labels(event="completed")
_REQ_FAILED = _REQUESTS.labels(event="failed")
_REQ_REJECTED = _REQUESTS.labels(event="rejected")
_REQ_DEADLINE = _REQUESTS.labels(event="deadline_expired")
_REQ_DEGRADED = _REQUESTS.labels(event="degraded_rejected")
_QUEUE_DEPTH = obs.gauge(
    "repro_serve_queue_depth", "In-flight requests (submitted, not yet "
    "resolved), summed over servers.")
_QUEUE_PEAK = obs.gauge(
    "repro_serve_queue_depth_peak", "High-water mark of any one server's "
    "queue depth.")
_BATCHES = obs.counter(
    "repro_serve_batches_total", "Micro-batches taken from the buckets "
    "by workers.")
_BATCH_SIZE = obs.histogram(
    "repro_serve_batch_size", "Requests coalesced per dispatched "
    "micro-batch.", buckets=SIZE_BUCKETS)
_LATENCY = obs.histogram(
    "repro_serve_latency_seconds", "Total request residence time "
    "(submit to resolve), successful requests only.")
_QUEUE_WAIT = obs.histogram(
    "repro_serve_queue_wait_seconds", "Wait from submit until a worker "
    "takes the request's batch (includes waiting for a free worker), "
    "successful requests only.")
_SCRUB_PASSES = obs.counter(
    "repro_serve_scrubs_total", "Scrub passes observed by serving "
    "(periodic daemon + on-demand).")
_SCRUB_TENSORS = obs.counter(
    "repro_serve_scrub_tensors_total", "Tensors CRC-checked by scrub "
    "passes observed by serving.")
_SCRUB_SECONDS = obs.histogram(
    "repro_serve_scrub_seconds", "Duration of scrub passes observed by "
    "serving.")
_FAULTS = obs.counter(
    "repro_serve_faults_total", "Detected weight/numeric faults by "
    "detector kind.", ("kind",))
_RETRIES = obs.counter(
    "repro_serve_retries_total", "Micro-batch retry attempts after a "
    "detected-and-repaired fault.")
_RESTORES = obs.counter(
    "repro_serve_restores_total", "Tensors repaired from golden streams, "
    "as observed by serving.")
_RECOVERED = obs.counter(
    "repro_serve_recovered_batches_total", "Micro-batches that survived "
    "a fault through retry.")
_UNCORRECTABLE = obs.counter(
    "repro_serve_uncorrectable_total", "Faults the scrubber could not "
    "repair (corrupted golden or retries exhausted).")
_DEGRADATION = obs.gauge(
    "repro_serve_degradation_state", "Circuit-breaker degradation: "
    "0=ok, 1=half-open, 2=open.")

#: Breaker state -> numeric gauge level.
_DEGRADATION_LEVELS = {"ok": 0.0, "closed": 0.0, "half-open": 1.0,
                       "open": 2.0}


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
    """Aggregated counters for one :class:`~repro.serve.InferenceServer`.

    ``record_*`` methods are called from client threads (submit) and
    workers (dispatch and completion); every one takes the internal
    lock, so a :meth:`snapshot` observes a consistent view.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.submitted = 0
        self.completed = 0
        self.failed = 0
        self.rejected = 0
        self.batches = 0
        self.queue_depth = 0
        self.queue_depth_peak = 0
        self.batch_histogram: Dict[int, int] = {}
        self.latency = LatencyRecorder()
        self.queue_wait = LatencyRecorder()
        # ---- resilience (self-healing serving path) --------------------
        self.scrubs = 0                    # scrub passes (periodic+on-demand)
        self.scrub_tensors = 0             # tensors CRC-checked
        self.scrub_time_s = 0.0
        self.faults_detected = 0
        self.fault_kinds: Dict[str, int] = {}   # crc / probe / exception
        self.retries = 0                   # micro-batch retry attempts
        self.restores = 0                  # tensors repaired from golden
        self.recovered_batches = 0         # batches that survived a fault
        self.uncorrectable = 0             # faults the scrubber couldn't fix
        self.deadline_expired = 0
        self.degraded_rejections = 0       # submits shed by the breaker
        self.degradation = "ok"            # "ok" | breaker state when tripped

    # ------------------------------------------------------------ mutation
    def record_submit(self) -> None:
        with self._lock:
            self.submitted += 1
            self.queue_depth += 1
            self.queue_depth_peak = max(self.queue_depth_peak,
                                        self.queue_depth)
            peak = self.queue_depth_peak
        _REQ_SUBMITTED.inc()
        _QUEUE_DEPTH.inc()
        _QUEUE_PEAK.set_max(peak)

    def record_reject(self) -> None:
        with self._lock:
            self.rejected += 1
        _REQ_REJECTED.inc()

    def record_batch(self, size: int) -> None:
        with self._lock:
            self.batches += 1
            self.batch_histogram[size] = self.batch_histogram.get(size, 0) + 1
        _BATCHES.inc()
        _BATCH_SIZE.observe(size)

    def record_done(self, latency_s: float, queue_wait_s: float,
                    failed: bool = False) -> None:
        with self._lock:
            self.queue_depth -= 1
            if failed:
                self.failed += 1
            else:
                self.completed += 1
                self.latency.record(latency_s)
                self.queue_wait.record(queue_wait_s)
        _QUEUE_DEPTH.dec()
        if failed:
            _REQ_FAILED.inc()
        else:
            _REQ_COMPLETED.inc()
            _LATENCY.observe(latency_s)
            _QUEUE_WAIT.observe(queue_wait_s)

    # -------------------------------------------------------- resilience
    def record_scrub(self, checked: int, restored: int, uncorrectable: int,
                     duration_s: float) -> None:
        with self._lock:
            self.scrubs += 1
            self.scrub_tensors += checked
            self.scrub_time_s += duration_s
            self.restores += restored
            self.uncorrectable += uncorrectable
        _SCRUB_PASSES.inc()
        _SCRUB_TENSORS.inc(checked)
        _SCRUB_SECONDS.observe(duration_s)
        if restored:
            _RESTORES.inc(restored)
        if uncorrectable:
            _UNCORRECTABLE.inc(uncorrectable)

    def record_fault(self, kind: str) -> None:
        with self._lock:
            self.faults_detected += 1
            self.fault_kinds[kind] = self.fault_kinds.get(kind, 0) + 1
        _FAULTS.labels(kind=kind).inc()

    def record_retry(self) -> None:
        with self._lock:
            self.retries += 1
        _RETRIES.inc()

    def record_recovered(self) -> None:
        with self._lock:
            self.recovered_batches += 1
        _RECOVERED.inc()

    def record_uncorrectable(self) -> None:
        with self._lock:
            self.uncorrectable += 1
        _UNCORRECTABLE.inc()

    def record_deadline(self) -> None:
        with self._lock:
            self.deadline_expired += 1
        _REQ_DEADLINE.inc()

    def record_degraded_rejection(self) -> None:
        with self._lock:
            self.degraded_rejections += 1
        _REQ_DEGRADED.inc()

    def set_degradation(self, state: str) -> None:
        with self._lock:
            self.degradation = state
        _DEGRADATION.set(_DEGRADATION_LEVELS.get(state, 2.0))

    # ------------------------------------------------------------- reading
    def snapshot(self) -> Dict:
        """JSON-safe summary of everything recorded so far.

        The ``"obs"`` key carries the process-wide registry dump
        (:func:`repro.obs.snapshot`), so any record embedding this
        snapshot — ``BENCH_serve.json`` in particular — also embeds
        every metric family in the process.
        """
        obs_dump = obs.snapshot()
        with self._lock:
            histogram = {str(size): count for size, count
                         in sorted(self.batch_histogram.items())}
            mean_batch = (sum(size * count for size, count
                              in self.batch_histogram.items())
                          / self.batches) if self.batches else 0.0
            return {
                "requests": {
                    "submitted": self.submitted,
                    "completed": self.completed,
                    "failed": self.failed,
                    "rejected": self.rejected,
                },
                "queue": {
                    "depth": self.queue_depth,
                    "depth_peak": self.queue_depth_peak,
                },
                "batches": {
                    "count": self.batches,
                    "mean_size": round(mean_batch, 3),
                    "histogram": histogram,
                },
                "latency": self.latency.summary(),
                "queue_wait": self.queue_wait.summary(),
                "resilience": {
                    "scrubs": self.scrubs,
                    "scrub_tensors": self.scrub_tensors,
                    "scrub_time_s": round(self.scrub_time_s, 6),
                    "faults_detected": self.faults_detected,
                    "fault_kinds": dict(sorted(self.fault_kinds.items())),
                    "retries": self.retries,
                    "restores": self.restores,
                    "recovered_batches": self.recovered_batches,
                    "uncorrectable": self.uncorrectable,
                    "deadline_expired": self.deadline_expired,
                    "degraded_rejections": self.degraded_rejections,
                    "degradation": self.degradation,
                },
                "obs": obs_dump,
            }
