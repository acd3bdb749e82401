"""Dynamic micro-batching inference serving (docs/serving.md).

The ROADMAP north star is serving the paper's quantized model zoo under
heavy concurrent traffic; this package turns the per-call inference
kernels (KV-cached decode, weight-quant memoization) into sustained
request throughput:

* :class:`InferenceServer` (``engine``) — bounded admission with
  backpressure, shape buckets from which free worker threads take
  padded micro-batches (``max_batch`` / ``max_wait_ms`` / length
  bucketing), per-request futures, graceful drain/shutdown.
* :class:`ModelPool` (``pool``) — warm models shared across requests;
  quantized weights resolve once through the ``WeightFakeQuant`` memo.
* ``batching`` — bucket keys and padded batch assembly/demux; batched
  padded decode is token-identical to serial one-request-at-a-time
  decode (bit-exact under ``deterministic_matmul``).
* :class:`ServerStats` (``stats``) — p50/p95/p99 latency, queue depth,
  batch-size histogram, scrub/fault/retry counters and the degradation
  state, read back from this server's children of the process-wide
  :mod:`repro.obs` registry (label ``server``), where every event is
  counted once.
* ``resilient`` — the self-healing policy layer
  (:class:`ResilienceConfig`, :class:`CircuitBreaker`): golden-copy
  weight scrubbing via :mod:`repro.resilience.scrub`, Sanitizer-backed
  batch quarantine, bounded-backoff retry, per-request deadlines, and
  circuit-breaker load shedding (:class:`ServerDegraded`).
* ``bench`` — the batched-vs-serial throughput harness behind
  ``repro serve-bench`` and ``BENCH_serve.json``, plus the closed-loop
  fault-recovery check of the resilience block.
"""

from .batching import KINDS, Request, bucket_key, run_microbatch, \
    serial_reference
from .engine import DeadlineExceeded, InferenceServer, ServeError, \
    ServerClosed, ServerDegraded, ServerSaturated
from .pool import ModelPool, PooledModel
from .resilient import CircuitBreaker, ResilienceConfig
from .stats import LatencyRecorder, ServerStats

__all__ = [
    "CircuitBreaker", "DeadlineExceeded", "InferenceServer", "KINDS",
    "LatencyRecorder", "ModelPool", "PooledModel", "Request",
    "ResilienceConfig", "ServeError", "ServerClosed", "ServerDegraded",
    "ServerSaturated", "ServerStats", "bucket_key", "run_microbatch",
    "serial_reference",
]
