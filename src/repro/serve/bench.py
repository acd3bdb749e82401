"""Batched-vs-serial serving benchmark shared by the CLI, pytest and
``tools/bench_report.py --suite serve``.

The measured comparison: ``concurrency`` client threads submitting a
seeded synthetic request mix through the micro-batching server, against
the serial one-request-at-a-time reference over the *same* requests on
the *same* warm model.  The speedup is pure batching gain — both paths
use the KV-cached decode and the warm pool.

The correctness companion (:func:`check_equivalence`) replays a ragged
request mix through a ``deterministic=True`` server and asserts the
demultiplexed results are token-identical to the serial reference for
every model family.
"""

from __future__ import annotations

import statistics
import time
from concurrent.futures import Future
from typing import Any, Dict, List, Optional, Sequence

from .. import obs
from ..nn import Sanitizer, deterministic_matmul
from ..rng import fresh_rng
from .batching import KINDS, Request, run_microbatch, serial_reference
from .engine import InferenceServer
from .pool import ModelPool
from .resilient import ResilienceConfig
from .stats import ServerStats

__all__ = ["build_requests", "check_equivalence", "run_serve_benchmark",
           "run_fault_recovery", "measure_scrub_overhead",
           "measure_probe_overhead", "measure_obs_overhead"]

_HARVEST_ERRORS = obs.counter(
    "repro_serve_swallowed_exceptions_total",
    "Exceptions caught by broad serve/resilience handlers, by handler "
    "site and exception type.", ("site", "exc"))

#: Kind served per model family (inverse of batching.KINDS).
_KIND_OF = {model: kind for kind, model in KINDS.items()}

#: Decode cap for the synthetic benchmark workloads: long enough that
#: decode dominates scheduling overhead, short enough to run in CI.
DEFAULT_MAX_LEN = 32


def build_requests(model: str, count: int, seed: int = 0,
                   max_len: Optional[int] = DEFAULT_MAX_LEN,
                   min_len: int = 4, max_src_len: int = 12
                   ) -> List[Request]:
    """A seeded ragged request mix for one model family."""
    if model not in _KIND_OF:
        raise ValueError(f"unknown model {model!r}; known: "
                         f"{tuple(_KIND_OF)}")
    rng = fresh_rng([seed, count])
    kind = _KIND_OF[model]
    requests = []
    for _ in range(count):
        length = int(rng.integers(min_len, max_src_len + 1))
        if kind == "translate":
            payload: Any = rng.integers(3, 64, size=length).tolist()
        elif kind == "transcribe":
            payload = rng.standard_normal((length, 16)).astype("float32")
        else:
            payload = rng.standard_normal((3, 16, 16)).astype("float32")
        requests.append(Request(kind, payload, max_len=max_len))
    return requests


def _submit_all(server: InferenceServer, requests: Sequence[Request],
                concurrency: int) -> List[Any]:
    """Submit ``requests`` from ``concurrency`` client threads; return
    the resolved results in request order."""
    import threading

    futures: List[Optional[Future]] = [None] * len(requests)

    def client(worker: int) -> None:
        for i in range(worker, len(requests), concurrency):
            req = requests[i]
            futures[i] = server.submit(req.kind, req.payload,
                                       max_len=req.max_len,
                                       beam_size=req.beam_size)

    clients = [threading.Thread(target=client, args=(w,))
               for w in range(concurrency)]
    for thread in clients:
        thread.start()
    for thread in clients:
        thread.join()
    return [future.result(timeout=300.0) for future in futures]


def run_serve_benchmark(model: str = "transformer", concurrency: int = 16,
                        num_requests: int = 64, max_batch: int = 16,
                        max_wait_ms: float = 5.0, workers: int = 1,
                        seed: int = 0, profile: Optional[str] = None,
                        quant: Optional[object] = None,
                        max_len: Optional[int] = DEFAULT_MAX_LEN,
                        repeats: int = 2) -> Dict:
    """Measure serial vs micro-batched request throughput.

    Returns a JSON-safe record: wall-clock seconds and requests/sec for
    both paths, the speedup, the server's stats snapshot (queue depth,
    batch histogram, latency percentiles) and the pool's weight-cache
    counters.  ``repeats`` keeps the best wall clock of each path (the
    usual best-of-N benchmark discipline).
    """
    if concurrency < 1:
        raise ValueError(f"concurrency must be >= 1, got {concurrency}")
    pool = ModelPool(profile=profile, quant=quant)
    entry = pool.get(model)           # warm before either timed path
    requests = build_requests(model, num_requests, seed=seed,
                              max_len=max_len)

    serial_s = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        serial_results = serial_reference(entry, requests)
        serial_s = min(serial_s, time.perf_counter() - t0)

    batched_s = float("inf")
    stats: Dict = {}
    for _ in range(repeats):
        server = InferenceServer(pool, max_batch=max_batch,
                                 max_wait_ms=max_wait_ms, workers=workers)
        with server:
            t0 = time.perf_counter()
            batched_results = _submit_all(server, requests, concurrency)
            server.drain()
            elapsed = time.perf_counter() - t0
        if elapsed < batched_s:
            batched_s = elapsed
            stats = server.stats.snapshot()

    matches = sum(1 for a, b in zip(serial_results, batched_results)
                  if _same_result(a, b))
    return {
        "config": {
            "model": model, "concurrency": concurrency,
            "num_requests": num_requests, "max_batch": max_batch,
            "max_wait_ms": max_wait_ms, "workers": workers,
            "max_len": max_len, "seed": seed,
            "profile": profile,
            "quant": getattr(quant, "label", quant and str(quant)),
        },
        "serial": {
            "wall_s": round(serial_s, 4),
            "requests_per_sec": round(num_requests / serial_s, 2),
        },
        "batched": {
            "wall_s": round(batched_s, 4),
            "requests_per_sec": round(num_requests / batched_s, 2),
        },
        "speedup": round(serial_s / batched_s, 2),
        "blas_token_match_rate": round(matches / num_requests, 4),
        "server_stats": stats,
        "weight_cache": pool.weight_cache_stats(),
    }


def _same_result(a: Any, b: Any) -> bool:
    return a == b


def run_fault_recovery(model: str = "transformer", num_requests: int = 12,
                       max_batch: int = 4, seed: int = 0, bit_index: int = 1,
                       target: Optional[str] = None,
                       max_len: Optional[int] = 16,
                       quant: Optional[object] = None) -> Dict:
    """Closed-loop self-healing check: inject, serve, verify recovery.

    Serves half the seeded request mix, injects a single
    ``bit_index`` register flip (default 1 = the float32 exponent MSB,
    the paper's catastrophic-SDC bit) into one element of a pooled
    weight tensor via :func:`repro.resilience.inject.flip_float_register`
    + ``swap_parameter`` — exactly what the campaign engine does — then
    serves the second half *through the fault*.  The resilient server
    must detect (probe or CRC), restore from the golden stream, retry,
    and deliver every request token-identical to the clean serial
    reference with zero failures.

    Deterministic by construction: the periodic scrub daemon is
    disabled so detection happens via the per-batch verify on the first
    faulty batch, and both sides decode under ``deterministic_matmul``.
    """
    from ..resilience.inject import flip_float_register
    pool = ModelPool(quant=quant)
    entry = pool.get(model)
    requests = build_requests(model, num_requests, seed=seed,
                              max_len=max_len)
    with deterministic_matmul():
        expected = serial_reference(entry, requests)
    config = ResilienceConfig(scrub_interval_s=None, verify_batches=True,
                              probe=True)
    server = InferenceServer(pool, max_batch=max_batch, max_wait_ms=10.0,
                             deterministic=True, resilience=config)
    half = max(1, num_requests // 2)
    with server:
        futures = [server.submit(r.kind, r.payload, max_len=r.max_len)
                   for r in requests[:half]]
        server.drain()
        if target is None:
            target = next(name for name, _ in entry.model.named_parameters()
                          if name.endswith(".weight") or name == "weight")
        param = entry.model.get_parameter(target)
        rng = fresh_rng([seed, 0xFA117])
        element = int(rng.integers(param.data.size))
        faulty = param.data.copy()
        faulty.flat[element] = flip_float_register(
            float(faulty.flat[element]), bit_index)
        entry.model.swap_parameter(target, faulty)
        futures += [server.submit(r.kind, r.payload, max_len=r.max_len)
                    for r in requests[half:]]
        server.drain()
        results: List[Any] = []
        errors = 0
        for future in futures:
            try:
                results.append(future.result(timeout=300.0))
            except Exception as error:
                # Expected when recovery fails; counted, not dropped.
                _HARVEST_ERRORS.labels(site="bench.fault_recovery",
                                       exc=type(error).__name__).inc()
                errors += 1
                results.append(None)
        stats = server.stats.snapshot()
    resilience = stats["resilience"]
    token_identical = (errors == 0 and
                       all(_same_result(a, b)
                           for a, b in zip(expected, results)))
    return {
        "config": {
            "model": model, "num_requests": num_requests,
            "max_batch": max_batch, "max_len": max_len, "seed": seed,
            "quant": getattr(quant, "label", quant and str(quant)),
        },
        "injected": {"tensor": target, "bit_index": bit_index,
                     "element": element},
        "token_identical": token_identical,
        "failed_requests": stats["requests"]["failed"],
        "detected": resilience["faults_detected"] >= 1,
        "restored": resilience["restores"] >= 1,
        "retried": resilience["retries"] >= 1,
        "resilience": resilience,
    }


def measure_scrub_overhead(model: str = "transformer",
                           concurrency: int = 8, num_requests: int = 48,
                           max_batch: int = 16, max_wait_ms: float = 5.0,
                           seed: int = 0, max_len: Optional[int] = 32,
                           rounds: int = 7,
                           scrub_interval_s: float = 0.05) -> Dict:
    """p50 latency cost of scrubbing: baseline vs scrub-enabled server.

    The scrub-enabled run uses the integrity machinery alone (per-batch
    CRC verify + an aggressive periodic daemon; the Sanitizer probe is
    off — it instruments every op, and :func:`measure_probe_overhead`
    prices it): this is the "scrubbing enabled" configuration the <5%
    p50 acceptance gate covers.  After one untimed warm-up round, a
    baseline and a scrubbed server alternate for ``rounds`` rounds on
    the same warm pool and request mix, so host load lands on both
    alike, and ``p50_overhead`` compares the median round p50s.
    """
    pool = ModelPool()
    pool.get(model)                   # warm before either timed path
    requests = build_requests(model, num_requests, seed=seed,
                              max_len=max_len)
    scrub_config = ResilienceConfig(scrub_interval_s=scrub_interval_s,
                                    verify_batches=True, probe=False)

    def one_round(resilience: Optional[ResilienceConfig]) -> Dict:
        server = InferenceServer(pool, max_batch=max_batch,
                                 max_wait_ms=max_wait_ms,
                                 resilience=resilience)
        with server:
            _submit_all(server, requests, concurrency)
            server.drain()
        return server.stats.snapshot()

    one_round(None)                   # warm untimed
    base_p50s: List[float] = []
    scrub_p50s: List[float] = []
    for _ in range(rounds):
        base_p50s.append(one_round(None)["latency"]["p50_ms"])
        scrubbed = one_round(scrub_config)
        scrub_p50s.append(scrubbed["latency"]["p50_ms"])
    base_p50 = statistics.median(base_p50s)
    scrub_p50 = statistics.median(scrub_p50s)
    return {
        "config": {
            "model": model, "concurrency": concurrency,
            "num_requests": num_requests, "max_batch": max_batch,
            "max_wait_ms": max_wait_ms, "max_len": max_len, "seed": seed,
            "rounds": rounds, "scrub_interval_s": scrub_interval_s,
        },
        "baseline_p50_ms": base_p50,
        "scrubbed_p50_ms": scrub_p50,
        "p50_overhead": round(scrub_p50 / base_p50 - 1.0, 4)
        if base_p50 else 0.0,
        "scrub_counters": scrubbed["resilience"],
    }


def measure_probe_overhead(models: Sequence[str] = ("transformer", "seq2seq",
                                                   "resnet"),
                           seed: int = 0) -> Dict[str, Dict]:
    """Batch-1 latency cost of the self-healing Sanitizer probe.

    Per family, one request's :func:`run_microbatch` (decode cap 16)
    runs plain and under the collecting :class:`~repro.nn.Sanitizer` the
    resilient engine wraps every micro-batch in (built per batch, as the
    engine does), on one warm AdaptivFloat-8 pool — the paper's format,
    and the served configuration whose weight-quant memo keeps the
    probe's stats.  The two sides alternate round by round so host load
    lands on both, and each keeps its fastest of 5 rounds.  ``ratio`` is
    probed over plain; the probe observes and never perturbs, so
    ``identical`` must hold.
    """
    pool = ModelPool(quant=("adaptivfloat", 8))
    record: Dict[str, Dict] = {}
    for model in models:
        entry = pool.get(model)
        requests = build_requests(model, 1, seed=seed, max_len=16)
        with Sanitizer(entry.model, action="collect"):
            run_microbatch(entry, requests)     # warm the probe's stats
        plain_s = probed_s = float("inf")
        for _ in range(5):
            t0 = time.perf_counter()
            plain = run_microbatch(entry, requests)
            plain_s = min(plain_s, time.perf_counter() - t0)
            t0 = time.perf_counter()
            with Sanitizer(entry.model, action="collect") as report:
                probed = run_microbatch(entry, requests)
            probed_s = min(probed_s, time.perf_counter() - t0)
        record[model] = {
            "plain_ms": round(plain_s * 1e3, 3),
            "probed_ms": round(probed_s * 1e3, 3),
            "ratio": round(probed_s / plain_s, 3),
            "ops_checked": report.ops_checked,
            "findings": len(report.findings),
            "identical": _same_result(plain, probed),
        }
    return record


def measure_obs_overhead(model: str = "transformer",
                         concurrency: int = 8, num_requests: int = 48,
                         max_batch: int = 16, max_wait_ms: float = 5.0,
                         seed: int = 0, max_len: Optional[int] = 32,
                         repeats: int = 3) -> Dict:
    """p50 latency cost of the metrics spine on the serve micro-bench.

    End-to-end A/B timing cannot resolve this overhead: the serve p50
    jitters several percent run to run (batch-formation timing under
    thread scheduling), while the spine's true cost is microseconds per
    request.  So the measurement is split:

    1. the serve micro-benchmark (best-of-``repeats`` p50 with the
       registry enabled, the shipping configuration) sets the latency
       budget, and
    2. one request's worth of instrument calls — the ``ServerStats``
       mirror events plus the three tracer spans the engine emits — is
       micro-timed in a tight loop, once with the registry recording
       and once disabled via :func:`repro.obs.disabled` (every
       instrument reduced to one attribute read + branch).  The
       ``ServerStats`` dict/lock work runs identically on both sides,
       so the difference isolates the obs mirror: child lock + float
       adds, span ring appends, histogram bisects.

    ``p50_overhead`` is that per-request cost as a fraction of the p50;
    the committed benchmark gates it below 2% (measured well under
    0.1%) — the spine must be cheap enough to leave on.
    """
    pool = ModelPool()
    pool.get(model)                   # warm before the timed runs
    requests = build_requests(model, num_requests, seed=seed,
                              max_len=max_len)

    def one_p50() -> float:
        server = InferenceServer(pool, max_batch=max_batch,
                                 max_wait_ms=max_wait_ms)
        with server:
            _submit_all(server, requests, concurrency)
            server.drain()
        return server.stats.latency.summary()["p50_ms"]

    one_p50()                         # warm untimed
    p50_ms = min(one_p50() for _ in range(repeats))

    stats = ServerStats()
    iters = 20_000

    def bundle_cost_us() -> float:
        """Mean microseconds for one request's instrumentation."""
        t0 = time.perf_counter()
        for _ in range(iters):
            stats.record_submit()
            stats.record_batch(max_batch)   # >= actual (1/batch amortized)
            stats.record_done(0.01, 0.001)
            obs.TRACER.record("serve.queue", 0.0, 0.001, trace_id="bench")
            obs.TRACER.record("serve.batch", 0.0, 0.01, trace_id="bench",
                              size=max_batch)
            obs.TRACER.record("serve.request", 0.0, 0.01, trace_id="bench",
                              kind="bench", outcome="ok")
        return (time.perf_counter() - t0) / iters * 1e6

    bundle_cost_us()                  # warm untimed
    enabled_us = min(bundle_cost_us() for _ in range(repeats))
    with obs.disabled():
        disabled_us = min(bundle_cost_us() for _ in range(repeats))
    cost_us = max(0.0, enabled_us - disabled_us)
    return {
        "config": {
            "model": model, "concurrency": concurrency,
            "num_requests": num_requests, "max_batch": max_batch,
            "max_wait_ms": max_wait_ms, "max_len": max_len, "seed": seed,
            "repeats": repeats, "bundle_iters": iters,
        },
        "p50_ms": p50_ms,
        "enabled_bundle_us": round(enabled_us, 3),
        "disabled_bundle_us": round(disabled_us, 3),
        "obs_cost_per_request_us": round(cost_us, 3),
        "p50_overhead": round(cost_us / (p50_ms * 1e3), 6)
        if p50_ms else 0.0,
    }


def check_equivalence(models: Sequence[str] = ("transformer", "seq2seq",
                                               "resnet"),
                      num_requests: int = 12, concurrency: int = 6,
                      max_batch: int = 4, seed: int = 0,
                      quant: Optional[object] = None,
                      max_len: Optional[int] = 16) -> Dict[str, bool]:
    """Token-identity of micro-batched vs serial decode, per family.

    Runs under ``deterministic_matmul`` on both sides (server workers
    via ``deterministic=True``), so any mismatch is a real batching bug,
    not BLAS shape-dependent rounding.
    """
    pool = ModelPool(quant=quant)
    verdicts: Dict[str, bool] = {}
    for model in models:
        entry = pool.get(model)
        requests = build_requests(model, num_requests, seed=seed,
                                  max_len=max_len)
        with deterministic_matmul():
            expected = serial_reference(entry, requests)
        server = InferenceServer(pool, max_batch=max_batch,
                                 max_wait_ms=20.0, deterministic=True)
        with server:
            actual = _submit_all(server, requests, concurrency)
        verdicts[model] = all(_same_result(a, b)
                              for a, b in zip(expected, actual))
    return verdicts
