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

import time
from concurrent.futures import Future
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .. import obs
from ..nn import deterministic_matmul
from ..rng import fresh_rng
from .batching import KINDS, Request, serial_reference
from .engine import InferenceServer, _count_swallowed
from .pool import ModelPool
from .resilient import ResilienceConfig

__all__ = ["build_requests", "check_equivalence", "run_serve_benchmark",
           "run_fault_recovery", "serve"]

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


def serve(pool: ModelPool, requests: Sequence[Request], concurrency: int,
          resilience: Optional[ResilienceConfig] = None, max_batch: int = 16,
          max_wait_ms: float = 5.0, workers: int = 1
          ) -> Tuple[float, List[Any], Dict]:
    """``requests`` from ``concurrency`` client threads through a fresh
    server on ``pool``: the wall clock from first submit to drain, the
    results in request order and the server's stats snapshot."""
    server = InferenceServer(pool, max_batch=max_batch,
                             max_wait_ms=max_wait_ms, workers=workers,
                             resilience=resilience)
    with server:
        start = time.perf_counter()
        results = _submit_all(server, requests, concurrency)
        server.drain()
        wall_s = time.perf_counter() - start
    return wall_s, results, server.stats.snapshot()


def _memo_reads() -> Dict[str, int]:
    """``repro_weight_quant_cache_total`` so far, as hits and misses."""
    family = obs.REGISTRY.get("repro_weight_quant_cache_total")
    return {key: int(family.labels(outcome=outcome).value)
            for key, outcome in (("hits", "hit"), ("misses", "miss"))}


def run_serve_benchmark(model: str = "transformer", concurrency: int = 16,
                        num_requests: int = 64, max_batch: int = 16,
                        max_wait_ms: float = 5.0, workers: int = 1,
                        seed: int = 0, profile: Optional[str] = None,
                        quant: Optional[object] = None,
                        max_len: Optional[int] = DEFAULT_MAX_LEN) -> Dict:
    """Measure serial vs micro-batched request throughput.

    Returns a JSON-safe record: wall-clock seconds and requests/sec for
    both paths, the speedup, the server's stats snapshot (queue depth,
    batch histogram, latency percentiles) and ``weight_cache``, the
    weight-quant memo's hits and misses during that batched run (the
    delta of ``repro_weight_quant_cache_total``, so nothing else in the
    process may run models meanwhile; zero without ``quant``).
    Each path is timed once; the committed record's speedup comes from
    paired rounds instead (``measure_serve_speedup`` in
    ``benchmarks/test_serve_throughput.py``).
    """
    if concurrency < 1:
        raise ValueError(f"concurrency must be >= 1, got {concurrency}")
    pool = ModelPool(profile=profile, quant=quant)
    entry = pool.get(model)           # warm before either timed path
    requests = build_requests(model, num_requests, seed=seed,
                              max_len=max_len)

    t0 = time.perf_counter()
    serial_results = serial_reference(entry, requests)
    serial_s = time.perf_counter() - t0

    memo_before = _memo_reads()
    batched_s, batched_results, stats = serve(
        pool, requests, concurrency, None, max_batch, max_wait_ms, workers)
    memo = {key: value - memo_before[key]
            for key, value in _memo_reads().items()}

    matches = sum(1 for a, b in zip(serial_results, batched_results)
                  if a == b)
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
        "weight_cache": memo,
    }


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
                _count_swallowed("bench.fault_recovery", error)
                errors += 1
                results.append(None)
        stats = server.stats.snapshot()
    resilience = stats["resilience"]
    token_identical = (errors == 0 and
                       all(a == b for a, b in zip(expected, results)))
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
        verdicts[model] = all(a == b for a, b in zip(expected, actual))
    return verdicts
