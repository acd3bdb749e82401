"""Serving-throughput benchmarks: micro-batched vs serial request paths.

``tools/bench_report.py --suite serve`` commits the full acceptance
workload (16 concurrent clients, 64 requests, >= 3x gate) into
``BENCH_serve.json``.  This module is the CI-sized companion: the
speed-gate test at the bottom runs under ``--benchmark-disable`` in the
``serve-smoke`` job and trips if micro-batching stops clearing 2x over
the serial reference at reduced concurrency.
"""

import pytest

from repro.serve import ModelPool
from repro.serve.bench import (build_requests, check_equivalence,
                               run_serve_benchmark)
from repro.serve.batching import serial_reference

CONCURRENCY = 16
NUM_REQUESTS = 32
MAX_LEN = 24


@pytest.fixture(scope="module")
def warm_pool():
    pool = ModelPool()
    pool.get("transformer")
    return pool


@pytest.fixture(scope="module")
def workload():
    return build_requests("transformer", NUM_REQUESTS, seed=0,
                          max_len=MAX_LEN)


def test_serial_reference(benchmark, warm_pool, workload):
    entry = warm_pool.get("transformer")
    results = benchmark(serial_reference, entry, workload)
    assert len(results) == NUM_REQUESTS


def test_batched_serving(benchmark, warm_pool, workload):
    from repro.serve.bench import _submit_all
    from repro.serve.engine import InferenceServer

    def run():
        server = InferenceServer(warm_pool, max_batch=16, max_wait_ms=5.0)
        with server:
            results = _submit_all(server, workload, CONCURRENCY)
            server.drain()
        return results

    results = benchmark(run)
    assert len(results) == NUM_REQUESTS


def test_serve_speedup_gate():
    """CI tripwire (runs under --benchmark-disable): micro-batched
    serving must stay >= 2x the serial reference at concurrency 16 and
    return the same tokens for every request (BLAS path)."""
    record = run_serve_benchmark(
        model="transformer", concurrency=CONCURRENCY,
        num_requests=NUM_REQUESTS, max_batch=16, max_wait_ms=5.0,
        seed=0, max_len=MAX_LEN, repeats=2)
    assert record["blas_token_match_rate"] == 1.0, record
    assert record["weight_cache"] == {"hits": 0, "misses": 0}  # no quant
    assert record["speedup"] >= 2.0, (
        f"micro-batching speedup regressed: {record['speedup']:.2f}x")


def test_obs_overhead_gate():
    """CI tripwire: the enabled metrics registry must cost < 2% p50 on
    the serve micro-benchmark vs the disabled (branch-only) path."""
    from repro.serve.bench import measure_obs_overhead

    record = measure_obs_overhead(
        model="transformer", concurrency=8, num_requests=32,
        max_batch=16, max_wait_ms=5.0, seed=0, max_len=MAX_LEN, repeats=3)
    assert record["p50_overhead"] < 0.02, (
        f"obs instrumentation overhead regressed: "
        f"{record['p50_overhead']:.3%} of p50 "
        f"({record['obs_cost_per_request_us']:.1f}us/request vs p50 "
        f"{record['p50_ms']:.2f}ms)")


def test_probe_overhead_gate():
    """CI tripwire: the self-healing Sanitizer probe must keep batch-1
    translate and transcribe under 2.5x their plain latency on a warm
    AdaptivFloat-8 pool.  Re-measuring every memoized weight on every
    probed call cost about 3.5x and 5x."""
    from repro.serve.bench import measure_probe_overhead

    record = measure_probe_overhead(models=("transformer", "seq2seq"))
    for model, probe in record.items():
        assert probe["identical"], (model, probe)
        assert probe["ratio"] < 2.5, (
            f"{model} probe overhead regressed: {probe['ratio']:.2f}x "
            f"({probe['plain_ms']:.1f}ms plain -> "
            f"{probe['probed_ms']:.1f}ms probed)")


def test_serve_token_identity_gate():
    """Batched padded decode must be token-identical to serial decode
    under deterministic_matmul for every model family."""
    verdicts = check_equivalence(num_requests=8, concurrency=4,
                                 max_batch=4, seed=0, max_len=12)
    assert all(verdicts.values()), verdicts
