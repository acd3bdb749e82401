"""Serving-throughput gates: micro-batched vs serial request paths.

``tools/bench_report.py --suite serve`` commits the full acceptance
workload (16 concurrent clients, 64 requests, >= 3x gate) into
``BENCH_serve.json``.  This module is the CI-sized companion: its gate
tests run in CI's serving smoke entry, and the speed gate trips if
micro-batching stops clearing 2x over the serial reference at reduced
concurrency.  It also holds the measurements behind both sites' A/B
gates (``benchmarks/ab.py``): the batched-vs-serial speedup and the
prices of scrubbing, of the Sanitizer probe and of the metrics spine.
"""

import statistics

from benchmarks import ab
from repro import obs
from repro.nn import Sanitizer
from repro.serve import (ModelPool, ResilienceConfig, ServerStats,
                         run_microbatch)
from repro.serve.bench import (_memo_reads, build_requests,
                               check_equivalence, serve)
from repro.serve.batching import serial_reference

CONCURRENCY = 16
NUM_REQUESTS = 32
MAX_LEN = 24

#: The scrub gate's workload and its scrubbed configuration: per-batch
#: CRC verify plus an aggressive periodic daemon, no probe.
SCRUB_CONFIG = {"model": "transformer", "concurrency": 8,
                "num_requests": 48, "max_len": 32, "seed": 0,
                "scrub_interval_s": 0.05}


def measure_serve_speedup(min_speedup, model="transformer",
                          concurrency=CONCURRENCY, num_requests=NUM_REQUESTS,
                          max_batch=16, max_wait_ms=5.0, workers=1, seed=0,
                          max_len=MAX_LEN):
    """Batched (A) against serial (B) wall clock on one warm pool, gated
    at ``min_speedup``: the comparison, and the last rounds' ``batched``
    and ``serial`` results, the last server's ``stats`` snapshot and the
    weight-memo reads (``memo``) over the whole comparison."""
    pool = ModelPool()
    entry = pool.get(model)           # warm before either timed path
    requests = build_requests(model, num_requests, seed=seed,
                              max_len=max_len)
    out = {}

    def batched():
        wall_s, out["batched"], out["stats"] = serve(
            pool, requests, concurrency, None, max_batch, max_wait_ms,
            workers)
        return wall_s

    def serial():
        out["serial"] = serial_reference(entry, requests)

    memo_before = _memo_reads()
    speedup = ab.compare(batched, ab.timed(serial), at_least=min_speedup)
    out["memo"] = {key: value - memo_before[key]
                   for key, value in _memo_reads().items()}
    return speedup, out


def measure_scrub_overhead(max_overhead):
    """p50 latency cost of scrubbing, gated at ``max_overhead``: each
    sample is one baseline (A) or scrubbed (B) server's p50 over
    :data:`SCRUB_CONFIG`'s request mix on one warm pool, and the
    statistic is B's p50 over A's, less one.  The probe is off here;
    :func:`measure_probe_overhead` prices it."""
    config = SCRUB_CONFIG
    pool = ModelPool()
    pool.get(config["model"])         # warm before either timed path
    requests = build_requests(config["model"], config["num_requests"],
                              seed=config["seed"], max_len=config["max_len"])
    scrubbed = ResilienceConfig(scrub_interval_s=config["scrub_interval_s"],
                                verify_batches=True, probe=False)
    snapshots = {}

    def p50(resilience):
        def sample():
            snapshot = serve(pool, requests, config["concurrency"],
                             resilience)[2]
            snapshots[resilience is None] = snapshot
            return snapshot["latency"]["p50_ms"]
        return sample

    overhead = ab.compare(p50(None), p50(scrubbed), at_most=max_overhead,
                          statistic=lambda a, b: b / a - 1.0)
    return overhead, {
        "config": config,
        "baseline_p50_ms": round(statistics.median(overhead.a), 4),
        "scrubbed_p50_ms": round(statistics.median(overhead.b), 4),
        "p50_overhead": overhead.record(),
        "scrub_counters": snapshots[False]["resilience"],
    }


def measure_probe_overhead(max_ratio):
    """Batch-1 latency cost of the self-healing Sanitizer probe.

    For translate and transcribe, one request's :func:`run_microbatch`
    (decode cap 16) runs plain (A) and under the collecting
    :class:`~repro.nn.Sanitizer` the resilient engine wraps every
    micro-batch in (B, built per batch, as the engine does), on one warm
    AdaptivFloat-8 pool -- the paper's format, whose weight-quant memo
    keeps the probe's stats (the warm-up round fills it).  The probe
    never perturbs: ``identical`` must hold.
    """
    pool = ModelPool(quant=("adaptivfloat", 8))
    record = {}
    for model in ("transformer", "seq2seq"):
        entry = pool.get(model)
        requests = build_requests(model, 1, seed=0, max_len=16)
        out = {}

        def plain():
            out["plain"] = run_microbatch(entry, requests)

        def probed():
            with Sanitizer(entry.model, action="collect"):
                out["probed"] = run_microbatch(entry, requests)

        ratio = ab.compare(ab.timed(plain), ab.timed(probed),
                           at_most=max_ratio)
        record[model] = {"ratio": ratio,
                         "plain_ms": statistics.median(ratio.a) * 1e3,
                         "probed_ms": statistics.median(ratio.b) * 1e3,
                         "identical": out["plain"] == out["probed"]}
    return record


def measure_obs_overhead(max_overhead, num_requests=48, max_len=32):
    """p50 latency cost of the metrics spine, gated at ``max_overhead``.

    End-to-end A/B timing cannot resolve it: the serve p50 jitters
    several percent run to run, while the spine costs microseconds per
    request.  So one served run (after a warm one, registry on, as
    shipped) sets the p50 budget, and one request's instrument calls --
    the ``ServerStats`` events plus the engine's three tracer spans --
    run in a tight loop with the registry disabled (A, via
    :func:`repro.obs.disabled`: each instrument is one attribute read +
    branch) and recording (B).  ``ServerStats`` counts only in the
    registry, so B - A prices the whole per-request bundle: child locks
    + float adds, span ring appends, histogram bisects.  The statistic
    is that cost per request over the p50.
    """
    pool = ModelPool()
    pool.get("transformer")           # warm before the timed runs
    requests = build_requests("transformer", num_requests, seed=0,
                              max_len=max_len)
    serve(pool, requests, 8)          # warm untimed
    p50_ms = serve(pool, requests, 8)[2]["latency"]["p50_ms"]
    stats = ServerStats()
    iters = 20_000

    def bundle():
        for _ in range(iters):
            stats.record_submit()
            stats.record_batch(16)      # >= actual (1/batch amortized)
            stats.record_done(0.01, 0.001)
            obs.TRACER.record("serve.queue", 0.0, 0.001, trace_id="bench")
            obs.TRACER.record("serve.batch", 0.0, 0.01, trace_id="bench",
                              size=16)
            obs.TRACER.record("serve.request", 0.0, 0.01, trace_id="bench",
                              kind="bench", outcome="ok")

    def disabled():
        with obs.disabled():
            bundle()

    overhead = ab.compare(
        ab.timed(disabled), ab.timed(bundle), at_most=max_overhead,
        statistic=lambda a, b: (b - a) / iters / (p50_ms * 1e-3))
    return overhead, {
        "config": {"num_requests": num_requests, "max_len": max_len,
                   "bundle_iters": iters},
        "p50_ms": p50_ms,
        "disabled_bundle_us": round(
            statistics.median(overhead.a) / iters * 1e6, 3),
        "enabled_bundle_us": round(
            statistics.median(overhead.b) / iters * 1e6, 3),
        "p50_overhead": overhead.record(digits=6),
    }


def test_serve_speedup_gate():
    """CI tripwire (runs under --benchmark-disable): micro-batched
    serving must stay >= 2x the serial reference at concurrency 16 and
    return the same tokens for every request (BLAS path)."""
    speedup, out = measure_serve_speedup(2.0)
    assert out["batched"] == out["serial"]
    assert not any(out["memo"].values())      # no quant, no memo reads
    assert speedup.passed, f"micro-batching speedup {speedup}"


def test_obs_overhead_gate():
    """CI tripwire: the enabled metrics registry must cost < 2% p50 on
    the serve micro-benchmark vs the disabled (branch-only) path."""
    overhead, record = measure_obs_overhead(0.02, num_requests=32,
                                            max_len=MAX_LEN)
    assert overhead.passed, (
        f"obs instrumentation overhead (share of p50) {overhead}; "
        f"bundle {record['enabled_bundle_us']:.1f}us recording vs "
        f"{record['disabled_bundle_us']:.1f}us disabled, p50 "
        f"{record['p50_ms']:.2f}ms")


def test_probe_overhead_gate():
    """CI tripwire: the self-healing Sanitizer probe must keep batch-1
    translate and transcribe under 2.0x their plain latency on a warm
    AdaptivFloat-8 pool.  Screening every op's output cost about 2.1x;
    the float-flag gate of :mod:`repro.nn.sanitize` brought it under the
    bound (docs/serving.md, "What the probe costs")."""
    for model, probe in measure_probe_overhead(2.0).items():
        assert probe["identical"], (model, probe)
        assert probe["ratio"].passed, (
            f"{model} probe overhead {probe['ratio']} "
            f"({probe['plain_ms']:.1f}ms plain -> "
            f"{probe['probed_ms']:.1f}ms probed)")


def test_serve_token_identity_gate():
    """Batched padded decode must be token-identical to serial decode
    under deterministic_matmul for every model family."""
    verdicts = check_equivalence(num_requests=8, concurrency=4,
                                 max_batch=4, seed=0, max_len=12)
    assert all(verdicts.values()), verdicts
