#!/usr/bin/env python
"""Regenerate the committed benchmark records (BENCH_*.json).

Two suites:

* ``--suite formats`` (default) — quantization/codec throughput from
  ``benchmarks/test_format_kernels.py`` -> ``BENCH_formats.json``.
  ``--with-analytic`` also times the analytic reference path
  (``REPRO_NO_CODEBOOK=1``) and records per-benchmark speedup ratios.
* ``--suite decode`` — KV-cached vs naive autoregressive decoding, the
  calls of ``benchmarks/test_decode_throughput.py`` timed in
  alternating cached/naive rounds in one process -> ``BENCH_decode.json``,
  with a ``speedup`` (ratio of medians) per cached/naive pair.
* ``--suite resilience`` — the seeded bit-flip fault-injection campaign
  (``repro.resilience``, fast profile, transformer, all five formats at
  8 bits) -> ``BENCH_resilience.json``.  The record has three blocks:
  ``campaign`` (the deterministic grid, timing stripped — byte-identical
  across machines and warm re-runs), ``throughput`` (trial-loop
  trials/sec for the naive reference loop vs the cached-encode engine,
  the median wall clock of whole campaign calls over alternating
  naive/engine rounds, and the equivalence checks: per-trial fault
  checksums and campaign counters must match between the two paths),
  and ``machine``.  The engine must clear a >= 3x trial-loop
  speedup or the run fails.
* ``--suite serve`` — micro-batched vs serial request throughput
  through ``repro.serve`` (transformer greedy workload, 16 concurrent
  clients) -> ``BENCH_serve.json`` with the server's queue/batch/latency
  stats, the per-family batched-vs-serial token-identity verdicts
  (under ``deterministic_matmul``), and a ``resilience`` block: the
  closed-loop single-fault recovery record (exponent-bit weight flip
  injected mid-serve; scrub/restore/retry counters) plus the measured
  p50 latency overhead of golden-copy scrubbing and of the metrics
  spine itself (registry enabled vs disabled).  The record embeds the
  full ``repro.obs`` registry dump under ``observability.registry``
  and checks that the Prometheus text rendering round-trips through
  the validating parser.  Gates: >= 3x throughput speedup,
  every family token-identical, zero failed requests + token-identical
  recovery under injection, scrub p50 overhead below 5%, obs p50
  overhead below 2%, and the Prometheus exposition must parse.

Run:  PYTHONPATH=src python tools/bench_report.py [--suite decode]

Timings are machine-dependent; the committed files record the shape of
the comparison (which paths are fast, relative speedups), not absolute
milliseconds to be matched elsewhere.  The resilience ``campaign`` block
is the exception: it is exactly reproducible.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import tempfile
import time

REPO = pathlib.Path(__file__).resolve().parents[1]
SUITES = {
    "formats": ("benchmarks/test_format_kernels.py",
                REPO / "BENCH_formats.json"),
    "decode": (None, REPO / "BENCH_decode.json"),
    "resilience": (None, REPO / "BENCH_resilience.json"),
    "serve": (None, REPO / "BENCH_serve.json"),
}

#: The committed resilience campaign: every registry format at 8 bits,
#: single-flip field cells plus one BER cell, fast-profile transformer.
RESILIENCE_CONFIG = {
    "profile": "fast", "models": ("transformer",), "bits": 8,
    "formats": ("float", "bfp", "uniform", "posit", "adaptivfloat"),
    "fields": ("any", "sign", "exponent", "mantissa", "exp_bias"),
    "ber": (0.001,), "n_flips": 1, "trials": 12, "seed": 0,
}

#: Trial-loop throughput probe (the machinery the engine accelerates:
#: fault synthesis + state application + parameter scan, no scoring).
THROUGHPUT_CONFIG = {
    "profile": "fast", "model": "transformer",
    "format_name": "adaptivfloat", "bits": 8, "field": "any",
    "n_flips": 1, "trials": 200, "seed": 0,
}

#: Minimum trial-loop speedup (engine vs naive) the record must show.
MIN_TRIAL_LOOP_SPEEDUP = 3.0

#: Alternating naive/engine rounds of the whole timed campaign call.
CAMPAIGN_WALL_ROUNDS = 3

#: Untimed warm-up rounds, then timed alternating cached/naive rounds,
#: per decode benchmark.
DECODE_WARMUP_ROUNDS = 2
DECODE_ROUNDS = 15

#: The committed serving benchmark: the acceptance workload — transformer
#: greedy decode, 16 concurrent clients, 64 requests — plus the
#: per-family token-identity verdicts.
SERVE_CONFIG = {
    "model": "transformer", "concurrency": 16, "num_requests": 64,
    "max_batch": 16, "max_wait_ms": 5.0, "workers": 1, "seed": 0,
    "max_len": 32, "repeats": 3,
}

#: Minimum batched-vs-serial request-throughput speedup for the record.
MIN_SERVE_SPEEDUP = 3.0

#: Largest tolerated p50 latency regression with golden-copy weight
#: scrubbing enabled (per-batch CRC verify + periodic scrub daemon).
MAX_SCRUB_P50_OVERHEAD = 0.05

#: Largest tolerated p50 latency cost of the always-on metrics spine
#: (per-request instrument cost, registry enabled vs disabled, as a
#: fraction of the serve micro-benchmark p50).
MAX_OBS_P50_OVERHEAD = 0.02

#: Metric families the committed serve record must expose (the same
#: list the CI ``obs-smoke`` job asserts after scraping ``/metrics``).
REQUIRED_OBS_FAMILIES = (
    "repro_serve_requests_total", "repro_serve_batches_total",
    "repro_serve_batch_size", "repro_serve_latency_seconds",
    "repro_serve_queue_wait_seconds", "repro_serve_queue_depth",
    "repro_span_seconds", "repro_weight_quant_cache_total",
    "repro_codebook_cache", "repro_decode_lut_cache",
    "repro_scrub_passes_total", "repro_serve_degradation_state",
)


def machine_info() -> dict:
    """Interpreter/platform/numpy/threading context of a benchmark run.

    Thread and BLAS provenance matter for the timing suites: a numpy
    wheel pinned to one OpenBLAS thread and a 64-thread build produce
    very different absolute numbers for the same code.
    """
    import numpy as np

    info = {
        "python": platform.python_version(),
        "system": f"{platform.system()} {platform.machine()}",
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "thread_env": {
            var: os.environ[var]
            for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                        "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
            if var in os.environ
        },
    }
    try:
        cfg = np.show_config(mode="dicts")
        blas = cfg.get("Build Dependencies", {}).get("blas", {})
        info["blas"] = {key: blas[key] for key in
                        ("name", "version", "openblas configuration")
                        if key in blas}
    except TypeError:  # numpy < 1.25: text-only show_config
        info["blas"] = None
    return info


def _strip_timing(obj):
    """Drop every ``timing`` block so the campaign record is machine-free."""
    if isinstance(obj, dict):
        return {k: _strip_timing(v) for k, v in obj.items() if k != "timing"}
    if isinstance(obj, list):
        return [_strip_timing(v) for v in obj]
    return obj


def _counter_view(result: dict) -> dict:
    """The fault/detection/drift counters of a campaign grid.

    Everything the naive and engine loops must agree on bit-for-bit;
    score aggregates are excluded because the engine scores masked
    faults as clean without re-running the evaluation.
    """
    keys = ("trials", "flips_total", "sdc_rate", "detection_rate",
            "corrupt_rate", "nonfinite_logit_rate", "masked_probe_rate",
            "mean_logit_rms_drift", "max_logit_rms_drift",
            "detected_kinds", "clean_score", "fp32_score")
    view = {}
    for model, payload in result["models"].items():
        for fmt, per_field in payload["formats"].items():
            for field, cell in per_field.items():
                if cell is not None:
                    view[f"{model}/{fmt}/{field}"] = {k: cell[k]
                                                      for k in keys}
    return view


def _run_resilience() -> dict:
    """Campaign + throughput record; fails below the speedup gate."""
    sys.path.insert(0, str(REPO / "src"))
    from repro.resilience import campaign

    # Trial-loop throughput, with per-trial fault checksums: the digest
    # streams prove both loops install identical faulty tensors.
    naive_tp = campaign.measure_injection_throughput(
        engine=False, checksums=True, **THROUGHPUT_CONFIG)
    engine_tp = campaign.measure_injection_throughput(
        engine=True, checksums=True, **THROUGHPUT_CONFIG)
    checksums_identical = naive_tp.pop("checksums") == engine_tp.pop(
        "checksums")
    speedup = engine_tp["trials_per_sec"] / naive_tp["trials_per_sec"]

    # Whole campaign calls both ways, alternating round by round so host
    # load lands on both alike; each side keeps its median call.  The
    # cell cache is off, or later rounds would time cache reads.  The
    # committed grid is the engine one.
    os.environ["REPRO_CELL_CACHE"] = "0"
    walls = {False: [], True: []}
    grids = {}
    for _ in range(CAMPAIGN_WALL_ROUNDS):
        for engine in (False, True):
            start = time.perf_counter()
            grids[engine] = campaign.run(engine=engine, **RESILIENCE_CONFIG)
            walls[engine].append(time.perf_counter() - start)
    naive_grid, engine_grid = grids[False], grids[True]
    naive_s = statistics.median(walls[False])
    engine_s = statistics.median(walls[True])
    campaign_trials = engine_grid["timing"]["cells"] * engine_grid["trials"]
    counters_identical = (_counter_view(naive_grid)
                          == _counter_view(engine_grid))

    if not checksums_identical:
        raise SystemExit("naive/engine fault checksums diverge")
    if not counters_identical:
        raise SystemExit("naive/engine campaign counters diverge")
    if speedup < MIN_TRIAL_LOOP_SPEEDUP:
        raise SystemExit(f"trial-loop speedup {speedup:.2f}x below the "
                         f"{MIN_TRIAL_LOOP_SPEEDUP}x gate")

    return {
        "campaign": _strip_timing(engine_grid),
        "throughput": {
            "trial_loop": {
                "naive": naive_tp,
                "engine": engine_tp,
                "speedup": round(speedup, 2),
                "checksums_identical": checksums_identical,
            },
            "campaign_wall": {
                "rounds": CAMPAIGN_WALL_ROUNDS,
                "naive_s": round(naive_s, 3),
                "engine_s": round(engine_s, 3),
                "naive_trials_per_sec": round(campaign_trials / naive_s, 2),
                "engine_trials_per_sec": round(campaign_trials / engine_s,
                                               2),
                "speedup": round(naive_s / engine_s, 2),
            },
            "counters_identical": counters_identical,
        },
        "machine": machine_info(),
    }


def _run_decode() -> dict:
    """Cached vs naive decode, timed in alternating rounds.

    Every round times one cached and one naive call of the same
    benchmark back to back, so host load lands on both paths alike
    (pytest-benchmark times all rounds of one path before the other).
    Each path keeps its median and mean call; the ``speedup`` is the
    ratio of the medians.
    """
    sys.path[:0] = [str(REPO / "src"), str(REPO)]
    from benchmarks.test_decode_throughput import (decode_cases,
                                                   seq2seq_model,
                                                   transformer_model)

    cases = decode_cases(transformer_model(), seq2seq_model())
    benchmarks = {}
    for name, (call, _rows) in cases.items():
        for _ in range(DECODE_WARMUP_ROUNDS):
            call(True)
            call(False)
        times = {True: [], False: []}
        for _ in range(DECODE_ROUNDS):
            for use_cache in (True, False):
                start = time.perf_counter()
                call(use_cache)
                times[use_cache].append(time.perf_counter() - start)
        for use_cache, label in ((True, "cached"), (False, "naive")):
            benchmarks[f"{name}[{label}]"] = {
                "median_ms": round(statistics.median(times[use_cache])
                                   * 1e3, 4),
                "mean_ms": round(statistics.mean(times[use_cache]) * 1e3,
                                 4),
                "rounds": DECODE_ROUNDS,
            }
    _pair_cached_naive(benchmarks)
    return {"machine": machine_info(),
            "benchmarks": dict(sorted(benchmarks.items()))}


def _run_serve() -> dict:
    """Serving throughput + token-identity + resilience record.

    Three gates: batched-vs-serial speedup, per-family token identity,
    and the self-healing loop — a single exponent-bit weight fault
    injected mid-serve must be detected, restored, and retried with
    zero failed requests and token-identical output, and scrubbing must
    cost less than :data:`MAX_SCRUB_P50_OVERHEAD` of p50 latency.
    """
    sys.path.insert(0, str(REPO / "src"))
    from repro import obs
    from repro.obs import parse_prometheus
    from repro.serve.bench import (check_equivalence, measure_obs_overhead,
                                   measure_scrub_overhead,
                                   run_fault_recovery, run_serve_benchmark)

    record = run_serve_benchmark(**SERVE_CONFIG)
    identity = check_equivalence(seed=SERVE_CONFIG["seed"])
    recovery = run_fault_recovery(seed=SERVE_CONFIG["seed"])
    overhead = measure_scrub_overhead(seed=SERVE_CONFIG["seed"])
    obs_overhead = measure_obs_overhead(seed=SERVE_CONFIG["seed"])

    if record["speedup"] < MIN_SERVE_SPEEDUP:
        raise SystemExit(f"batched-vs-serial speedup {record['speedup']}x "
                         f"below the {MIN_SERVE_SPEEDUP}x gate")
    failures = [name for name, same in identity.items() if not same]
    if failures:
        raise SystemExit("batched decode not token-identical to serial "
                         f"for: {failures}")
    if recovery["failed_requests"] or not recovery["token_identical"]:
        raise SystemExit(
            "self-healing gate failed under single-fault injection: "
            f"failed={recovery['failed_requests']} "
            f"token_identical={recovery['token_identical']}")
    if not (recovery["detected"] and recovery["restored"]
            and recovery["retried"]):
        raise SystemExit("self-healing gate: fault was not "
                         f"detected/restored/retried ({recovery})")
    if overhead["p50_overhead"] > MAX_SCRUB_P50_OVERHEAD:
        raise SystemExit(
            f"scrub p50 overhead {overhead['p50_overhead']:.1%} above "
            f"the {MAX_SCRUB_P50_OVERHEAD:.0%} gate")
    if obs_overhead["p50_overhead"] > MAX_OBS_P50_OVERHEAD:
        raise SystemExit(
            f"obs p50 overhead {obs_overhead['p50_overhead']:.1%} above "
            f"the {MAX_OBS_P50_OVERHEAD:.0%} gate")

    # The exposition gate: render the registry the bench run populated
    # and push it through the validating parser — the committed record
    # must carry a scrape a real Prometheus server would accept.
    exposition = obs.render_prometheus()
    families = parse_prometheus(exposition)
    missing = [name for name in REQUIRED_OBS_FAMILIES
               if name not in families]
    if missing:
        raise SystemExit(f"obs exposition missing families: {missing}")

    return {
        "throughput": record,
        "token_identity": identity,
        "resilience": {
            "fault_recovery": recovery,
            "scrub_overhead": overhead,
        },
        "observability": {
            "obs_overhead": obs_overhead,
            "prometheus_families": len(families),
            "prometheus_parses": True,
            "registry": obs.snapshot(),
        },
        "machine": machine_info(),
    }


def _run_benchmarks(bench_file: str, extra_env: dict) -> dict:
    """Run the benchmark module and return pytest-benchmark's JSON report."""
    with tempfile.TemporaryDirectory() as tmp:
        report = pathlib.Path(tmp) / "bench.json"
        env = dict(os.environ, **extra_env)
        env["PYTHONPATH"] = str(REPO / "src")
        cmd = [sys.executable, "-m", "pytest", bench_file, "-q",
               "--benchmark-only", f"--benchmark-json={report}",
               "--benchmark-warmup=on", "--benchmark-warmup-iterations=2",
               "-p", "no:cacheprovider"]
        proc = subprocess.run(cmd, cwd=REPO, env=env,
                              stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout.decode())
            raise SystemExit(f"benchmark run failed ({proc.returncode})")
        return json.loads(report.read_text())


def _distill(report: dict) -> dict:
    """Keep one small record per benchmark, keyed by its pytest node name."""
    out = {}
    for bench in report["benchmarks"]:
        stats = bench["stats"]
        out[bench["name"]] = {
            "median_ms": round(stats["median"] * 1e3, 4),
            "mean_ms": round(stats["mean"] * 1e3, 4),
            "rounds": stats["rounds"],
        }
    return dict(sorted(out.items()))


def _pair_cached_naive(benchmarks: dict) -> None:
    """Fold ``name[naive]`` records into ``name[cached]`` as speedups."""
    for name in list(benchmarks):
        if not name.endswith("[cached]"):
            continue
        naive = name[: -len("[cached]")] + "[naive]"
        if naive in benchmarks:
            record = benchmarks[name]
            record["naive_median_ms"] = benchmarks[naive]["median_ms"]
            record["speedup"] = round(
                benchmarks[naive]["median_ms"] / record["median_ms"], 2)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--suite", choices=sorted(SUITES),
                        default="formats")
    parser.add_argument("--with-analytic", action="store_true",
                        help="formats suite: also time the analytic path "
                             "(REPRO_NO_CODEBOOK=1) and record speedups")
    parser.add_argument("--output", type=pathlib.Path, default=None)
    args = parser.parse_args()

    bench_file, default_output = SUITES[args.suite]
    output = args.output or default_output
    if args.suite == "serve":
        payload = _run_serve()
        output.write_text(json.dumps(payload, indent=2, sort_keys=True)
                          + "\n")
        record = payload["throughput"]
        print(f"wrote {output} (speedup {record['speedup']}x, "
              f"{record['batched']['requests_per_sec']} req/s batched vs "
              f"{record['serial']['requests_per_sec']} serial, identity "
              f"{payload['token_identity']})")
        return 0
    if args.suite == "decode":
        payload = _run_decode()
        output.write_text(json.dumps(payload, indent=2, sort_keys=True)
                          + "\n")
        speedups = {name: record["speedup"] for name, record
                    in payload["benchmarks"].items() if "speedup" in record}
        print(f"wrote {output} (speedups {speedups})")
        return 0
    if args.suite == "resilience":
        payload = _run_resilience()
        output.write_text(json.dumps(payload, indent=2, sort_keys=True)
                          + "\n")
        trial_loop = payload["throughput"]["trial_loop"]
        print(f"wrote {output} "
              f"({len(payload['campaign']['models'])} model(s), "
              f"{len(RESILIENCE_CONFIG['formats'])} formats, "
              f"trial-loop speedup {trial_loop['speedup']}x)")
        return 0
    fast = _distill(_run_benchmarks(bench_file, {}))
    payload = {
        "machine": machine_info(),
        "benchmarks": fast,
    }
    if args.with_analytic and args.suite == "formats":
        analytic = _distill(_run_benchmarks(bench_file,
                                            {"REPRO_NO_CODEBOOK": "1"}))
        for name, record in payload["benchmarks"].items():
            if name in analytic:
                record["analytic_median_ms"] = analytic[name]["median_ms"]
                record["speedup"] = round(
                    analytic[name]["median_ms"] / record["median_ms"], 2)

    output.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {output} ({len(fast)} benchmarks)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
