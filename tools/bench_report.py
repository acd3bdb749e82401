#!/usr/bin/env python
"""Regenerate the committed benchmark records (BENCH_*.json).

Four suites:

* ``--suite formats`` (default) — quantization/codec throughput from
  ``benchmarks/test_format_kernels.py`` -> ``BENCH_formats.json``.
  ``--with-analytic`` also times the analytic reference path
  (``REPRO_NO_CODEBOOK=1``) and records per-benchmark speedup ratios.
* ``--suite decode`` — KV-cached vs naive autoregressive decoding, the
  calls of ``benchmarks/test_decode_throughput.py`` timed in paired
  cached/naive rounds in one process -> ``BENCH_decode.json``, with a
  ``speedup`` (median per-round ratio and its interval) per case.
* ``--suite resilience`` — the seeded bit-flip fault-injection campaign
  (``repro.resilience``, fast profile, transformer, all five formats at
  8 bits) -> ``BENCH_resilience.json``.  The record has three blocks:
  ``campaign`` (the deterministic grid, timing stripped — byte-identical
  across machines and warm re-runs), ``throughput`` (trial-loop
  trials/sec for the naive reference loop vs the cached-encode engine,
  the median wall clock of whole campaign calls over paired
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
  overhead below 2%, and the Prometheus exposition must parse.  The
  record is written whether or not they pass, so it shows each
  verdict; a failed gate then makes the run exit non-zero.

Every timed gate and timing record runs on ``benchmarks/ab.py`` and
stores its estimate, interval, round count and verdict.

Run:  PYTHONPATH=src python tools/bench_report.py [--suite decode]

Timings are machine-dependent; the committed files record the shape of
the comparison (which paths are fast, relative speedups), not absolute
milliseconds to be matched elsewhere.  The resilience ``campaign`` block
is the exception: it is exactly reproducible.
"""

from __future__ import annotations

import argparse
import json
import operator
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import tempfile

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

#: Paired engine/naive rounds of the whole timed campaign call.
CAMPAIGN_WALL_ROUNDS = 3

#: Untimed warm-up rounds, then timed paired cached/naive rounds, per
#: decode benchmark.
DECODE_WARMUP_ROUNDS = 2
DECODE_ROUNDS = 15

#: The committed serving benchmark: the acceptance workload — transformer
#: greedy decode, 16 concurrent clients, 64 requests — plus the
#: per-family token-identity verdicts.
SERVE_CONFIG = {
    "model": "transformer", "concurrency": 16, "num_requests": 64,
    "max_batch": 16, "max_wait_ms": 5.0, "workers": 1, "seed": 0,
    "max_len": 32,
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
    sys.path[:0] = [str(REPO / "src"), str(REPO)]
    from benchmarks import ab
    from benchmarks.test_resilience_throughput import trial_loop_speedup
    from repro.resilience import campaign

    # Trial-loop throughput, with per-trial fault checksums: the digest
    # streams prove both loops install identical faulty tensors.
    speedup, engine_tp, naive_tp = trial_loop_speedup(
        MIN_TRIAL_LOOP_SPEEDUP, **THROUGHPUT_CONFIG)
    checksums_identical = naive_tp.pop("checksums") == engine_tp.pop(
        "checksums")
    # each loop's timing is its median over the rounds, not its last run
    for record, walls in ((engine_tp, speedup.a), (naive_tp, speedup.b)):
        record["wall_time_s"] = statistics.median(walls)
        record["trials_per_sec"] = record["trials"] / record["wall_time_s"]

    # Whole campaign calls both ways, in paired rounds.  The cell cache
    # is off, or later rounds would time cache reads.  The committed
    # grid is the engine one.
    os.environ["REPRO_CELL_CACHE"] = "0"
    grids = {}

    def call(engine):
        def run():
            grids[engine] = campaign.run(engine=engine, **RESILIENCE_CONFIG)
        return ab.timed(run)

    wall = ab.compare(call(True), call(False), warmup=0,
                      rounds=CAMPAIGN_WALL_ROUNDS)
    naive_grid, engine_grid = grids[False], grids[True]
    naive_s, engine_s = (statistics.median(wall.b),
                         statistics.median(wall.a))
    campaign_trials = engine_grid["timing"]["cells"] * engine_grid["trials"]
    counters_identical = (_counter_view(naive_grid)
                          == _counter_view(engine_grid))

    if not checksums_identical:
        raise SystemExit("naive/engine fault checksums diverge")
    if not counters_identical:
        raise SystemExit("naive/engine campaign counters diverge")
    if not speedup.passed:
        raise SystemExit(f"trial-loop speedup {speedup}")

    return {
        "campaign": _strip_timing(engine_grid),
        "throughput": {
            "trial_loop": {
                "naive": naive_tp,
                "engine": engine_tp,
                "speedup": speedup.record(),
                "checksums_identical": checksums_identical,
            },
            "campaign_wall": {
                "naive_s": round(naive_s, 3),
                "engine_s": round(engine_s, 3),
                "naive_trials_per_sec": round(campaign_trials / naive_s, 2),
                "engine_trials_per_sec": round(campaign_trials / engine_s,
                                               2),
                "speedup": wall.record(),
            },
            "counters_identical": counters_identical,
        },
        "machine": machine_info(),
    }


def _run_decode() -> dict:
    """Cached vs naive decode, timed in paired rounds.

    Every round times one cached (A) and one naive (B) call of the same
    benchmark back to back, so host load lands on both paths alike
    (pytest-benchmark times all rounds of one path before the other).
    Each path keeps its median call; the ``speedup`` is the median of
    the per-round naive/cached ratios, with its interval.
    """
    sys.path[:0] = [str(REPO / "src"), str(REPO)]
    from benchmarks import ab
    from benchmarks.test_decode_throughput import (decode_cases,
                                                   seq2seq_model,
                                                   transformer_model)

    cases = decode_cases(transformer_model(), seq2seq_model())
    benchmarks = {}
    for name, (call, _rows) in cases.items():
        speedup = ab.compare(ab.timed(lambda: call(True)),
                             ab.timed(lambda: call(False)),
                             warmup=DECODE_WARMUP_ROUNDS,
                             rounds=DECODE_ROUNDS)
        benchmarks[name] = {
            "cached_median_ms": round(statistics.median(speedup.a) * 1e3,
                                      4),
            "naive_median_ms": round(statistics.median(speedup.b) * 1e3, 4),
            "speedup": speedup.record(),
        }
    return {"machine": machine_info(),
            "benchmarks": dict(sorted(benchmarks.items()))}


def _run_serve() -> tuple:
    """Serving throughput + token-identity + resilience record, and the
    gates it failed.

    Gates: per-family token identity; the self-healing loop -- a single
    exponent-bit weight fault injected mid-serve must be detected,
    restored, and retried with zero failed requests and token-identical
    output; on paired A/B rounds (``benchmarks/ab.py``), the p50 prices
    of scrubbing and of the metrics spine and the batched-vs-serial
    speedup, whose rounds give the ``throughput`` block; and the
    Prometheus exposition must parse.  The record's registry dump is
    taken before the A/B gates, whose servers would grow it with their
    round counts.
    """
    sys.path[:0] = [str(REPO / "src"), str(REPO)]
    from benchmarks.test_serve_throughput import (measure_obs_overhead,
                                                  measure_scrub_overhead,
                                                  measure_serve_speedup)
    from repro import obs
    from repro.obs import parse_prometheus
    from repro.serve.bench import check_equivalence, run_fault_recovery

    identity = check_equivalence(seed=SERVE_CONFIG["seed"])
    recovery = run_fault_recovery(seed=SERVE_CONFIG["seed"])
    registry = obs.snapshot()
    scrub, scrub_record = measure_scrub_overhead(MAX_SCRUB_P50_OVERHEAD)
    obs_overhead, obs_record = measure_obs_overhead(MAX_OBS_P50_OVERHEAD)
    speedup, out = measure_serve_speedup(MIN_SERVE_SPEEDUP, **SERVE_CONFIG)

    failures = [f"batched decode not token-identical to serial for {name}"
                for name, same in identity.items() if not same]
    if recovery["failed_requests"] or not recovery["token_identical"]:
        failures.append(
            "self-healing gate failed under single-fault injection: "
            f"failed={recovery['failed_requests']} "
            f"token_identical={recovery['token_identical']}")
    if not (recovery["detected"] and recovery["restored"]
            and recovery["retried"]):
        failures.append("self-healing gate: fault was not "
                        f"detected/restored/retried ({recovery})")
    failures += [f"{what} {comparison}" for what, comparison in (
        ("scrub p50 overhead", scrub), ("obs p50 overhead", obs_overhead),
        ("batched-vs-serial speedup", speedup)) if not comparison.passed]

    # The exposition gate: render the final registry and push it through
    # the validating parser -- the committed record must carry a scrape a
    # real Prometheus server would accept.
    families = parse_prometheus(obs.render_prometheus())
    missing = [name for name in REQUIRED_OBS_FAMILIES
               if name not in families]
    if missing:
        failures.append(f"obs exposition missing families: {missing}")

    requests = SERVE_CONFIG["num_requests"]
    throughput = {
        "config": SERVE_CONFIG, "speedup": speedup.record(),
        "blas_token_match_rate": round(sum(
            map(operator.eq, out["serial"], out["batched"])) / requests, 4),
        "server_stats": out["stats"], "weight_cache": out["memo"]}
    for path, walls in (("batched", speedup.a), ("serial", speedup.b)):
        wall_s = statistics.median(walls)
        throughput[path] = {"wall_s": round(wall_s, 4),
                            "requests_per_sec": round(requests / wall_s, 2)}
    return {
        "throughput": throughput,
        "token_identity": identity,
        "resilience": {
            "fault_recovery": recovery,
            "scrub_overhead": scrub_record,
        },
        "observability": {
            "obs_overhead": obs_record,
            "prometheus_families": len(families),
            "prometheus_parses": True,
            "registry": registry,
        },
        "machine": machine_info(),
    }, failures


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
        payload, failures = _run_serve()
        output.write_text(json.dumps(payload, indent=2, sort_keys=True)
                          + "\n")
        record = payload["throughput"]
        print(f"wrote {output} (speedup {record['speedup']['estimate']}x, "
              f"{record['batched']['requests_per_sec']} req/s batched vs "
              f"{record['serial']['requests_per_sec']} serial, identity "
              f"{payload['token_identity']})")
        if failures:
            raise SystemExit("serve gates failed:\n  "
                             + "\n  ".join(failures))
        return 0
    if args.suite == "decode":
        payload = _run_decode()
        output.write_text(json.dumps(payload, indent=2, sort_keys=True)
                          + "\n")
        speedups = {name: record["speedup"]["estimate"] for name, record
                    in payload["benchmarks"].items()}
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
              f"trial-loop speedup {trial_loop['speedup']['estimate']}x)")
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
