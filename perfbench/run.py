"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload serve_online --seed 1 \\
        --seconds 24 --trace 0 --ref-probe-ms 0.39

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones (a separate traced run).  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it show every metric beside its raw twin.
Each run trains, builds and caches into a private directory under
``.perfbench/`` in the checkout and removes it on exit.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

import hostscale  # noqa: E402
import measure  # noqa: E402
from tracing import Tracer  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Cold set-ups per run (this process plus fresh subprocesses);
#: ``setup_s`` is their median.
SETUPS = 3

#: Units of every metric this script prints (checked against
#: ``BENCHMARK.json`` by the self-tests).
E2E_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "p50_ms": "ms",
             "tail_ms": "ms", "ok_share": "share", "match_share": "share",
             "rss_peak_mb": "MB"}
LAYER_UNITS = {
    "engine.batch_size_mean": "req", "engine.batches": "count",
    "engine.queue_wait_mean_ms": "ms",
    "batching.batch_ms_p50": "ms", "batching.pad_share": "share",
    "pool.build_ms": "ms", "setup.train_ms": "ms",
    "nn.decode_step_ms": "ms", "nn.wq_memo_hit_share": "share",
    "sanitize.busy_share": "share",
    "scrub.passes": "count", "scrub.pass_ms_p50": "ms",
    "scrub.restores": "count", "scrub.uncorrectable": "count",
    "resilient.retries": "count", "resilient.faults.crc": "count",
    "resilient.faults.probe": "count", "resilient.faults.exception": "count",
    "formats.quantize_ms": "ms", "formats.codebook_hit_share": "share",
    "formats.decode_lut_hit_share": "share",
    "trial.fault_ms": "ms", "trial.scan_ms": "ms", "trial.score_ms": "ms",
    "trial.masked_share": "share", "campaign.cell_ms_p50": "ms",
    "host.probe_ms": "ms", "loadgen.late_p99_ms": "ms",
    "raw.setup_s": "s", "raw.ops_per_s": "1/s", "raw.p50_ms": "ms",
    "raw.tail_ms": "ms", "tail.samples_beyond": "count",
    "trace.overhead_share": "share",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("serve_online", "serve_closed", "campaign"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ref-probe-ms", type=float, required=True,
                        help="probe time of the reference host")
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the raw set-up time, exit")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if args.ref_probe_ms <= 0:
        parser.error("--ref-probe-ms must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no repro package under {SRC}; run from the root of "
              "a full checkout", file=sys.stderr)
        return 2
    scratch = os.path.join(ROOT, ".perfbench")
    os.makedirs(scratch, exist_ok=True)
    private = tempfile.mkdtemp(prefix="run-", dir=scratch)
    os.environ["REPRO_CACHE_DIR"] = private
    os.environ["REPRO_CELL_CACHE"] = "0"
    # Read and write no bytecode: every module imported from here on,
    # the package under test included, compiles from source in every run
    # whatever ``__pycache__`` directories the checkout holds.
    sys.dont_write_bytecode = True
    sys.pycache_prefix = os.path.join(private, "pycache")
    try:
        return _run(args, scratch)
    finally:
        shutil.rmtree(private, ignore_errors=True)


def _cold_setup(args) -> tuple:
    """One full set-up in a fresh interpreter: (raw seconds, probe ms)."""
    cmd = [sys.executable, "-B", os.path.abspath(__file__),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "0",
           "--ref-probe-ms", repr(args.ref_probe_ms), "--setup-only"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=170, check=True)
    record = json.loads(done.stdout.strip().splitlines()[-1])
    return record["setup_s"], record["probe_ms"]


def _run(args, scratch: str) -> int:
    sys.path.insert(0, SRC)
    import workloads
    from repro import obs

    probe = hostscale.Probe()
    ref = args.ref_probe_ms
    tracer = Tracer() if args.trace else None
    wl = workloads.WORKLOADS[args.workload](args.seed, args.seconds)
    if tracer is not None:
        wl.trace_targets(tracer)
        tracer.install()
    snap_start = obs.snapshot()
    try:
        wl.setup()
        raw_setup = time.perf_counter() - _T0
        if tracer is not None:
            tracer.uninstall()
        probe_setup = probe.measure()
        if args.setup_only:
            print(json.dumps({"setup_s": raw_setup, "probe_ms": probe_setup}))
            return 0
        snap_setup = obs.snapshot()
        setups = [(raw_setup, probe_setup)] + [
            _cold_setup(args) for _ in range(SETUPS - 1)]

        probes = [probe_setup, probe.measure()]
        windows = []
        snaps = [obs.snapshot()]
        for index in range(wl.n_windows()):
            traced = tracer is not None and wl.traced(index)
            if traced:
                tracer.op = index
                tracer.install()
            win = wl.window(index, hostscale.factor(ref, probes[-1:]))
            if traced:
                tracer.uninstall()
            probes.append(probe.measure())
            win.traced = traced
            windows.append(win)
            snaps.append(obs.snapshot())
        verdict = wl.check()
        run_probe = sum(probes[1:]) / len(probes[1:])
        for index, win in enumerate(windows):
            around = probes[index + 1:index + 3]
            if wl.long_windows:
                # Short slow spells hide inside a long window, so take it
                # as at least as slow as the run's mean probe, and as the
                # slower probe beside it.
                around = [max(around + [run_probe])]
            win.scale = hostscale.factor(ref, around)
    finally:
        if tracer is not None:
            tracer.uninstall()
        wl.close()

    run_probes = probes + [p for _, p in setups]
    setup_scaled = [raw * hostscale.factor(ref, [p]) for raw, p in setups]
    plain = [w for w in windows if not w.traced]
    e2e = summarize(plain, wl)
    metrics = {
        "setup_s": statistics.median(setup_scaled),
        "ops_per_s": e2e["ops_per_s"],
        "p50_ms": e2e["p50_ms"],
        "tail_ms": e2e["tail_ms"],
        "ok_share": e2e["ok_share"],
        "match_share": verdict["match_share"],
        "rss_peak_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    raw = {
        "raw.setup_s": statistics.median(r for r, _ in setups),
        "raw.ops_per_s": e2e["raw_ops_per_s"],
        "raw.p50_ms": e2e["raw_p50_ms"],
        "raw.tail_ms": e2e["raw_tail_ms"],
        "host.probe_ms": statistics.median(probes + [p for _, p in setups]),
        "tail.samples_beyond": float(e2e["beyond"]),
        "loadgen.late_p99_ms": measure.percentile(
            [v for w in windows for v in w.late_ms], 99)
        if any(w.late_ms for w in windows) else 0.0,
    }
    attempted = sum(w.attempted for w in windows)
    failed = sum(w.failed for w in windows)

    print(f"workload {wl.name}  seed {args.seed}  windows {len(windows)}  "
          f"attempted {attempted}  failed {failed}  "
          f"tail p{wl.tail_pct:g} over {e2e['samples']} samples, "
          f"{e2e['beyond']} beyond")
    print(f"host probe {raw['host.probe_ms']:.4f} ms (reference {ref} ms); "
          "window scale factors "
          + " ".join(f"{w.scale:.3f}" for w in windows))
    print(f"{'metric':<14}{'scaled':>14}{'raw':>14}  unit")
    for name in E2E_UNITS:
        twin = raw.get(f"raw.{name}")
        twin_text = f"{twin:14.4f}" if twin is not None else f"{'':>14}"
        print(f"{name:<14}{metrics[name]:14.4f}{twin_text}  "
              f"{E2E_UNITS[name]}")
    for key in sorted(verdict):
        if key not in ("reasons", "match_share"):
            print(f"check {key}: {verdict[key]}")
    for reason in verdict["reasons"]:
        print(f"check FAILED: {reason}")
    if e2e["beyond"] < measure.TAIL_BEYOND:
        print(f"check FLAGGED: tail p{wl.tail_pct:g} has {e2e['beyond']} "
              f"samples beyond it, fewer than {measure.TAIL_BEYOND}")

    if args.trace:
        layers = layer_metrics(wl, tracer, windows, snap_start, snap_setup,
                               snaps, hostscale.factor(ref, [probe_setup]))
        layers.update(raw)
        layers["trace.overhead_share"] = overhead(windows, wl)
        print_self_times(tracer)
        path = os.path.join(scratch, f"trace-{wl.name}-seed{args.seed}.jsonl")
        tracer.dump(path)
        print(f"spans written to {os.path.relpath(path, ROOT)}")
        out = {name: layers[name] for name in LAYER_UNITS}
        units = LAYER_UNITS
    else:
        out = metrics
        units = E2E_UNITS
    for name, val in out.items():
        if name not in E2E_UNITS:
            print(f"{name:<30}{val:14.4f}  {units[name]}")
    print("raw-twins " + json.dumps(raw, sort_keys=True))
    print("probes " + json.dumps(run_probes))
    print("windows " + json.dumps([
        {"probe_ms": [probes[i + 1], probes[i + 2]], "elapsed_s": w.elapsed_s,
         "completed": w.completed, "traced": w.traced,
         "p50_ms": measure.percentile(w.latencies_ms, 50)
         if w.latencies_ms else None} for i, w in enumerate(windows)]))
    print(json.dumps({
        "correct": not verdict["reasons"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(val), "unit": units[name]}
                    for name, val in out.items()},
    }))
    return 0


def summarize(windows, wl) -> dict:
    """End-to-end figures over ``windows``, scaled and raw."""
    scaled = [l * w.scale for w in windows for l in w.latencies_ms]
    raw = [l for w in windows for l in w.latencies_ms]
    ref_time = sum(w.elapsed_s * w.scale if w.ref_elapsed_s is None
                   else w.ref_elapsed_s for w in windows)
    raw_time = sum(w.elapsed_s for w in windows)
    completed = sum(w.completed for w in windows)
    attempted = sum(w.attempted for w in windows)
    ok = sum(1 for w in windows for l in w.op_ms
             if l is not None and l * w.scale <= wl.limit_ms)
    return {
        "p50_ms": measure.percentile(scaled, 50),
        "tail_ms": measure.percentile(scaled, wl.tail_pct),
        "raw_p50_ms": measure.percentile(raw, 50),
        "raw_tail_ms": measure.percentile(raw, wl.tail_pct),
        "ops_per_s": completed / ref_time,
        "raw_ops_per_s": completed / raw_time,
        "ok_share": ok / attempted if attempted else 0.0,
        "samples": len(scaled),
        "beyond": measure.beyond(scaled, wl.tail_pct),
    }


def overhead(windows, wl) -> float:
    """Slowdown of traced windows against untraced ones in the same run.

    The open loop compares median latency, the others time per op;
    windows are compared within their group (the campaign's model
    family) and the ratios averaged.
    """
    def cost(group):
        if wl.name == "serve_online":
            return summarize(group, wl)["p50_ms"]
        return sum(w.elapsed_s * w.scale for w in group) \
            / sum(w.completed for w in group)

    ratios = []
    for key in sorted({w.group for w in windows}):
        traced = [w for w in windows if w.traced and w.group == key]
        plain = [w for w in windows if not w.traced and w.group == key]
        if traced and plain:
            ratios.append(cost(traced) / cost(plain))
    return sum(ratios) / len(ratios) - 1.0 if ratios else 0.0


def layer_metrics(wl, tracer, windows, snap_start, snap_setup, snaps,
                  setup_scale) -> dict:
    """Per-layer metrics of a traced run (timings in reference ms)."""
    import workloads

    def scale_of(span):
        return setup_scale if span[5] < 0 else windows[span[5]].scale

    ids = {s[0]: s for s in tracer.spans}

    def durations(name, outermost=False, with_setup=False):
        """Scaled span durations (ms); set-up spans only if asked."""
        out = []
        for span in tracer.by_name(name):
            parent = ids.get(span[4])
            if outermost and parent is not None and parent[1] == name:
                continue
            if span[5] < 0 and not with_setup:
                continue
            out.append((span[3] - span[2]) * 1e3 * scale_of(span))
        return out

    def mean(values):
        return sum(values) / len(values) if values else 0.0

    def median(values):
        return statistics.median(values) if values else 0.0

    run_scale = statistics.median(w.scale for w in windows)
    out = workloads.common_counts(snap_start, snaps[-1])
    setup_counts = workloads.common_counts(snap_start, snap_setup)
    out["pool.build_ms"] = setup_counts["pool.build_ms"] * setup_scale
    out.update(wl.layer_counts(snaps[0], snaps[-1]))
    batch_s = sum(workloads.batch_seconds(snaps[i], snaps[i + 1]) * win.scale
                  for i, win in enumerate(windows) if win.traced)
    for key in ("engine.batches", "engine.batch_size_mean",
                "engine.queue_wait_mean_ms", "campaign.cell_ms_p50"):
        out.setdefault(key, 0.0)
    out["engine.queue_wait_mean_ms"] *= run_scale
    out["campaign.cell_ms_p50"] *= run_scale
    out["batching.batch_ms_p50"] = median(durations("batching.microbatch"))
    out["batching.pad_share"] = tracer.pad[0] / tracer.pad[1] \
        if tracer.pad[1] else 0.0
    steps = tracer.decode_steps
    out["nn.decode_step_ms"] = sum(durations("nn.greedy_decode")) / steps \
        if steps else 0.0
    sanitize_ms = sum(durations("sanitize.scope"))
    if wl.name == "campaign":
        busy_ms = sum(l * w.scale for w in windows if w.traced
                      for l in w.latencies_ms)
    else:
        busy_ms = batch_s * 1e3
    out["sanitize.busy_share"] = sanitize_ms / busy_ms if busy_ms else 0.0
    out["scrub.pass_ms_p50"] = median(durations("scrub.pass"))
    out["formats.quantize_ms"] = mean(durations("formats.quantize",
                                                outermost=True,
                                                with_setup=True))
    out["trial.fault_ms"] = mean(durations("trial.fault"))
    out["trial.scan_ms"] = mean(durations("trial.scan"))
    out["trial.score_ms"] = mean(durations("trial.score"))
    out["trial.masked_share"] = wl.masked_share() \
        if wl.name == "campaign" else 0.0
    out["setup.train_ms"] = sum(getattr(wl, "train_ms", [])) * setup_scale
    return out


def print_self_times(tracer) -> None:
    print(f"{'span':<24}{'calls':>8}{'total ms':>12}{'self ms':>12}")
    for name, row in sorted(tracer.self_times().items()):
        print(f"{name:<24}{row['count']:>8}{row['total_s'] * 1e3:12.2f}"
              f"{row['self_s'] * 1e3:12.2f}")


if __name__ == "__main__":
    sys.exit(main())
