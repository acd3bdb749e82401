"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``formats``     Describe the number formats at a word size.
``quantize``    Quantize a ``.npy`` tensor file with any format.
``pe``          Print a PE's PPA (energy/op, TOPS/mm², widths).
``experiment``  Run one paper table/figure driver and print it.
``resilience``  Run a seeded bit-flip fault-injection campaign.
``serve-bench`` Measure micro-batched vs serial serving throughput.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

import numpy as np

__all__ = ["build_parser", "main"]


def _cmd_formats(args: argparse.Namespace) -> int:
    from .analysis import format_table
    from .formats import make_quantizer

    rows = []
    names = ("adaptivfloat", "float", "bfp", "uniform", "posit",
             "fixedpoint", "logquant")
    for name in names:
        quantizer = make_quantizer(name, args.bits)
        spec = quantizer.spec()
        extras = ", ".join(f"{k}={v}" for k, v in spec.items()
                           if k not in ("name", "bits"))
        try:
            count = len(quantizer.codepoints())
        except TypeError:
            count = len(quantizer.codepoints(0))  # adaptive formats
        rows.append([name, args.bits, count, extras])
    print(format_table(["format", "bits", "codepoints", "fields"], rows,
                       title=f"number formats at {args.bits}-bit"))
    return 0


def _cmd_quantize(args: argparse.Namespace) -> int:
    from .formats import make_quantizer
    from .metrics import rms_error

    tensor = np.load(args.input)
    quantizer = make_quantizer(args.fmt, args.bits)
    quantized = quantizer.quantize(tensor.astype(np.float64))
    np.save(args.output, quantized.astype(tensor.dtype))
    print(f"{args.fmt}{args.bits}: wrote {args.output} "
          f"(RMS error {rms_error(tensor, quantized):.6g})")
    return 0


def _cmd_pe(args: argparse.Namespace) -> int:
    from .hardware import make_pe

    pe = make_pe(args.kind, args.bits, args.vector_size)
    print(f"{pe.name} (K={args.vector_size}, H={pe.config.accum_length})")
    print(f"  accumulator width : {pe.accumulator_width} bits")
    print(f"  throughput        : {pe.throughput_ops() / 1e9:.1f} GOPS")
    print(f"  energy per op     : {pe.energy_per_op():.2f} fJ")
    print(f"  datapath area     : {pe.area() * 1e3:.1f} x 1e-3 mm^2")
    print(f"  perf per area     : {pe.perf_per_area():.2f} TOPS/mm^2")
    for part, value in pe.breakdown().items():
        print(f"    {part:10s} {value:8.3f} fJ/op")
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    from . import experiments

    drivers = {
        "table1": experiments.table1_models,
        "table2": experiments.table2_weight_quant,
        "table3": experiments.table3_weight_act_quant,
        "table4": experiments.table4_accelerator,
        "fig1": experiments.fig1_weight_ranges,
        "fig4": experiments.fig4_rms_error,
        "fig7": experiments.fig7_pe_sweep,
        "ablations": experiments.ablations,
    }
    driver = drivers[args.name]
    if args.name in ("fig7", "table4"):
        result = driver.run()
    elif args.name in ("table2", "table3"):
        result = driver.run(profile=args.profile, jobs=args.jobs)
    else:
        result = driver.run(profile=args.profile)
    print(driver.render(result))
    return 0


def _cmd_resilience(args: argparse.Namespace) -> int:
    from .obs import clock
    from .resilience import campaign

    start = clock.now()
    result = campaign.run(
        profile=args.profile, models=tuple(args.models),
        formats=tuple(args.formats), bits=args.bits,
        fields=tuple(args.fields), ber=tuple(args.ber),
        n_flips=args.flips, trials=args.trials, seed=args.seed,
        jobs=args.jobs, engine=not args.naive, shards=args.shards)
    elapsed = clock.now() - start
    print(campaign.render(result))
    timing = result.get("timing") or {}
    if timing.get("trials_per_sec"):
        # cached cells report the trial-loop time they were computed in
        print(f"\n{timing['cells']} cells x {result['trials']} trials in "
              f"{elapsed:.2f}s elapsed, {timing['wall_time_s']:.2f}s "
              f"trial-loop time "
              f"({timing['trials_per_sec']:.1f} trials/s, "
              f"{'naive' if args.naive else 'engine'} path)")
    return 0


def _cmd_serve_bench(args: argparse.Namespace) -> int:
    from .serve.bench import (check_equivalence, run_fault_recovery,
                              run_serve_benchmark)

    quant = (args.quant, args.bits) if args.quant else None
    record = run_serve_benchmark(
        model=args.model, concurrency=args.concurrency,
        num_requests=args.requests, max_batch=args.max_batch,
        max_wait_ms=args.max_wait_ms, workers=args.workers,
        seed=args.seed, profile=args.profile, quant=quant,
        max_len=args.max_len)
    stats = record["server_stats"]
    print(f"serve-bench - {args.model} greedy, "
          f"{args.requests} requests @ concurrency {args.concurrency} "
          f"(max_batch={args.max_batch}, max_wait={args.max_wait_ms}ms, "
          f"workers={args.workers})")
    print(f"  serial   : {record['serial']['wall_s']:8.3f}s  "
          f"{record['serial']['requests_per_sec']:8.1f} req/s")
    print(f"  batched  : {record['batched']['wall_s']:8.3f}s  "
          f"{record['batched']['requests_per_sec']:8.1f} req/s")
    print(f"  speedup  : {record['speedup']:.2f}x  "
          f"(BLAS token match {record['blas_token_match_rate']:.0%})")
    print(f"  batches  : {stats['batches']['count']} "
          f"(mean size {stats['batches']['mean_size']}, "
          f"histogram {stats['batches']['histogram']})")
    print(f"  latency  : p50 {stats['latency']['p50_ms']:.1f}ms  "
          f"p95 {stats['latency']['p95_ms']:.1f}ms  "
          f"p99 {stats['latency']['p99_ms']:.1f}ms  "
          f"(queue peak {stats['queue']['depth_peak']})")
    if any(record["weight_cache"].values()):
        print(f"  wq-cache : {record['weight_cache']}")
    if args.check:
        verdicts = check_equivalence(models=(args.model,), seed=args.seed,
                                     quant=quant)
        print(f"  identity : {verdicts}")
        if not all(verdicts.values()):
            return 1
    if args.fault_check:
        recovery = run_fault_recovery(model=args.model, seed=args.seed,
                                      quant=quant)
        res = recovery["resilience"]
        inj = recovery["injected"]
        print(f"  fault    : bit {inj['bit_index']} flip in "
              f"{inj['tensor']}[{inj['element']}] -> "
              f"detected={recovery['detected']} "
              f"restored={recovery['restored']} "
              f"retried={recovery['retried']}")
        print(f"  recovery : token_identical="
              f"{recovery['token_identical']} "
              f"failed={recovery['failed_requests']} "
              f"(faults {res['fault_kinds']}, scrubs {res['scrubs']}, "
              f"degradation {res['degradation']})")
        if not recovery["token_identical"] or recovery["failed_requests"]:
            return 1
    return 0


def _cmd_obs(args: argparse.Namespace) -> int:
    from . import obs

    if args.demo:
        # A tiny instrumented workload so the dump shows live families:
        # a few served requests plus one quantized-forward (weight-quant
        # memo traffic) and a codebook touch via the quantize path.
        from .formats import make_quantizer
        from .serve import InferenceServer, ModelPool
        from .serve.bench import build_requests
        import numpy as np
        make_quantizer("adaptivfloat", 8).quantize(
            np.linspace(-1.0, 1.0, 32, dtype=np.float32))
        pool = ModelPool(quant=("adaptivfloat", 8))
        with InferenceServer(pool, max_batch=4, max_wait_ms=5.0) as server:
            for request in build_requests("resnet", 8, max_len=8):
                server.submit(request.kind, request.payload,
                              max_len=request.max_len)
            server.drain()
    else:
        # Importing the instrumented layers registers every metric
        # family, so even a fresh process dumps the full schema.
        from . import nn, resilience, serve  # noqa: F401

    if args.format == "prom":
        print(obs.render_prometheus(), end="")
    else:
        print(obs.render_json())
    if args.spans:
        for span in obs.TRACER.recent(args.spans):
            print(f"# span {span.trace_id} {span.name} "
                  f"{span.duration_s * 1e3:.3f}ms {span.attrs}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("formats", help="describe the number formats")
    p.add_argument("--bits", type=int, default=8)
    p.set_defaults(func=_cmd_formats)

    p = sub.add_parser("quantize", help="quantize a .npy tensor")
    p.add_argument("--fmt", default="adaptivfloat")
    p.add_argument("--bits", type=int, default=8)
    p.add_argument("input")
    p.add_argument("output")
    p.set_defaults(func=_cmd_quantize)

    p = sub.add_parser("pe", help="print a PE's PPA")
    p.add_argument("--kind", choices=("int", "hfint"), default="hfint")
    p.add_argument("--bits", type=int, default=8)
    p.add_argument("--vector-size", type=int, default=16)
    p.set_defaults(func=_cmd_pe)

    p = sub.add_parser("experiment", help="run one paper table/figure")
    p.add_argument("name", choices=("table1", "table2", "table3", "table4",
                                    "fig1", "fig4", "fig7", "ablations"))
    p.add_argument("--profile", choices=("tiny", "fast", "full"),
                   default="fast")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes for the table2/table3 sweeps")
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("resilience",
                       help="run a bit-flip fault-injection campaign")
    p.add_argument("--profile", choices=("tiny", "fast", "full"),
                   default="fast")
    p.add_argument("--models", nargs="+", default=["transformer"],
                   choices=("transformer", "seq2seq", "resnet"))
    p.add_argument("--formats", nargs="+",
                   default=["float", "bfp", "uniform", "posit",
                            "adaptivfloat"])
    p.add_argument("--bits", type=int, default=8)
    p.add_argument("--fields", nargs="+",
                   default=["any", "sign", "exponent", "mantissa",
                            "exp_bias"],
                   help="bit classes to target (exp_bias = the adaptive "
                        "register); unsupported (format, field) cells are "
                        "skipped")
    p.add_argument("--ber", nargs="*", type=float, default=[],
                   help="additional whole-word bit-error-rate cells")
    p.add_argument("--flips", type=int, default=1,
                   help="distinct bit flips per injection event")
    p.add_argument("--trials", type=int, default=8,
                   help="injection events per cell")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--shards", type=int, default=None,
                   help="seeded trial chunks per cell (default: --jobs); "
                        "any layout merges to identical counters")
    p.add_argument("--naive", action="store_true",
                   help="use the reference per-trial re-encode loop "
                        "instead of the cached-encode trial engine")
    p.set_defaults(func=_cmd_resilience)

    p = sub.add_parser("serve-bench",
                       help="measure micro-batched vs serial serving "
                            "throughput")
    p.add_argument("--model", choices=("transformer", "seq2seq", "resnet"),
                   default="transformer")
    p.add_argument("--concurrency", type=int, default=16,
                   help="client threads submitting requests")
    p.add_argument("--requests", type=int, default=64,
                   help="total requests in the workload")
    p.add_argument("--max-batch", type=int, default=16)
    p.add_argument("--max-wait-ms", type=float, default=5.0)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--max-len", type=int, default=32,
                   help="decode cap for the synthetic workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--profile", choices=("tiny", "fast", "full"),
                   default=None,
                   help="serve the trained checkpoint at this profile "
                        "(default: untrained seeded weights)")
    p.add_argument("--quant", default=None,
                   help="serve with weight fake-quantizers of this format "
                        "(e.g. adaptivfloat)")
    p.add_argument("--bits", type=int, default=8,
                   help="word size for --quant")
    p.add_argument("--check", action="store_true",
                   help="also verify batched-vs-serial token identity "
                        "under deterministic_matmul")
    p.add_argument("--fault-check", action="store_true",
                   help="closed-loop self-healing check: inject an "
                        "exponent-bit weight flip mid-serve and verify "
                        "detect/restore/retry with token-identical output")
    p.set_defaults(func=_cmd_serve_bench)

    p = sub.add_parser("obs",
                       help="dump the process metrics registry "
                            "(Prometheus text or JSON)")
    p.add_argument("--format", choices=("prom", "json"), default="prom")
    p.add_argument("--demo", action="store_true",
                   help="run a tiny serve+quantize workload first so the "
                        "dump carries live values")
    p.add_argument("--spans", type=int, default=0, metavar="N",
                   help="also print the N most recent trace spans")
    p.set_defaults(func=_cmd_obs)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
