"""Steadiness report: back-to-back sets of seeded runs per workload.

Run from the root of a checkout::

    python3 perfbench/steadiness.py --out perfbench/STEADINESS.md

Each of two sets runs every workload ten times, each time with another
seed, through the command in ``BENCHMARK.json``.  For every end-to-end
metric the report gives each set's median and its spread (distance
between the first and third quartile as a share of the median), the raw
twin's spread beside the scaled one, and the change of the second set's
median against the first.  Per-run rows show the host probe time, so a
reader can see what scaling removes.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

from measure import TAIL_BEYOND, spread

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Timing metrics with a raw twin.
SCALED = ("setup_s", "ops_per_s", "p50_ms", "tail_ms")

#: Back-to-back sets, and seeded runs of each workload per set.
SETS = 2
RUNS = 10


def run_once(bench, workload, seed):
    cmd = list(bench["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited "
                           f"{done.returncode}: {done.stderr[-2000:]}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    twins = next(json.loads(line[len("raw-twins "):]) for line in lines
                 if line.startswith("raw-twins "))
    row = {name: m["value"] for name, m in result["metrics"].items()}
    row.update(twins)
    row["windows"] = next(json.loads(line[len("windows "):])
                          for line in lines if line.startswith("windows "))
    row["probes"] = next(json.loads(line[len("probes "):])
                         for line in lines if line.startswith("probes "))
    row["lines"] = lines[:-1]
    row.update(seed=seed, correct=result["correct"],
               failed=result["failed"])
    return row


def report(bench, runs):
    """Markdown text for ``runs[set][workload] -> [row]``."""
    out = ["# Steadiness report", "",
           f"Command: `{' '.join(bench['command'])}`, run_seconds "
           f"{bench['run_seconds']}, {len(runs)} back-to-back sets.", "",
           "Spread = (Q3 - Q1) / median over one set's runs "
           "(`statistics.quantiles(n=4)`). Change = set 2 median against "
           "set 1, signed so that positive is worse.", ""]
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    flagged, over, tails = [], [], []
    for workload in runs[0]:
        out += [f"## {workload}", "",
                "| metric | bound | " + " | ".join(
                    f"set {i + 1} median | set {i + 1} spread | "
                    f"set {i + 1} raw spread" for i in range(len(runs)))
                + " | change |",
                "|---" * (3 + 3 * len(runs)) + "|"]
        for name, meta in bounds.items():
            cells, medians = [], []
            for index, sets in enumerate(runs):
                values = [r[name] for r in sets[workload]]
                medians.append(statistics.median(values))
                raw = f"raw.{name}"
                raw_spread = spread([r[raw] for r in sets[workload]]) \
                    if name in SCALED else None
                s = spread(values)
                cells += [f"{medians[-1]:.4g}", f"{s:.3f}",
                          f"{raw_spread:.3f}" if raw_spread is not None
                          else "-"]
                if raw_spread is not None and s > raw_spread:
                    flagged.append((workload, name, index + 1, s,
                                    raw_spread))
                if s > meta["bound"]:
                    over.append(f"{workload} `{name}` set {index + 1}: "
                                f"spread {s:.3f} > bound {meta['bound']}")
            sign = 1.0 if meta["better"] == "lower" else -1.0
            change = sign * (medians[-1] - medians[0]) / medians[0]
            if change > meta["bound"]:
                over.append(f"{workload} `{name}`: set 2 median worse by "
                            f"{change:.3f} > bound {meta['bound']}")
            out.append(f"| {name} | {meta['bound']} | " + " | ".join(cells)
                       + f" | {change:+.3f} |")
        out += ["", "Per run (set, seed, host.probe_ms, scaled/raw "
                "p50_ms, scaled/raw ops_per_s, scaled/raw setup_s, "
                "correct):", "", "```"]
        for index, sets in enumerate(runs):
            for r in sets[workload]:
                out.append(
                    f"set {index + 1} seed {r['seed']:>4}  probe "
                    f"{r['host.probe_ms']:.4f}  p50 {r['p50_ms']:.2f}/"
                    f"{r['raw.p50_ms']:.2f}  ops {r['ops_per_s']:.3f}/"
                    f"{r['raw.ops_per_s']:.3f}  setup {r['setup_s']:.3f}/"
                    f"{r['raw.setup_s']:.3f}  correct {r['correct']}")
        out += ["```", ""]
        beyond = [(r["tail.samples_beyond"], index + 1, r["seed"])
                  for index, sets in enumerate(runs)
                  for r in sets[workload]]
        fewest = min(beyond)
        tails.append(f"{workload}: fewest {fewest[0]:.0f} (set {fewest[1]} "
                     f"seed {fewest[2]})")
        tails += [f"{workload} set {i} seed {seed}: FLAGGED, {n:.0f} beyond"
                  for n, i, seed in beyond if n < TAIL_BEYOND]
    out += ["## Spreads and changes beyond their bound", ""]
    out += [f"- {line}" for line in over] or ["- none"]
    out += ["", "## Samples beyond the tail percentile", ""]
    out += [f"- {line}" for line in tails]
    out += ["", "## Where scaling widened the spread", ""]
    if flagged:
        out += [f"- {w} `{n}` set {i}: scaled {s:.3f} > raw {r:.3f}"
                for w, n, i, s, r in flagged]
    else:
        out.append("- none")
    return "\n".join(out) + "\n"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", default=None,
                        help="write the markdown report here")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    runs = []
    for set_index in range(SETS):
        sets = {}
        for workload in (w["name"] for w in bench["workloads"]):
            sets[workload] = []
            for i in range(RUNS):
                seed = 1000 * (set_index + 1) + i
                row = run_once(bench, workload, seed)
                sets[workload].append(row)
                print(f"set {set_index + 1} {workload} seed {seed}: "
                      f"p50 {row['p50_ms']:.2f} ops {row['ops_per_s']:.3f} "
                      f"probe {row['host.probe_ms']:.4f}", file=sys.stderr)
        runs.append(sets)
    text = report(bench, runs)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
