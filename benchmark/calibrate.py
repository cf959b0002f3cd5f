#!/usr/bin/env python3
"""Measure the benchmark's own noise and record a baseline.

    python3 benchmark/calibrate.py [--out FILE]
                                   [--against CHECKOUT --against-out FILE]

Runs every workload 10 times untraced, with seeds 1 to 10, for run_seconds
from BENCHMARK.json, then once traced.  Writes, per (workload, metric),
every run's value plus the median, quartiles and relative IQR
(statistics.quantiles(n=4): (q3 - q1) / median), and the traced layer
breakdown, to benchmark/baseline/seed.json (or --out).  The file is also
what benchmark/compare.py reads.

With --against, every run is paired with a run of the same workload and
seed in another checkout (say, the parent commit), through that checkout's
benchmark/run.py, alternating which goes first; its runs go to
--against-out.  compare.py AGAINST_OUT OUT then compares the two commits
measured under the same host conditions.

Exits 1 when any output check failed, or when a declared end-to-end bound
does not fit the measured noise: every bound must be at least 1.5x its
relative IQR and at most 0.10; every spread but setup_s's must stay within a
third of its bound; and setup_s must carry the largest bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

import run

SEEDS = range(1, 11)  # one untraced run per seed
BOUND_CEILING = 0.10
BOUND_OVER_IQR = 1.5
SPREAD_SHARE_OF_BOUND = 1 / 3


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "rel_iqr": (q3 - q1) / statistics.median(values)}


def run_self(spec, name, seed, seconds, golden):
    """One untraced run of this checkout; returns (record, failed checks)."""
    result = run.run_binary(name, seed, seconds, 0)
    _, bad, failures = run.evaluate(spec, result, golden)
    print(f"{name} seed {seed}: " + ", ".join(
        f"{k}={m['value']:.5g}" for k, m in result["metrics"].items()),
        flush=True)
    for failure in failures:
        print(f"  FAILED: {failure}")
    return {"seed": seed, "failed": bad,
            "metrics": {k: m["value"] for k, m in result["metrics"].items()},
            "unscaled": dict(result["raw"])}, bad


def run_other(checkout, name, seed, seconds):
    """One untraced run of another checkout, through its own run.py."""
    proc = subprocess.run(
        [sys.executable, os.path.join(checkout, "benchmark", "run.py"),
         "--workload", name, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"],
        cwd=checkout, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise run.BenchError(f"{checkout}: {name} printed no result")
    result = json.loads(lines[-1])
    print("  other: " + ", ".join(
        f"{k}={m['value']:.5g}" for k, m in result["metrics"].items()),
        flush=True)
    return {"seed": seed, "failed": result["failed"],
            "metrics": {k: m["value"] for k, m in result["metrics"].items()}}


def calibrate(spec, seconds, against):
    """Returns (runs, other checkout's runs, traced layers, failed checks)."""
    runs = {}
    other = {}
    layers = {}
    failed = 0
    golden = run.load_golden()
    for w in spec["workloads"]:
        name = w["name"]
        runs[name] = []
        other[name] = []
        for i, seed in enumerate(SEEDS):
            # Alternate which checkout goes first, so drift in the host's
            # speed cancels out of the paired comparison.
            if against and i % 2 == 1:
                other[name].append(run_other(against, name, seed, seconds))
            record, bad = run_self(spec, name, seed, seconds, golden)
            runs[name].append(record)
            failed += bad
            if against and i % 2 == 0:
                other[name].append(run_other(against, name, seed, seconds))
        traced = run.run_binary(name, SEEDS[0], seconds, 1)
        _, bad, failures = run.evaluate(spec, traced, golden)
        failed += bad
        layers[name] = {k: m["value"] for k, m in traced["metrics"].items()}
    return runs, other, layers, failed


def summarize(runs):
    return {w: {metric: spread([r["metrics"][metric] for r in rs])
                for metric in rs[0]["metrics"]}
            for w, rs in runs.items()}


def check_bounds(spec, summary):
    problems = []
    largest = max(m["bound"] for m in spec["end_to_end"])
    for m in spec["end_to_end"]:
        if m["bound"] > BOUND_CEILING:
            problems.append(f"{m['name']}: bound {m['bound']} > {BOUND_CEILING}")
        if m["name"] == "setup_s" and m["bound"] < largest:
            problems.append(f"setup_s: bound {m['bound']} is not the largest")
        for w, metrics in summary.items():
            rel_iqr = metrics[m["name"]]["rel_iqr"]
            if m["bound"] < BOUND_OVER_IQR * rel_iqr:
                problems.append(f"{w} {m['name']}: bound {m['bound']} < "
                                f"{BOUND_OVER_IQR} x rel IQR {rel_iqr:.4f}")
            if (m["name"] != "setup_s" and
                    rel_iqr > SPREAD_SHARE_OF_BOUND * m["bound"]):
                problems.append(f"{w} {m['name']}: rel IQR {rel_iqr:.4f} > "
                                f"bound {m['bound']} / 3")
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", default=os.path.join(run.HERE, "baseline",
                                                      "seed.json"))
    parser.add_argument("--against", help="another checkout to interleave")
    parser.add_argument("--against-out", help="where its runs are written")
    args = parser.parse_args()
    if bool(args.against) != bool(args.against_out):
        parser.error("--against and --against-out go together")
    spec = run.load_spec()
    seconds = spec["run_seconds"]
    run.build()
    runs, other, layers, failed = calibrate(spec, seconds, args.against)
    summary = summarize(runs)
    problems = check_bounds(spec, summary)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    print(f"\n{'workload':14s} {'metric':12s} {'median':>12s} {'rel IQR':>8s} "
          f"{'bound':>6s}")
    for w, metrics in summary.items():
        for metric, s in metrics.items():
            print(f"{w:14s} {metric:12s} {s['median']:12.5g} "
                  f"{s['rel_iqr']:8.4f} {bounds[metric]:6.2f}")
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w") as f:
        json.dump({"run_seconds": seconds, "seeds": list(SEEDS),
                   "bounds": bounds,
                   "runs": runs, "summary": summary, "layers": layers},
                  f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"baseline written to {args.out}")
    if args.against:
        with open(args.against_out, "w") as f:
            json.dump({"checkout": args.against, "runs": other,
                       "summary": summarize(other)}, f, indent=1, sort_keys=True)
            f.write("\n")
        print(f"runs of {args.against} written to {args.against_out}")
    for p in problems:
        print(f"BOUND: {p}")
    if failed:
        print(f"{failed} output checks failed")
    return 1 if problems or failed else 0


if __name__ == "__main__":
    sys.exit(main())
