#!/usr/bin/env python3
"""Compare two sets of benchmark runs, metric by metric and workload by workload.

    python3 benchmark/compare.py BASE.json NEW.json
    python3 benchmark/compare.py --selftest

BASE and NEW are files written by benchmark/calibrate.py: for each workload a
list of runs, each with its end-to-end metric values.  Runs are paired in
order (run i of BASE with run i of NEW).  For every (workload, metric) row
the verdict is:

  better      NEW wins at least 9 of every 10 pairs (ties count for neither)
              and the medians differ by more than BASE's own spread (the
              distance between its quartiles): a gain that may be claimed;
  regressed   NEW's median is worse than BASE's by more than the metric's
              bound in BENCHMARK.json;
  unresolved  the run-to-run spread (relative IQR of either side) is wider
              than the bound, so no-worse cannot be shown - unless every NEW
              run reads better than every BASE run;
  no-worse    otherwise.

Exits 1 if any row regressed.  --selftest checks these rules against
BENCHMARK.json's bounds and the recorded baseline (see selftest()).
"""

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BASELINE = os.path.join(HERE, "baseline", "seed.json")
CLAIM_WIN_SHARE = 0.9
# The slowdown the self-test injects: times and sizes x1.4, rates /1.4
# (-28.6 %), past every bound BENCHMARK.json declares (at most 0.25).  A 20 %
# slowdown is within the timing bounds this host's noise forces.
SELFTEST_SLOWDOWN = 1.4


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base, new, better, bound):
    """Returns (verdict, wins, pairs) for one (workload, metric) row."""
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(base, new))
    wins = sum(1 for b, n in pairs if sign * (n - b) > 0)
    b_q1, b_med, b_q3 = quartiles(base)
    n_q1, n_med, n_q3 = quartiles(new)
    gain = sign * (n_med - b_med)
    if wins >= CLAIM_WIN_SHARE * len(pairs) and gain > b_q3 - b_q1:
        return "better", wins, len(pairs)
    spread = max((b_q3 - b_q1) / abs(b_med), (n_q3 - n_q1) / abs(n_med))
    all_better = (min(new) > max(base)) if sign > 0 else (max(new) < min(base))
    if spread > bound and not all_better:
        return "unresolved", wins, len(pairs)
    if -gain > bound * abs(b_med):
        return "regressed", wins, len(pairs)
    return "no-worse", wins, len(pairs)


def compare(spec, base_runs, new_runs, out=sys.stdout):
    """Prints one row per (workload, metric); returns the verdicts."""
    verdicts = {}
    print(f"{'workload':14s} {'metric':12s} {'base':>11s} {'new':>11s} "
          f"{'change':>8s} {'wins':>6s}  verdict", file=out)
    for workload in base_runs:
        if workload not in new_runs:
            print(f"{workload:14s} (missing from NEW)", file=out)
            continue
        for m in spec["end_to_end"]:
            base = [r["metrics"][m["name"]] for r in base_runs[workload]]
            new = [r["metrics"][m["name"]] for r in new_runs[workload]]
            n = min(len(base), len(new))
            v, wins, pairs = verdict(base[:n], new[:n], m["better"], m["bound"])
            verdicts[(workload, m["name"])] = v
            b_med = statistics.median(base[:n])
            n_med = statistics.median(new[:n])
            print(f"{workload:14s} {m['name']:12s} {b_med:11.5g} {n_med:11.5g} "
                  f"{(n_med / b_med - 1) * 100:+7.2f}% {wins:>2d}/{pairs:<3d}  {v}",
                  file=out)
    return verdicts


def selftest(spec):
    """Judged with BENCHMARK.json's own bounds, on the measured runs of
    benchmark/baseline/seed.json: the runs against themselves in reverse
    order must come out no-worse on every row, and the same runs with every
    metric made SELFTEST_SLOWDOWN times worse must come out regressed on
    every row."""
    with open(BASELINE) as f:
        base = json.load(f)["runs"]
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}

    def slowed(run):
        f = SELFTEST_SLOWDOWN
        return {"metrics": {k: v * f if better[k] == "lower" else v / f
                            for k, v in run["metrics"].items()}}

    same = {w: list(reversed(rs)) for w, rs in base.items()}
    slow = {w: [slowed(r) for r in rs] for w, rs in base.items()}
    with open(os.devnull, "w") as sink:
        identical = compare(spec, base, same, sink)
        regressed = compare(spec, base, slow, sink)
    bad = ([f"identical pair: {k} {v}" for k, v in identical.items()
            if v != "no-worse"] +
           [f"x{SELFTEST_SLOWDOWN} slowdown: {k} {v}"
            for k, v in regressed.items()
            if v != "regressed"])
    for line in bad:
        print(line)
    print(f"selftest over {len(identical)} rows:",
          "FAILED" if bad else "passed")
    return 1 if bad else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", nargs="?")
    parser.add_argument("new", nargs="?")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.selftest:
        return selftest(spec)
    if not (args.base and args.new):
        parser.error("BASE and NEW are required")
    with open(args.base) as f:
        base = json.load(f)["runs"]
    with open(args.new) as f:
        new = json.load(f)["runs"]
    verdicts = compare(spec, base, new)
    return 1 if "regressed" in verdicts.values() else 0


if __name__ == "__main__":
    sys.exit(main())
