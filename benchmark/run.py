#!/usr/bin/env python3
"""Build and run the lispcp benchmark.

One workload (the last line of stdout is the result):

    python3 benchmark/run.py --workload packet-pce --seed 1 --seconds 15 --trace 0

Every workload in BENCHMARK.json, in sequence, printing each metric by name
and unit and writing one JSON file (exit status 1 if any output check fails):

    python3 benchmark/run.py [--seed 1] [--seconds 15] [--trace 1] [--out FILE]

--seconds defaults to run_seconds from BENCHMARK.json.

Other modes:

    --smoke          tiny sizes, every workload traced and untraced; asserts
                     that only declared metrics appear, and every declared
                     one (see run_smoke)
    --update-golden  rewrites benchmark/golden.json (seeds 1 and 2)

The benchmark binary is built from source with CMake into .bench_build/ at the
repository root.  Traced runs write Chrome-trace files to .bench_build/traces/.
The binary prints bare metric values; the names and units are BENCHMARK.json's.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "lispcp_benchmark")
TRACES = os.path.join(BUILD, "traces")
GOLDEN = os.path.join(HERE, "golden.json")
GOLDEN_SEEDS = (1, 2)
# One workload's process must finish well inside 180 s.
BINARY_TIMEOUT_S = 170


class BenchError(Exception):
    """The benchmark itself broke (build, crash, undeclared metrics)."""


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def declared(spec, trace):
    """name -> unit of the metrics a run in this trace mode must emit."""
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def build():
    """Configures (once) and builds the binary; output goes to stderr."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            raise BenchError("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", BUILD, "-j", jobs,
                       "--target", "lispcp_benchmark"],
                      stdout=sys.stderr).returncode != 0:
        raise BenchError("build failed")


def run_binary(workload, seed, seconds, trace, smoke=False):
    """Runs one workload in its own process; returns the binary's JSON."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(int(trace))]
    if trace:
        os.makedirs(TRACES, exist_ok=True)
        cmd += ["--trace-file",
                os.path.join(TRACES, f"{workload}-seed{seed}.json")]
    if smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=BINARY_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"{workload}: timed out after {e.timeout} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload}: benchmark exited {proc.returncode}")
    return json.loads(lines[-1])


def load_golden():
    if not os.path.exists(GOLDEN):
        return {}
    with open(GOLDEN) as f:
        return json.load(f)["fingerprints"]


def with_units(spec, result):
    """The binary's {name: value} metrics as {name: {value, unit}}, units
    from BENCHMARK.json.  A declared per-layer metric the workload did not
    emit belongs to a layer it does not exercise and reads 0.  Raises
    BenchError on an undeclared name or a missing end-to-end metric."""
    want = declared(spec, result["trace"])
    got = result["metrics"]
    extra = sorted(set(got) - set(want))
    missing = sorted(set(want) - set(got))
    if extra or (missing and not result["trace"]):
        raise BenchError(f"{result['workload']}: metrics differ from "
                         f"BENCHMARK.json: undeclared {extra}, missing "
                         f"{missing}")
    return {name: {"value": got.get(name, 0), "unit": unit}
            for name, unit in want.items()}


def evaluate(spec, result, golden):
    """Attaches units to the metrics (with_units) and adds the golden check
    to the binary's own checks.  Returns (attempted, failed, failures)."""
    result["metrics"] = with_units(spec, result)
    attempted = result["attempted"]
    failed = result["failed"]
    failures = list(result["failures"])
    pinned = golden.get(result["workload"], {}).get(str(result["seed"]))
    if pinned is not None and not result["smoke"]:
        attempted += 1
        if pinned != result["fingerprint"]:
            failed += 1
            failures.append(f"fingerprint {result['fingerprint']} != golden "
                            f"{pinned} for seed {result['seed']}")
    return attempted, failed, failures


def print_metrics(result, out=sys.stdout):
    print(f"== {result['workload']} (seed {result['seed']}, "
          f"{'traced' if result['trace'] else 'untraced'})", file=out)
    for name, m in result["metrics"].items():
        print(f"  {name:45s} {m['value']:>16.6g} {m['unit']}", file=out)
    if result["raw"]:
        print("  unscaled: " + ", ".join(
            f"{name} {value:.6g}" for name, value in result["raw"].items()),
            file=out)


def contract_line(attempted, failed, metrics):
    return json.dumps({"correct": failed == 0, "attempted": attempted,
                       "failed": failed, "metrics": metrics})


def run_one(args, spec):
    result = run_binary(args.workload, args.seed, args.seconds, args.trace)
    attempted, failed, failures = evaluate(spec, result, load_golden())
    print_metrics(result)
    for failure in failures:
        print(f"  FAILED: {failure}")
    print(contract_line(attempted, failed, result["metrics"]))
    return 0 if failed == 0 else 1


def run_all(args, spec):
    golden = load_golden()
    report = {"seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "workloads": {}}
    total_failed = 0
    for w in spec["workloads"]:
        result = run_binary(w["name"], args.seed, args.seconds, args.trace)
        attempted, failed, failures = evaluate(spec, result, golden)
        total_failed += failed
        print_metrics(result)
        print(f"  checks: {attempted - failed}/{attempted} passed")
        for failure in failures:
            print(f"  FAILED: {failure}")
        report["workloads"][w["name"]] = {
            "attempted": attempted, "failed": failed, "failures": failures,
            "fingerprint": result["fingerprint"], "metrics": result["metrics"]}
    out = args.out or os.path.join(BUILD, "results.json")
    with open(out, "w") as f:
        json.dump(report, f, indent=1)
    print(f"results written to {out}")
    return 0 if total_failed == 0 else 1


def run_smoke(spec):
    """Every workload at tiny sizes, untraced and traced: no check fails, no
    undeclared metric appears, every end-to-end metric appears in every
    untraced run, and every per-layer metric in some workload's traced run."""
    problems = []
    layers_emitted = set()
    for w in spec["workloads"]:
        for trace in (0, 1):
            try:
                result = run_binary(w["name"], 1, 0.3, trace, smoke=True)
                emitted = set(result["metrics"])
                _, failed, failures = evaluate(spec, result, {})
                if trace:
                    layers_emitted |= emitted
                if failed:
                    problems.append(f"{w['name']} trace={trace}: {failures}")
                print(f"smoke {w['name']} trace={trace}: "
                      f"{len(emitted)} metrics emitted, {failed} failed")
            except BenchError as e:
                problems.append(str(e))
    never = sorted(set(declared(spec, 1)) - layers_emitted)
    if never:
        problems.append(f"per-layer metrics no workload emits: {never}")
    for p in problems:
        print(f"SMOKE FAILED: {p}")
    return 0 if not problems else 1


def update_golden(spec):
    fingerprints = {}
    for w in spec["workloads"]:
        fingerprints[w["name"]] = {}
        for seed in GOLDEN_SEEDS:
            result = run_binary(w["name"], seed, 0, 0)
            if result["failed"]:
                raise BenchError(f"{w['name']} seed {seed}: checks failed, "
                                 f"not pinning: {result['failures']}")
            fingerprints[w["name"]][str(seed)] = result["fingerprint"]
            print(f"{w['name']} seed {seed}: {result['fingerprint']}")
    with open(GOLDEN, "w") as f:
        json.dump({"fingerprints": fingerprints}, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--out", help="results file of a full run")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--update-golden", action="store_true")
    args = parser.parse_args(argv)
    try:
        spec = load_spec()
        if args.seconds is None:
            args.seconds = spec["run_seconds"]
        build()
        if args.smoke:
            return run_smoke(spec)
        if args.update_golden:
            return update_golden(spec)
        if args.workload:
            if args.workload not in {w["name"] for w in spec["workloads"]}:
                raise BenchError(f"unknown workload {args.workload}")
            return run_one(args, spec)
        return run_all(args, spec)
    except (BenchError, OSError, ValueError, KeyError) as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
