#!/usr/bin/env python3
"""Guard the BENCH_*.json perf-trajectory artifacts against silent decay.

CI runs every sweep bench with --quick --jobs 2 and archives the JSON
ResultSets.  A bench that stops emitting a series, drops a metric field, or
writes an empty artifact would silently break the perf trajectory without
failing the build — this script fails the job instead, by comparing each
artifact against a committed schema baseline (bench/bench_schema.json).

Checks per bench id in the baseline:
  * BENCH_<id>.json exists, parses, and declares the bench id;
  * every baseline series is present with at least one point;
  * every point of a series carries at least the baseline's field set
    (the intersection of fields across that series' points at the time the
    baseline was committed — per-arm conditional fields stay allowed);
  * a series the baseline marks as replicated ("aggregate_fields", from
    SweepSpec::replications) still carries its "aggregates" error bars:
    every entry has n >= 1 and each baseline aggregate field keeps its
    mean/sd/min/max keys;
  * mode_parity: in every series whose name contains "parity" (the
    packet-vs-flow-aggregate validation sweeps, e1's E1d / e3's E3d),
    the two workload engines agree on the pinned metrics within 2%;
  * churn_soak: every point that reports a "flaps" field (the DFZ churn
    soak, f2's F2f/F2g) actually executed a nonzero flap plan — a soak
    that silently degenerates to zero events would still emit a
    schema-valid artifact.

Usage:
  check_bench.py --dir build                 # verify against the baseline
  check_bench.py --dir build --update        # regenerate the baseline

Perf ratchet (--ratchet): beyond the schema, CI also guards the *speed* of
the hot paths.  The bench run archives two kinds of timing next to the
records — BENCH_M1.json carries ns/op per micro, and each bench invoked
with --timing writes a TIMING_<id>.json wall-clock sidecar (never part of
BENCH_<id>.json, so records stay byte-comparable).  --ratchet compares both
against the committed trajectory under bench/trajectory/, normalising by
the "checksum/1500" anchor micro first: the anchor measures raw host speed
(pure arithmetic, untouched by any optimisation here), so trajectory
numbers recorded on one machine transfer to another.  A value is a
regression when

  current > archived * (anchor_now / anchor_archived) * tolerance

with tolerance 1.75x for micros and 1.9x for wall-clock — both below 2x,
so CI's injected-2x selftest (--inject 2.0, applied to everything except
the anchor) must fail, proving the gate is live.  --ratchet also asserts
the incremental re-convergence claim directly: the M1a pair
"flap reconverge/full-replay" / "flap reconverge/incremental" must keep a
>= 5x ratio (a pure ratio — host- and inject-neutral).  That is the only
ratio gate: M1 keeps no baseline-only arms, so every other optimised path
(the update-group "export fanout/grouped" among them) is gated by the
absolute, anchor-normalised ratchet alone.

  check_bench.py --dir build --ratchet             # gate against trajectory
  check_bench.py --dir build --ratchet --inject 2  # selftest: must fail
  check_bench.py --dir build --ratchet-update      # refresh the trajectory
"""

import argparse
import json
import pathlib
import sys


def load_artifact(path):
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f), None
    except FileNotFoundError:
        return None, "missing"
    except json.JSONDecodeError as e:
        return None, f"unparseable JSON ({e})"


def series_fields(series):
    """The field names every point of the series carries (intersection)."""
    field_sets = [set(point.get("fields", {})) for point in series.get("points", [])]
    if not field_sets:
        return []
    common = set.intersection(*field_sets)
    # Keep first-appearance order from the first point for stable baselines.
    first = list(series["points"][0].get("fields", {}))
    return [name for name in first if name in common]


def series_aggregate_fields(series):
    """The error-barred metric names every aggregate entry carries."""
    field_sets = [set(entry.get("fields", {}))
                  for entry in series.get("aggregates", [])]
    if not field_sets:
        return []
    common = set.intersection(*field_sets)
    first = list(series["aggregates"][0].get("fields", {}))
    return [name for name in first if name in common]


def series_schema(series):
    schema = {"fields": series_fields(series)}
    aggregate_fields = series_aggregate_fields(series)
    if aggregate_fields:
        schema["aggregate_fields"] = aggregate_fields
    return schema


def build_schema(directory):
    schema = {}
    for path in sorted(directory.glob("BENCH_*.json")):
        artifact, error = load_artifact(path)
        if error:
            print(f"error: {path.name}: {error}", file=sys.stderr)
            sys.exit(1)
        bench_id = artifact.get("bench") or path.stem.removeprefix("BENCH_")
        schema[bench_id] = {
            "series": {
                series["name"]: series_schema(series)
                for series in artifact.get("series", [])
            }
        }
    return schema


# --- mode_parity guard -------------------------------------------------------
#
# The flow-aggregate engine is only trustworthy if it reproduces packet-mode
# results where both engines can run (DESIGN.md "Flow-aggregate workloads").
# Every series whose name contains "parity" carries a workload-mode axis;
# points are paired by their series label minus the mode token and each pair
# must agree on:
#   * "drop rate"          — within 2% relative or 5e-4 absolute (the floor
#     covers Poisson count noise between the engines' independent arrival
#     streams at single-digit drop counts);
#   * "t_setup mean (ms)"  — within 2% relative;
#   * "t_setup p99 (ms)"   — within 2% relative, only for arms whose drop
#     rate exceeds 1e-3: miss/RTO-dominated tails are stable, while warm
#     p99s sit on histogram bucket edges where a single boundary session
#     flips the reported value.
# Pairs with fewer than 500 packet-mode sessions are skipped so reduced
# smoke runs cannot produce false alarms.
MODE_PARITY_RTOL = 0.02
MODE_PARITY_DROP_ATOL = 5e-4
MODE_PARITY_P99_MIN_DROP_RATE = 1e-3
MODE_PARITY_MIN_SESSIONS = 500
WORKLOAD_MODES = ("packet", "aggregate")


def parity_pair_key(series_label):
    """The point's coordinates with the workload-mode token removed."""
    tokens = [token.strip() for token in series_label.split("/")]
    return " / ".join(t for t in tokens if t not in WORKLOAD_MODES)


def check_mode_parity(artifact, file_name):
    problems = []
    for series in artifact.get("series", []):
        name = series.get("name", "")
        if "parity" not in name.lower():
            continue
        pairs = {}
        for point in series.get("points", []):
            mode = point.get("fields", {}).get("mode")
            if mode in WORKLOAD_MODES:
                key = parity_pair_key(point.get("series", ""))
                pairs.setdefault(key, {})[mode] = point
        if not pairs:
            problems.append(
                f"{file_name}: parity series '{name}' has no workload-mode "
                "points to pair"
            )
            continue
        for key, by_mode in sorted(pairs.items()):
            missing = [m for m in WORKLOAD_MODES if m not in by_mode]
            if missing:
                problems.append(
                    f"{file_name}: series '{name}' point '{key}' lost its "
                    f"{'/'.join(missing)}-mode twin"
                )
                continue
            packet = by_mode["packet"]["fields"]
            aggregate = by_mode["aggregate"]["fields"]
            if packet.get("sessions", 0) < MODE_PARITY_MIN_SESSIONS:
                continue

            def compare(metric, tolerance_floor=0.0):
                pv = packet.get(metric)
                av = aggregate.get(metric)
                if pv is None or av is None:
                    problems.append(
                        f"{file_name}: series '{name}' point '{key}' dropped "
                        f"parity metric '{metric}'"
                    )
                    return
                allowed = max(MODE_PARITY_RTOL * abs(pv), tolerance_floor)
                if abs(av - pv) > allowed:
                    problems.append(
                        f"{file_name}: series '{name}' point '{key}': "
                        f"'{metric}' diverges across engines "
                        f"(packet {pv:.6g}, aggregate {av:.6g}, "
                        f"allowed ±{allowed:.6g})"
                    )

            compare("drop rate", MODE_PARITY_DROP_ATOL)
            compare("t_setup mean (ms)")
            if min(packet.get("drop rate", 0.0),
                   aggregate.get("drop rate", 0.0)) >= \
                    MODE_PARITY_P99_MIN_DROP_RATE:
                compare("t_setup p99 (ms)")
    return problems


def check_churn_soak(artifact, file_name):
    """Every point reporting a 'flaps' count must have executed flaps."""
    problems = []
    for series in artifact.get("series", []):
        name = series.get("name", "")
        for point in series.get("points", []):
            fields = point.get("fields", {})
            if "flaps" not in fields:
                continue
            flaps = fields["flaps"]
            if not isinstance(flaps, (int, float)) or flaps <= 0:
                problems.append(
                    f"{file_name}: series '{name}' point "
                    f"{point.get('index')} reports a zero/invalid flap "
                    f"count ({flaps!r}) — the churn plan never ran"
                )
                break
    return problems


def check(directory, baseline):
    problems = []
    for bench_id, expected in sorted(baseline.items()):
        path = directory / f"BENCH_{bench_id}.json"
        artifact, error = load_artifact(path)
        if error:
            problems.append(f"{path.name}: {error}")
            continue
        declared = artifact.get("bench")
        if declared != bench_id:
            problems.append(
                f"{path.name}: declares bench id '{declared}', expected "
                f"'{bench_id}'"
            )
            continue
        series_by_name = {s.get("name"): s for s in artifact.get("series", [])}
        if not series_by_name:
            problems.append(f"{path.name}: no series (empty artifact)")
            continue
        problems.extend(check_mode_parity(artifact, path.name))
        problems.extend(check_churn_soak(artifact, path.name))
        # Series unknown to the baseline are as unguarded as unknown files:
        # force the baseline to grow with the bench.
        for name in series_by_name:
            if name not in expected["series"]:
                problems.append(
                    f"{path.name}: series '{name}' not in the schema baseline "
                    "(regenerate with --update)"
                )
        for name, spec in expected["series"].items():
            series = series_by_name.get(name)
            if series is None:
                problems.append(f"{path.name}: series '{name}' is missing")
                continue
            points = series.get("points", [])
            if not points:
                problems.append(f"{path.name}: series '{name}' has no points")
                continue
            required = set(spec["fields"])
            for point in points:
                missing = required - set(point.get("fields", {}))
                if missing:
                    problems.append(
                        f"{path.name}: series '{name}' point {point.get('index')} "
                        f"dropped fields: {', '.join(sorted(missing))}"
                    )
                    break
            required_aggregates = set(spec.get("aggregate_fields", []))
            if required_aggregates:
                aggregates = series.get("aggregates", [])
                if not aggregates:
                    problems.append(
                        f"{path.name}: series '{name}' lost its replication "
                        "aggregates (error bars)"
                    )
                for entry in aggregates:
                    if entry.get("n", 0) < 1:
                        problems.append(
                            f"{path.name}: series '{name}' aggregate group "
                            f"{entry.get('group')} has no replicas"
                        )
                        break
                    bad = [
                        agg_name
                        for agg_name in required_aggregates
                        if set(entry.get("fields", {}).get(agg_name, {}))
                        < {"mean", "sd", "min", "max"}
                    ]
                    if bad:
                        problems.append(
                            f"{path.name}: series '{name}' aggregate group "
                            f"{entry.get('group')} dropped error-bar fields: "
                            f"{', '.join(sorted(bad))}"
                        )
                        break
    # An artifact with no baseline entry is unguarded: a new bench's JSON
    # could be empty or corrupt without failing CI.  Force the baseline to
    # be regenerated alongside the bench.
    known = {f"BENCH_{bench_id}.json" for bench_id in baseline}
    for path in sorted(directory.glob("BENCH_*.json")):
        if path.name not in known:
            problems.append(
                f"{path.name}: not in the schema baseline (regenerate with "
                "--update)"
            )
    return problems


# --- perf ratchet ------------------------------------------------------------

RATCHET_ANCHOR = "checksum/1500"
# Below 2.0 so the CI --inject 2.0 selftest must trip the gate.  Micros are
# single-threaded and anchor-normalised, so 1.75x headroom absorbs quick-run
# jitter; wall-clocks also see scheduler noise from --jobs, hence 1.9x.
RATCHET_MICRO_TOLERANCE = 1.75
RATCHET_WALL_TOLERANCE = 1.9
RATCHET_WALL_BENCHES = ("F1", "F2", "E4")
# The incremental re-convergence claim as an absolute gate: one flap on a
# 1k-stub fabric must re-converge at least this much faster than rebuilding
# and re-converging the whole world.  A ratio of raw ns/op values, so it is
# host-independent and --inject-neutral (both arms scale together).
FLAP_PAIR_FULL = "flap reconverge/full-replay"
FLAP_PAIR_INCREMENTAL = "flap reconverge/incremental"
FLAP_PAIR_MIN_RATIO = 5.0


def m1_ns_per_op(directory):
    """micro name -> ns/op from BENCH_M1.json's M1a series."""
    artifact, error = load_artifact(directory / "BENCH_M1.json")
    if error:
        return None, f"BENCH_M1.json: {error}"
    values = {}
    for series in artifact.get("series", []):
        if series.get("name") != "M1a":
            continue
        for point in series.get("points", []):
            fields = point.get("fields", {})
            micro = fields.get("micro")
            ns = fields.get("ns/op")
            if isinstance(micro, str) and isinstance(ns, (int, float)):
                values[micro] = float(ns)
    if not values:
        return None, "BENCH_M1.json: no M1a micro timings"
    return values, None


def load_timing(directory, bench_id):
    """Elapsed seconds from a TIMING_<id>.json wall-clock sidecar."""
    path = directory / f"TIMING_{bench_id}.json"
    artifact, error = load_artifact(path)
    if error:
        return None, f"{path.name}: {error}"
    elapsed = artifact.get("elapsed_s")
    if not isinstance(elapsed, (int, float)) or elapsed <= 0:
        return None, f"{path.name}: missing or non-positive elapsed_s"
    return float(elapsed), None


def ratchet_update(directory, trajectory_dir):
    values, error = m1_ns_per_op(directory)
    if error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    anchor = values.get(RATCHET_ANCHOR)
    if anchor is None:
        print(f"error: anchor micro '{RATCHET_ANCHOR}' absent from "
              "BENCH_M1.json", file=sys.stderr)
        return 1
    trajectory_dir.mkdir(parents=True, exist_ok=True)
    m1_path = trajectory_dir / "m1.json"
    m1_path.write_text(
        json.dumps({"bench": "M1", "anchor": RATCHET_ANCHOR,
                    "anchor_ns_per_op": anchor, "ns_per_op": values},
                   indent=2, sort_keys=True) + "\n",
        encoding="utf-8")
    written = [m1_path.name]
    for bench_id in RATCHET_WALL_BENCHES:
        elapsed, error = load_timing(directory, bench_id)
        if error:
            print(f"error: {error} (run the bench with --timing "
                  f"TIMING_{bench_id}.json)", file=sys.stderr)
            return 1
        path = trajectory_dir / f"{bench_id.lower()}.json"
        path.write_text(
            json.dumps({"bench": bench_id, "anchor": RATCHET_ANCHOR,
                        "anchor_ns_per_op": anchor, "elapsed_s": elapsed},
                       indent=2, sort_keys=True) + "\n",
            encoding="utf-8")
        written.append(path.name)
    print(f"wrote {trajectory_dir}/{{{', '.join(written)}}}")
    return 0


def ratchet_check(directory, trajectory_dir, inject):
    problems = []
    values, error = m1_ns_per_op(directory)
    if error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    anchor_now = values.get(RATCHET_ANCHOR)
    if anchor_now is None:
        print(f"error: anchor micro '{RATCHET_ANCHOR}' absent from "
              "BENCH_M1.json", file=sys.stderr)
        return 1

    m1_trajectory, error = load_artifact(trajectory_dir / "m1.json")
    if error:
        print(f"error: {trajectory_dir}/m1.json: {error} "
              "(seed it with --ratchet-update)", file=sys.stderr)
        return 1
    anchor_archived = m1_trajectory.get("anchor_ns_per_op")
    if not isinstance(anchor_archived, (int, float)) or anchor_archived <= 0:
        print(f"error: {trajectory_dir}/m1.json: bad anchor_ns_per_op",
              file=sys.stderr)
        return 1
    speed = anchor_now / anchor_archived

    archived_micros = m1_trajectory.get("ns_per_op", {})
    checked = 0
    for name, archived in sorted(archived_micros.items()):
        current = values.get(name)
        if current is None:
            problems.append(
                f"m1: micro '{name}' vanished from BENCH_M1.json "
                "(refresh bench/trajectory/ with --ratchet-update if "
                "intentional)")
            continue
        # The anchor normalises itself: skip the tautology (it would only
        # re-test the inject factor).
        if name == RATCHET_ANCHOR:
            continue
        allowed = archived * speed * RATCHET_MICRO_TOLERANCE
        if current * inject > allowed:
            problems.append(
                f"m1: '{name}' regressed: {current * inject:.1f} ns/op vs "
                f"allowed {allowed:.1f} (archived {archived:.1f}, host speed "
                f"x{speed:.2f}, tolerance x{RATCHET_MICRO_TOLERANCE})")
        checked += 1
    for name in values:
        if name not in archived_micros:
            problems.append(
                f"m1: micro '{name}' has no trajectory entry (archive it "
                "with --ratchet-update)")

    # Incremental-vs-full-replay speedup gate (ISSUE 9's tentpole claim).
    full = values.get(FLAP_PAIR_FULL)
    incremental = values.get(FLAP_PAIR_INCREMENTAL)
    if full is None or incremental is None:
        missing = [n for n, v in ((FLAP_PAIR_FULL, full),
                                  (FLAP_PAIR_INCREMENTAL, incremental))
                   if v is None]
        problems.append(
            f"m1: flap-reconverge pair incomplete — missing "
            f"{', '.join(repr(n) for n in missing)}")
    elif incremental <= 0 or full / incremental < FLAP_PAIR_MIN_RATIO:
        ratio = full / incremental if incremental > 0 else float("nan")
        problems.append(
            f"m1: incremental re-convergence speedup collapsed: "
            f"full-replay/incremental = {ratio:.2f}x, required >= "
            f"{FLAP_PAIR_MIN_RATIO}x ({full:.0f} vs {incremental:.0f} ns/op)")

    walls = 0
    for bench_id in RATCHET_WALL_BENCHES:
        trajectory, error = load_artifact(
            trajectory_dir / f"{bench_id.lower()}.json")
        if error:
            problems.append(
                f"{bench_id}: {trajectory_dir}/{bench_id.lower()}.json: "
                f"{error} (seed it with --ratchet-update)")
            continue
        archived = trajectory.get("elapsed_s")
        elapsed, error = load_timing(directory, bench_id)
        if error:
            problems.append(f"{bench_id}: {error}")
            continue
        allowed = archived * speed * RATCHET_WALL_TOLERANCE
        if elapsed * inject > allowed:
            problems.append(
                f"{bench_id}: wall-clock regressed: {elapsed * inject:.2f}s "
                f"vs allowed {allowed:.2f}s (archived {archived:.2f}s, host "
                f"speed x{speed:.2f}, tolerance x{RATCHET_WALL_TOLERANCE})")
        walls += 1

    if problems:
        print("perf ratchet FAILED:", file=sys.stderr)
        for problem in problems:
            print(f"  - {problem}", file=sys.stderr)
        return 1
    print(f"perf ratchet OK: {checked} micros and {walls} wall-clocks within "
          f"tolerance (host speed x{speed:.2f} vs trajectory)")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dir", default=".", type=pathlib.Path,
                        help="directory holding the BENCH_*.json artifacts")
    parser.add_argument("--schema", type=pathlib.Path,
                        default=pathlib.Path(__file__).with_name("bench_schema.json"))
    parser.add_argument("--update", action="store_true",
                        help="regenerate the schema baseline from --dir")
    parser.add_argument("--trajectory", type=pathlib.Path,
                        default=pathlib.Path(__file__).with_name("trajectory"),
                        help="directory holding the perf-ratchet trajectory")
    parser.add_argument("--ratchet", action="store_true",
                        help="gate BENCH_M1 ns/op and TIMING_* wall-clocks "
                             "against the archived trajectory")
    parser.add_argument("--ratchet-update", action="store_true",
                        help="archive the current run as the new trajectory")
    parser.add_argument("--inject", type=float, default=1.0,
                        help="multiply measured values (not the anchor) by "
                             "this factor; CI uses 2.0 to prove the ratchet "
                             "trips")
    args = parser.parse_args()

    if args.ratchet_update:
        return ratchet_update(args.dir, args.trajectory)
    if args.ratchet:
        return ratchet_check(args.dir, args.trajectory, args.inject)

    if args.update:
        schema = build_schema(args.dir)
        if not schema:
            print(f"error: no BENCH_*.json artifacts in {args.dir}", file=sys.stderr)
            return 1
        args.schema.write_text(json.dumps(schema, indent=2) + "\n", encoding="utf-8")
        print(f"wrote {args.schema} ({len(schema)} benches)")
        return 0

    try:
        baseline = json.loads(args.schema.read_text(encoding="utf-8"))
    except FileNotFoundError:
        print(f"error: schema baseline {args.schema} not found "
              "(run with --update to create it)", file=sys.stderr)
        return 1

    problems = check(args.dir, baseline)
    if problems:
        print("bench artifact check FAILED:", file=sys.stderr)
        for problem in problems:
            print(f"  - {problem}", file=sys.stderr)
        return 1
    total_series = sum(len(b["series"]) for b in baseline.values())
    print(f"bench artifacts OK: {len(baseline)} benches, {total_series} series "
          f"verified against {args.schema.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
