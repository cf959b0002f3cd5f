// dfz_adapter.hpp — runs the BGP DFZ studies as sweep points.
//
// The F2 experiments (routing/dfz_study.hpp) build their own three-tier
// synthetic Internet and converge a BGP-lite mesh over it — there is no
// Experiment, no Simulator workload, nothing the default Runner path knows
// how to drive.  This adapter closes the gap so the DFZ benches get the
// same declarative treatment as everything else:
//
//   * axes over the DFZ section of ExperimentConfig (addressing scenario,
//     stub-site count — a topology-size axis — and the de-aggregation
//     factor), and
//   * executors for Runner::execute that run the convergence study or the
//     re-homing churn event for a point and write its typed Record fields
//     (DFZ table size, mean/max RIB, update messages, convergence time).
//
// Bench f2 composes these; tests/test_sweep_axes.cpp round-trips the
// records through the JSON sink.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "routing/dfz_study.hpp"
#include "scenario/sweep.hpp"

namespace lispcp::scenario::dfz {

/// Addressing-scenario axis: legacy BGP (stub prefixes in the DFZ) vs the
/// Loc/ID split (RLOC aggregates only).  Labels are the routing layer's
/// to_string names, so tables read like the paper's.
[[nodiscard]] Axis scenarios(std::string name = "scenario");

/// Topology-size axis over the synthetic Internet's stub-site count.
[[nodiscard]] Axis stub_sites(std::vector<std::uint64_t> values,
                              std::string name = "stub sites");

/// De-aggregation-factor axis (§3's Latin-America observation).
[[nodiscard]] Axis deaggregation(std::vector<std::uint64_t> values,
                                 std::string name = "deagg");

/// Base-config mutation for SweepSpec::base: partitions every point's BGP
/// convergence run across `shards` RIB shards (the sharded convergence
/// engine; records are byte-identical for any value — only wall-clock
/// changes).  `workers` caps each point's engine threads (0 = all cores);
/// benches pass BenchContext::shard_workers() so --jobs and --shards
/// share the host instead of multiplying.  The f benches wire the
/// --shards CLI flag through this.
[[nodiscard]] std::function<void(ExperimentConfig&)> sharded(
    std::size_t shards, std::size_t workers = 0);

/// Runner executor: origination-to-convergence for the point's DFZ config.
/// Fields: "DFZ table", "mean RIB", "max RIB", "updates", "route records",
/// "converge ms", "mapping entries".
void run_study(const RunPoint& point, Record& record);

/// Runner executor: the post-convergence re-homing churn event — the first
/// stub's zero-hold whole-site flap, a one-event routing::run_churn_plan.
/// Fields: "updates", "route records", "ASes touched", "settle ms".
void run_churn(const RunPoint& point, Record& record);

// ---------------------------------------------------------------------------
// Churn soak (routing::ChurnPlan): sustained flapping over simulated days
// ---------------------------------------------------------------------------

/// Base-config mutation: make every churn plan re-measure each event
/// against a freshly rebuilt world (ChurnPlan::full_replay) instead of the
/// incremental long-lived fabric.  Measures are byte-identical for
/// state-restoring plans — the CI parity leg diffs the two modes.
[[nodiscard]] std::function<void(ExperimentConfig&)> full_replay();

/// Soak-size axis: number of whole-site flaps in the plan
/// (config.dfz.soak.flaps; the plan itself derives from the point's
/// internet seed, so replications() sweeps distinct flap sequences).
[[nodiscard]] Axis soak_flaps(std::vector<std::uint64_t> values,
                              std::string name = "flaps");

/// Runner executor: converge once, then run the point's generated flap
/// plan incrementally (routing::run_churn_plan).  Fields: "flaps",
/// "updates", "route records", "updates/flap", "records/flap",
/// "settle ms", "max settle ms", "engine events", "sim days".
void run_soak(const RunPoint& point, Record& record);

// ---------------------------------------------------------------------------
// Policy layer (routing/policy.hpp): roles, incidents, containment
// ---------------------------------------------------------------------------

/// Base-config mutation: attach the Gao-Rexford role table to every BGP
/// session (config.dfz.policy.roles).  Required by run_policy_event; also
/// usable on the plain study to pin roles-on/policy-off record parity.
[[nodiscard]] std::function<void(ExperimentConfig&)> roles_enabled();

/// Policy-incident axis over PolicyEvent kinds (hijacks, route leak, the
/// de-aggregation TE variants).  Labels are the routing layer's to_string
/// names ("hijack-more-specific", ...).
[[nodiscard]] Axis policy_events(std::vector<routing::PolicyEvent::Kind> kinds,
                                 std::string name = "event");

/// Containment axis: fraction of transits applying IRR-style strict
/// customer-origin import filters (policy.filtered_transit_fraction).
[[nodiscard]] Axis filtered_transits(std::vector<double> fractions,
                                     std::string name = "filtered");

/// Event split-factor axis (PolicyEvent::deagg_factor, relative to the
/// study's base de-aggregation factor).
[[nodiscard]] Axis event_deagg(std::vector<std::uint64_t> values,
                               std::string name = "event deagg");

/// Runner executor: converge, apply the point's PolicyEvent, reconverge (a
/// one-event routing::run_churn_plan).  Fields: "DFZ before", "DFZ after",
/// "updates", "route records", "settle ms", "ASes touched",
/// "announcements", "RIB delta", "RIB/ann", "churn/ann", "captured ASes",
/// "captured".
void run_policy_event(const RunPoint& point, Record& record);

}  // namespace lispcp::scenario::dfz
