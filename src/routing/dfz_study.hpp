// dfz_study.hpp — quantifying the paper's §1 premise on the BGP substrate.
//
// "The scaling benefits arise when EID addresses are not routable through
// the Internet — only the RLOCs are globally routable [2]."  This harness
// measures exactly that, on the same synthetic Internet, under two
// addressing scenarios:
//
//   kLegacyBgp   — every stub site injects its provider-independent prefix
//                  (times the de-aggregation factor, §3) into BGP, as the
//                  pre-LISP Internet does;
//   kLispRlocOnly — only providers announce their RLOC aggregates; stub EID
//                  blocks go to the LISP mapping system instead and never
//                  appear in a DFZ table.
//
// Outputs per run: DFZ table size (tier-1 Loc-RIB), mean/max RIB over all
// ASes, total update messages and route records to converge, convergence
// time, and — for the LISP scenario — how many entries moved into the
// mapping system.  run_churn_plan measures everything that perturbs the
// converged DFZ: re-homing (the update storm when one multihomed stub
// swings between providers, the event the paper's IRC/TE engine triggers
// on), flap soaks and policy incidents, legacy vs LISP.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "net/ipv4.hpp"
#include "routing/as_graph.hpp"
#include "routing/bgp.hpp"

namespace lispcp::routing {

enum class AddressingScenario : std::uint8_t { kLegacyBgp, kLispRlocOnly };

[[nodiscard]] std::string to_string(AddressingScenario scenario);

/// A declarative post-convergence policy scenario on the DFZ substrate.
/// Each kind is the textbook incident the policy layer exists to model:
///
///   kHijackMoreSpecific — the actor originates more-specifics of the
///       victim's block (split by deagg_factor); longest-prefix match pulls
///       traffic everywhere the announcement survives import filters.
///   kHijackSameSpecific — the actor originates the victim's exact
///       prefixes; capture is decided by the decision process, so it stays
///       distance-limited.  The paper-facing contrast with the above.
///   kRouteLeak — the actor (a multihomed stub) drops the valley-free gate
///       toward its last provider and refreshes the session, re-exporting
///       provider-learned routes upward (the classic type-1 leak).
///   kSelectiveDeagg — the victim splits its block and announces the
///       more-specifics toward ONE provider only (export maps deny them on
///       the other sessions): the paper's claim-(iii) TE knob, now with a
///       realistic per-announcement RIB/churn cost.
///   kBroadcastDeagg — the same split announced to every provider; the
///       baseline that prices what "selective" saves.
struct PolicyEvent {
  enum class Kind : std::uint8_t {
    kNone,
    kHijackMoreSpecific,
    kHijackSameSpecific,
    kRouteLeak,
    kSelectiveDeagg,
    kBroadcastDeagg,
  };
  Kind kind = Kind::kNone;
  /// Stub index owning the affected prefix block.
  std::size_t victim_stub = 0;
  /// Stub index of the attacker/leaker; SIZE_MAX = the last stub.
  std::size_t actor_stub = static_cast<std::size_t>(-1);
  /// More-specific split factor for the hijack/de-aggregation events,
  /// relative to the study's base deaggregation_factor.  Power of two.
  std::size_t deagg_factor = 2;
};

[[nodiscard]] std::string to_string(PolicyEvent::Kind kind);

/// Policy section of the DFZ study.  `roles` attaches the Gao-Rexford
/// table (policy::PolicyTable::gao_rexford) to every speaker — required by
/// a kPolicyIncident churn event.  `filtered_transit_fraction` puts
/// IRR-style strict customer-origin import prefix-lists on the stub
/// sessions of the first ceil(fraction * transit_count) transits: the
/// containment knob the F2e hijack series sweeps.
struct PolicyStudyConfig {
  bool roles = false;
  double filtered_transit_fraction = 0.0;
  PolicyEvent event;
};

/// Parameters of the generated flap plan behind the F2f/F2g churn-soak
/// series (run via the dfz adapter's run_soak executor): `flaps` events
/// drawn over the stub population with exponential inter-arrival spacing,
/// so a thousand flaps at the 120 s default mean spread over simulated
/// days.  `full_replay` switches run_churn_plan to the marginal-cost
/// baseline (rebuild + re-converge the world per event); records are
/// byte-identical for state-restoring plans — the CI parity diff.
struct ChurnSoakConfig {
  std::size_t flaps = 0;
  sim::SimDuration mean_spacing = sim::SimDuration::seconds(120);
  /// Down-time between the withdrawal settling and the re-announcement.
  sim::SimDuration hold = sim::SimDuration::seconds(30);
  bool full_replay = false;
};

struct DfzStudyConfig {
  SyntheticInternetConfig internet;
  AddressingScenario scenario = AddressingScenario::kLegacyBgp;
  /// §3: each stub splits its site block into this many more-specifics
  /// ("the world's largest IPv4 de-aggregation factor").  Power of two.
  std::size_t deaggregation_factor = 1;
  BgpConfig bgp;
  PolicyStudyConfig policy;
  ChurnSoakConfig soak;
};

struct DfzStudyResult {
  std::size_t dfz_table_size = 0;       ///< tier-1 Loc-RIB entries
  double mean_rib_size = 0.0;           ///< over every AS
  std::size_t max_rib_size = 0;
  std::uint64_t update_messages = 0;    ///< MRAI flushes to converge
  std::uint64_t route_records = 0;      ///< announce records to converge
  double convergence_ms = 0.0;
  std::size_t mapping_system_entries = 0;  ///< EID prefixes kept out of BGP
  std::size_t bgp_origin_prefixes = 0;     ///< prefixes actually injected

  bool operator==(const DfzStudyResult&) const = default;
};

/// Runs origination-to-convergence for the configured scenario.
[[nodiscard]] DfzStudyResult run_dfz_study(const DfzStudyConfig& config);

/// The blast radius of a kPolicyIncident churn event
/// (ChurnPlanResult::incident).
struct PolicyEventResult {
  std::size_t dfz_table_before = 0;   ///< tier-1 Loc-RIB pre-event
  std::size_t dfz_table_after = 0;
  std::uint64_t update_messages = 0;  ///< event-triggered MRAI flushes
  std::uint64_t route_records = 0;    ///< announce+withdraw records
  double settle_ms = 0.0;
  std::size_t ases_touched = 0;       ///< Loc-RIB changed during the event
  /// Route records the event itself injected (hijack/TE originations, or
  /// the leaked session's refresh size) — the denominator of the
  /// per-announcement costs.
  std::size_t event_announcements = 0;
  /// Network-wide Loc-RIB growth, total and per injected announcement: the
  /// realistic cost model for de-aggregation TE.
  std::size_t rib_delta = 0;
  double rib_cost_per_announcement = 0.0;
  double churn_per_announcement = 0.0;
  /// ASes whose post-event best route for a probe prefix prefers the
  /// actor (hijack: actor-originated; leak: path through the leaker;
  /// TE: path through the chosen provider), and the fraction of all ASes.
  std::size_t ases_preferring_actor = 0;
  double actor_preference_fraction = 0.0;

  bool operator==(const PolicyEventResult&) const = default;
};

// ---------------------------------------------------------------------------
// Unified churn surface: one declarative event vocabulary for everything
// that perturbs a converged DFZ.  run_churn_plan is its single executor,
// and it mutates the world exclusively via BgpFabric::apply (RouteDelta
// batches — the fabric's sole mutation entry point).
// ---------------------------------------------------------------------------

/// One post-convergence churn event.
///
///   kFlap           — the subject prefixes go down (converge), stay down
///                     for `hold`, come back (converge): the paper's §1
///                     churn unit, whose amortised cost the soak measures.
///                     A zero-hold whole-site flap is the §2 ingress-TE
///                     swing (re-homing): the stub withdraws and
///                     immediately re-enters via its new preference.
///   kPrefixDown     — the subject prefixes are withdrawn and stay down.
///   kPrefixUp       — the subject prefixes are (re-)announced.
///   kPolicyIncident — fires the study's configured PolicyEvent
///                     (config.policy.event — the incident is wired into
///                     the policy table at build time, so its payload
///                     lives in the config, not here): converge, apply the
///                     event, reconverge, and measure its blast radius
///                     (ChurnPlanResult::incident).  Requires
///                     config.policy.roles, a kLegacyBgp scenario and an
///                     event kind != kNone.
struct ChurnEvent {
  enum class Kind : std::uint8_t {
    kFlap,
    kPrefixDown,
    kPrefixUp,
    kPolicyIncident,
  };
  /// prefix_index value meaning "every prefix the stub announces".
  static constexpr std::size_t kWholeSite = static_cast<std::size_t>(-1);

  Kind kind = Kind::kFlap;
  /// Subject stub (index into the graph's stub tier); ignored by
  /// kPolicyIncident.
  std::size_t stub = 0;
  /// Index into the stub's de-aggregated announcement list, or kWholeSite.
  std::size_t prefix_index = kWholeSite;
  /// kFlap: down-time between the withdrawal settling and re-announcement.
  sim::SimDuration hold{};
  /// Idle gap between the previous event settling and this one starting.
  sim::SimDuration spacing{};

  [[nodiscard]] static ChurnEvent flap(std::size_t stub,
                                       sim::SimDuration hold = {},
                                       sim::SimDuration spacing = {}) {
    return ChurnEvent{Kind::kFlap, stub, kWholeSite, hold, spacing};
  }
  [[nodiscard]] static ChurnEvent prefix_down(std::size_t stub,
                                              std::size_t prefix_index) {
    return ChurnEvent{Kind::kPrefixDown, stub, prefix_index, {}, {}};
  }
  [[nodiscard]] static ChurnEvent prefix_up(std::size_t stub,
                                            std::size_t prefix_index) {
    return ChurnEvent{Kind::kPrefixUp, stub, prefix_index, {}, {}};
  }
  [[nodiscard]] static ChurnEvent policy_incident() {
    return ChurnEvent{Kind::kPolicyIncident, 0, kWholeSite, {}, {}};
  }
};

/// A declarative churn plan: events execute in order on one long-lived
/// converged fabric (incremental mode), or — `full_replay` — each against
/// a freshly rebuilt and re-converged world (the marginal-cost baseline).
/// For state-restoring plans (flaps, down/up pairs) the two
/// modes measure byte-identical per-event deltas: a flap restores every
/// RIB, ledger, and pending set exactly, and event cascades are
/// time-translation invariant.  Plans with persistent events (a lone
/// kPrefixDown, a policy incident followed by more events) diverge by
/// construction — the baseline re-measures each from the pristine world.
struct ChurnPlan {
  std::vector<ChurnEvent> events;
  bool full_replay = false;
};

/// Per-event measured deltas, network-wide.
struct ChurnEventMeasure {
  ChurnEvent::Kind kind = ChurnEvent::Kind::kFlap;
  std::uint64_t update_messages = 0;
  std::uint64_t route_records = 0;
  /// Convergence time the event cost (hold/spacing excluded).
  double settle_ms = 0.0;
  std::size_t ases_touched = 0;
  /// Engine events the re-convergence fired: the incremental-cost metric.
  std::uint64_t engine_events = 0;

  bool operator==(const ChurnEventMeasure&) const = default;
};

struct ChurnPlanResult {
  std::vector<ChurnEventMeasure> events;
  /// kFlap events executed (the soak guard's flap count).
  std::size_t flaps = 0;
  std::uint64_t update_messages = 0;  ///< totals over all events
  std::uint64_t route_records = 0;
  std::uint64_t engine_events = 0;
  double mean_updates_per_flap = 0.0;
  double mean_records_per_flap = 0.0;
  double mean_settle_ms = 0.0;  ///< over flap events
  double max_settle_ms = 0.0;
  /// Simulated span of the whole plan: spacings + settles + holds.
  double span_ms = 0.0;
  /// Full blast-radius measurement of the last kPolicyIncident, if any.
  std::optional<PolicyEventResult> incident;

  /// Field-wise equality, doubles exact: the byte-identity contract
  /// (incremental vs full replay, any shard count) in one comparison.
  bool operator==(const ChurnPlanResult&) const = default;
};

/// Executes the plan (see ChurnPlan) and measures every event.  Under
/// kLispRlocOnly the events are mapping-side (a PCE push no BGP speaker
/// hears): flaps are counted but every BGP-side measure is exactly zero,
/// the paper's churn-amortisation claim in one row.  Deterministic for any
/// shard/worker count; byte-identical across reruns and sweep --jobs.
/// Throws std::invalid_argument before building anything, under either
/// scenario, when an event's stub or prefix index is out of range or a
/// kPolicyIncident's configuration or target stubs are invalid.
[[nodiscard]] ChurnPlanResult run_churn_plan(const DfzStudyConfig& config,
                                             const ChurnPlan& plan);

/// Deterministic soak-plan generator: `flaps` whole-site kFlap events over
/// `stub_count` stubs (uniform via a derived sim::Rng stream), exponential
/// inter-arrival spacing with the given mean, fixed hold.  Same seed, same
/// plan — across reruns, --jobs, and machines.
[[nodiscard]] ChurnPlan make_flap_plan(std::size_t flaps,
                                       std::size_t stub_count,
                                       std::uint64_t seed,
                                       sim::SimDuration mean_spacing,
                                       sim::SimDuration hold);

/// The prefixes a stub injects under the given de-aggregation factor:
/// `factor` equal-sized sub-blocks of its /20 site block (factor 1 = the
/// block itself).  Exposed for tests.
[[nodiscard]] std::vector<net::Ipv4Prefix> stub_site_prefixes(
    std::size_t stub_index, std::size_t deaggregation_factor);

/// The aggregate a provider (tier-1 or transit) announces for its RLOC
/// space.  Exposed for tests.
[[nodiscard]] net::Ipv4Prefix provider_aggregate(AsNumber asn);

}  // namespace lispcp::routing
