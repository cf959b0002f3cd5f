#include "routing/dfz_study.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <unordered_map>
#include <stdexcept>

#include "routing/policy.hpp"
#include "sim/rng.hpp"

namespace lispcp::routing {

namespace {

/// Stub site blocks live in 100.0.0.0/8, one /20 per stub — disjoint from
/// the provider RLOC space by construction.
constexpr std::uint32_t kSiteSpaceBase = (100u << 24);
constexpr int kSiteBlockLength = 20;

/// Provider RLOC aggregates live in 60.0.0.0/8, one /12 per provider ASN.
constexpr std::uint32_t kRlocSpaceBase = (60u << 24);
constexpr int kProviderAggregateLength = 12;

[[nodiscard]] bool is_power_of_two(std::size_t v) {
  return v != 0 && (v & (v - 1)) == 0;
}

/// All tier-1 and transit ASes: the provider set that owns RLOC space.
[[nodiscard]] std::vector<AsNumber> providers_of(const AsGraph& graph) {
  std::vector<AsNumber> out = graph.ases_of_tier(AsTier::kTier1);
  const auto transits = graph.ases_of_tier(AsTier::kTransit);
  out.insert(out.end(), transits.begin(), transits.end());
  return out;
}

struct BuiltStudy {
  explicit BuiltStudy(const SyntheticInternetConfig& config)
      : graph(build_synthetic_internet(config)) {}

  /// This study's own topology.  The fabric holds a reference to it, so it
  /// is declared first and never moves (BuiltStudy lives behind a
  /// unique_ptr); the mutable per-run state lives in the fabric.
  const AsGraph graph;
  std::unique_ptr<BgpFabric> fabric;
  /// Non-const handle on the fabric's policy table (null with roles off):
  /// event studies mutate it between convergence runs (engine idle).
  std::shared_ptr<policy::PolicyTable> table;
  std::vector<AsNumber> stubs;
  std::size_t origin_prefixes = 0;
  std::size_t mapping_entries = 0;
};

/// Resolves PolicyEvent::actor_stub's SIZE_MAX default to the last stub.
[[nodiscard]] std::size_t resolve_actor(const PolicyEvent& event,
                                        std::size_t stub_count) {
  return event.actor_stub == static_cast<std::size_t>(-1) ? stub_count - 1
                                                          : event.actor_stub;
}

/// The provider sessions of a stub, in graph order.
[[nodiscard]] std::vector<AsNumber> providers_of_stub(const AsGraph& graph,
                                                      AsNumber stub) {
  std::vector<AsNumber> out;
  for (const AsGraph::Neighbor& n : graph.neighbors(stub)) {
    if (n.kind == NeighborKind::kProvider) out.push_back(n.asn);
  }
  return out;
}

/// Attaches the Gao-Rexford table plus the study's policy wiring: IRR-style
/// strict customer-origin import filters on the configured transit
/// fraction, and — for the selective-TE event — export maps on the
/// victim's non-chosen provider sessions denying its more-specifics.
void wire_policy(const DfzStudyConfig& config, BuiltStudy& study,
                 BgpConfig& bgp) {
  study.table = policy::PolicyTable::gao_rexford(study.graph);

  const AsGraph& graph = study.graph;
  const auto transits = graph.ases_of_tier(AsTier::kTransit);
  const auto& stubs = study.stubs;
  std::unordered_map<std::uint32_t, std::size_t> stub_index;
  for (std::size_t i = 0; i < stubs.size(); ++i) {
    stub_index.emplace(stubs[i].value(), i);
  }

  const double fraction =
      std::clamp(config.policy.filtered_transit_fraction, 0.0, 1.0);
  const auto filtered = static_cast<std::size_t>(
      std::ceil(fraction * static_cast<double>(transits.size())));
  for (std::size_t t = 0; t < filtered; ++t) {
    for (const AsGraph::Neighbor& n : graph.neighbors(transits[t])) {
      if (n.kind != NeighborKind::kCustomer) continue;
      const auto it = stub_index.find(n.asn.value());
      if (it == stub_index.end()) continue;  // a transit customer: no filter
      const net::Ipv4Prefix block = stub_site_prefixes(it->second, 1).front();
      policy::RouteMap& map =
          study.table->add_map("customer-origin:" + n.asn.to_string());
      map.add(policy::RouteMap::Action::kPermit)
          .match_prefix_list(policy::PrefixList("own-block")
                                 .permit(block, block.length(), 32))
          .set_local_pref(policy::kCustomerLocalPref)
          .add_community(policy::kLearnedFromCustomer);
      study.table->session(transits[t], n.asn).import = &map;
    }
  }

  if (config.policy.event.kind == PolicyEvent::Kind::kSelectiveDeagg &&
      config.scenario == AddressingScenario::kLegacyBgp && !stubs.empty()) {
    const std::size_t victim = config.policy.event.victim_stub;
    if (victim < stubs.size()) {
      const auto providers = providers_of_stub(graph, stubs[victim]);
      const net::Ipv4Prefix block = stub_site_prefixes(victim, 1).front();
      const int base_length =
          stub_site_prefixes(victim, config.deaggregation_factor)
              .front()
              .length();
      for (std::size_t p = 1; p < providers.size(); ++p) {
        // Providers after the first (the TE choice) never hear the
        // more-specifics: deny anything in the victim's block longer than
        // its baseline announcements, pass the rest untouched.
        policy::RouteMap& map = study.table->add_map(
            "te-selective:" + providers[p].to_string());
        map.add(policy::RouteMap::Action::kDeny)
            .match_prefix_list(policy::PrefixList("own-more-specifics")
                                   .permit(block, base_length + 1, 32));
        map.add(policy::RouteMap::Action::kPermit);
        study.table->session(stubs[victim], providers[p]).export_map = &map;
      }
    }
  }

  bgp.policy = study.table;
}

/// Builds the Internet, originates prefixes per scenario, returns the
/// un-converged fabric.
[[nodiscard]] std::unique_ptr<BuiltStudy> build_study(const DfzStudyConfig& config) {
  if (!is_power_of_two(config.deaggregation_factor) ||
      config.deaggregation_factor > 4096) {
    throw std::invalid_argument(
        "DfzStudy: deaggregation_factor must be a power of two <= 4096");
  }
  auto study = std::make_unique<BuiltStudy>(config.internet);
  study->stubs = study->graph.ases_of_tier(AsTier::kStub);

  BgpConfig bgp = config.bgp;
  if (config.policy.roles) wire_policy(config, *study, bgp);

  study->fabric = std::make_unique<BgpFabric>(study->graph, bgp);

  // The origination storm is one RouteDelta batch through the fabric's
  // mutation surface — the same per-delta sequence the old speaker loops
  // ran, so the converged state is byte-identical.
  const std::vector<AsNumber> providers = providers_of(study->graph);
  std::vector<RouteDelta> originations;
  originations.reserve(providers.size() +
                       (config.scenario == AddressingScenario::kLegacyBgp
                            ? study->stubs.size() * config.deaggregation_factor
                            : 0));
  for (AsNumber provider : providers) {
    originations.push_back(
        RouteDelta::announce(provider, provider_aggregate(provider)));
    ++study->origin_prefixes;
  }
  const auto& stubs = study->stubs;
  for (std::size_t i = 0; i < stubs.size(); ++i) {
    const auto prefixes = stub_site_prefixes(i, config.deaggregation_factor);
    if (config.scenario == AddressingScenario::kLegacyBgp) {
      for (const net::Ipv4Prefix& prefix : prefixes) {
        originations.push_back(RouteDelta::announce(stubs[i], prefix));
        ++study->origin_prefixes;
      }
    } else {
      // LISP: the EID block is registered with the mapping system and never
      // enters a BGP session.
      study->mapping_entries += prefixes.size();
    }
  }
  study->fabric->apply(originations);
  return study;
}

/// Network-wide counters captured before an event and diffed afterwards.
/// best_changes is in graph order (the ases() iteration), matching the
/// touch scan — deterministic, no hashing.
struct FabricCounters {
  std::uint64_t updates = 0;
  std::uint64_t records = 0;
  std::vector<std::uint64_t> best_changes;
};

[[nodiscard]] FabricCounters snapshot_counters(const BuiltStudy& study) {
  FabricCounters counters;
  counters.updates = study.fabric->total_updates_sent();
  counters.records = study.fabric->total_routes_announced() +
                     study.fabric->total_routes_withdrawn();
  counters.best_changes.reserve(study.graph.size());
  for (AsNumber asn : study.graph.ases()) {
    counters.best_changes.push_back(
        study.fabric->speaker(asn).stats().best_changes);
  }
  return counters;
}

[[nodiscard]] std::size_t count_ases_touched(const BuiltStudy& study,
                                             const FabricCounters& before) {
  std::size_t touched = 0;
  std::size_t index = 0;
  for (AsNumber asn : study.graph.ases()) {
    if (study.fabric->speaker(asn).stats().best_changes >
        before.best_changes[index]) {
      ++touched;
    }
    ++index;
  }
  return touched;
}

/// The prefixes a churn event takes down or brings back up.
[[nodiscard]] std::vector<net::Ipv4Prefix> churn_subject_prefixes(
    const DfzStudyConfig& config, const ChurnEvent& event) {
  auto prefixes = stub_site_prefixes(event.stub, config.deaggregation_factor);
  if (event.prefix_index == ChurnEvent::kWholeSite) return prefixes;
  return {prefixes[event.prefix_index]};
}

/// Rejects a plan run_churn_plan cannot execute — before any world is
/// built, and under either scenario: every event's stub and prefix index,
/// and, when the plan fires a policy incident, the incident's
/// configuration and target stubs.
void validate_plan(const DfzStudyConfig& config, const ChurnPlan& plan) {
  const std::size_t stubs = config.internet.stub_count;
  bool has_incident = false;
  for (const ChurnEvent& event : plan.events) {
    if (event.kind == ChurnEvent::Kind::kPolicyIncident) {
      has_incident = true;
      continue;
    }
    if (event.stub >= stubs) {
      throw std::invalid_argument("run_churn_plan: event stub out of range");
    }
    if (event.prefix_index != ChurnEvent::kWholeSite &&
        event.prefix_index >= config.deaggregation_factor) {
      throw std::invalid_argument("run_churn_plan: prefix_index out of range");
    }
  }
  if (!has_incident) return;

  const PolicyEvent& incident = config.policy.event;
  if (!config.policy.roles) {
    throw std::invalid_argument(
        "run_churn_plan: a policy incident requires policy.roles "
        "(Gao-Rexford table)");
  }
  if (config.scenario != AddressingScenario::kLegacyBgp) {
    throw std::invalid_argument(
        "run_churn_plan: policy incidents are BGP incidents; use kLegacyBgp");
  }
  if (incident.kind == PolicyEvent::Kind::kNone) {
    throw std::invalid_argument("run_churn_plan: policy.event.kind is kNone");
  }
  if (!is_power_of_two(incident.deagg_factor) || incident.deagg_factor > 4096) {
    throw std::invalid_argument(
        "run_churn_plan: policy.event.deagg_factor must be a power of two "
        "<= 4096");
  }
  if (incident.victim_stub >= stubs) {
    throw std::invalid_argument("run_churn_plan: victim_stub out of range");
  }
  if (resolve_actor(incident, stubs) >= stubs) {
    throw std::invalid_argument("run_churn_plan: actor_stub out of range");
  }
}

/// Applies the configured PolicyEvent to a converged study and measures its
/// blast radius, mutating the world only through RouteDelta batches.
[[nodiscard]] PolicyEventResult execute_policy_incident(
    const DfzStudyConfig& config, BuiltStudy& study) {
  const PolicyEvent& event = config.policy.event;
  const std::vector<AsNumber>& stubs = study.stubs;
  const AsNumber victim = stubs[event.victim_stub];
  const AsNumber actor = stubs[resolve_actor(event, stubs.size())];

  PolicyEventResult result;
  const FabricCounters before = snapshot_counters(study);
  std::uint64_t rib_before = 0;
  for (AsNumber asn : study.graph.ases()) {
    rib_before += study.fabric->speaker(asn).rib_size();
  }
  const auto tier1s = study.graph.ases_of_tier(AsTier::kTier1);
  result.dfz_table_before = study.fabric->speaker(tier1s.front()).rib_size();
  const sim::SimTime t0 = study.fabric->now();

  // The probe prefixes the capture scan looks up afterwards, and the
  // predicate that says "this best route prefers the actor".
  std::vector<net::Ipv4Prefix> probes;
  enum class Capture : std::uint8_t { kOriginatedByActor, kPathThrough };
  Capture capture = Capture::kOriginatedByActor;
  AsNumber capture_asn = actor;
  std::vector<RouteDelta> batch;

  switch (event.kind) {
    case PolicyEvent::Kind::kHijackMoreSpecific: {
      // The attacker splits the victim's block one level finer than the
      // victim announces: every covered prefix is new, so longest-prefix
      // match hands over traffic wherever the announcement survives.
      probes = stub_site_prefixes(
          event.victim_stub, config.deaggregation_factor * event.deagg_factor);
      for (const net::Ipv4Prefix& prefix : probes) {
        batch.push_back(RouteDelta::announce(actor, prefix));
      }
      result.event_announcements = probes.size();
      break;
    }
    case PolicyEvent::Kind::kHijackSameSpecific: {
      // The attacker forges the victim's exact announcements; the decision
      // process arbitrates, so capture stays distance-limited.
      probes =
          stub_site_prefixes(event.victim_stub, config.deaggregation_factor);
      for (const net::Ipv4Prefix& prefix : probes) {
        batch.push_back(RouteDelta::announce(actor, prefix));
      }
      result.event_announcements = probes.size();
      break;
    }
    case PolicyEvent::Kind::kRouteLeak: {
      // The classic type-1 leak: the actor re-exports everything it knows
      // (including provider- and peer-learned routes) to one provider.
      const auto providers = providers_of_stub(study.graph, actor);
      if (providers.empty()) {
        throw std::invalid_argument("run_churn_plan: leaker has no provider");
      }
      const AsNumber target = providers.back();
      study.table->session(actor, target).valley_free = false;
      result.event_announcements = study.fabric->speaker(actor).rib_size();
      batch.push_back(RouteDelta::refresh(actor, target));
      // Leaked traffic detours through the actor: probe the provider
      // aggregates and count ASes whose best path transits the leaker.
      for (AsNumber provider : providers_of(study.graph)) {
        probes.push_back(provider_aggregate(provider));
      }
      capture = Capture::kPathThrough;
      break;
    }
    case PolicyEvent::Kind::kSelectiveDeagg:
    case PolicyEvent::Kind::kBroadcastDeagg: {
      // TE by de-aggregation: the victim splits its own block finer.  The
      // selective variant's export maps (wired at build time) keep the
      // more-specifics off every provider session but the first, so only
      // the chosen ingress hears them; broadcast prices the naive version.
      probes = stub_site_prefixes(
          event.victim_stub, config.deaggregation_factor * event.deagg_factor);
      for (const net::Ipv4Prefix& prefix : probes) {
        batch.push_back(RouteDelta::announce(victim, prefix));
      }
      result.event_announcements = probes.size();
      // Steering success: the best path toward a more-specific transits the
      // chosen (first) provider.
      const auto providers = providers_of_stub(study.graph, victim);
      if (providers.empty()) {
        throw std::invalid_argument("run_churn_plan: victim has no provider");
      }
      capture = Capture::kPathThrough;
      capture_asn = providers.front();
      break;
    }
    case PolicyEvent::Kind::kNone:
      break;  // unreachable: rejected by validate_plan
  }

  study.fabric->apply(batch);
  study.fabric->run_to_convergence();

  result.update_messages =
      study.fabric->total_updates_sent() - before.updates;
  result.route_records = study.fabric->total_routes_announced() +
                         study.fabric->total_routes_withdrawn() -
                         before.records;
  result.settle_ms = (study.fabric->now() - t0).ms();
  result.dfz_table_after = study.fabric->speaker(tier1s.front()).rib_size();

  std::uint64_t rib_after = 0;
  std::size_t index = 0;
  for (AsNumber asn : study.graph.ases()) {
    const BgpSpeaker& speaker = study.fabric->speaker(asn);
    rib_after += speaker.rib_size();
    if (speaker.stats().best_changes > before.best_changes[index]) {
      ++result.ases_touched;
    }
    ++index;
    // Exact-prefix capture scan (the probes are the event's own
    // announcements, so LPM is unnecessary): does this AS's best route for
    // any probe prefer the actor?
    bool prefers = false;
    for (const net::Ipv4Prefix& probe : probes) {
      const BgpSpeaker::BestRoute* best = speaker.best(probe);
      if (best == nullptr) continue;
      if (capture == Capture::kOriginatedByActor) {
        const AsNumber origin =
            best->as_path().empty() ? asn : best->as_path().back();
        prefers = origin == capture_asn;
      } else {
        prefers = std::find(best->as_path().begin(), best->as_path().end(),
                            capture_asn) != best->as_path().end();
      }
      if (prefers) break;
    }
    if (prefers) ++result.ases_preferring_actor;
  }
  result.actor_preference_fraction =
      static_cast<double>(result.ases_preferring_actor) /
      static_cast<double>(study.graph.size());
  result.rib_delta =
      rib_after > rib_before ? static_cast<std::size_t>(rib_after - rib_before)
                             : 0;
  if (result.event_announcements > 0) {
    result.rib_cost_per_announcement =
        static_cast<double>(result.rib_delta) /
        static_cast<double>(result.event_announcements);
    result.churn_per_announcement =
        static_cast<double>(result.route_records) /
        static_cast<double>(result.event_announcements);
  }
  return result;
}

/// Executes one churn event against a converged study.  A flap is two
/// RouteDelta batches around an idle-clock hold; the measured settle
/// excludes the hold, so a zero-hold flap costs exactly a back-to-back
/// withdraw/announce sequence.
[[nodiscard]] ChurnEventMeasure execute_churn_event(
    const DfzStudyConfig& config, BuiltStudy& study, const ChurnEvent& event,
    std::optional<PolicyEventResult>& incident) {
  ChurnEventMeasure measure;
  measure.kind = event.kind;
  if (event.kind == ChurnEvent::Kind::kPolicyIncident) {
    PolicyEventResult incident_result = execute_policy_incident(config, study);
    measure.update_messages = incident_result.update_messages;
    measure.route_records = incident_result.route_records;
    measure.settle_ms = incident_result.settle_ms;
    measure.ases_touched = incident_result.ases_touched;
    measure.engine_events = study.fabric->last_run_events();
    incident = std::move(incident_result);
    return measure;
  }

  const AsNumber subject = study.stubs[event.stub];
  const auto prefixes = churn_subject_prefixes(config, event);
  const FabricCounters before = snapshot_counters(study);
  const sim::SimTime t0 = study.fabric->now();
  sim::SimDuration held{};

  std::vector<RouteDelta> batch;
  batch.reserve(prefixes.size());
  if (event.kind != ChurnEvent::Kind::kPrefixUp) {
    for (const net::Ipv4Prefix& prefix : prefixes) {
      batch.push_back(RouteDelta::withdraw(subject, prefix));
    }
    study.fabric->apply(batch);
    study.fabric->run_to_convergence();
    measure.engine_events += study.fabric->last_run_events();
  }
  if (event.kind != ChurnEvent::Kind::kPrefixDown) {
    if (event.kind == ChurnEvent::Kind::kFlap &&
        event.hold > sim::SimDuration{}) {
      study.fabric->advance(event.hold);
      held = event.hold;
    }
    batch.clear();
    for (const net::Ipv4Prefix& prefix : prefixes) {
      batch.push_back(RouteDelta::announce(subject, prefix));
    }
    study.fabric->apply(batch);
    study.fabric->run_to_convergence();
    measure.engine_events += study.fabric->last_run_events();
  }

  measure.update_messages =
      study.fabric->total_updates_sent() - before.updates;
  measure.route_records = study.fabric->total_routes_announced() +
                          study.fabric->total_routes_withdrawn() -
                          before.records;
  measure.settle_ms = ((study.fabric->now() - t0) - held).ms();
  measure.ases_touched = count_ases_touched(study, before);
  return measure;
}

}  // namespace

std::string to_string(AddressingScenario scenario) {
  switch (scenario) {
    case AddressingScenario::kLegacyBgp: return "legacy-bgp";
    case AddressingScenario::kLispRlocOnly: return "lisp-rloc-only";
  }
  return "?";
}

std::string to_string(PolicyEvent::Kind kind) {
  switch (kind) {
    case PolicyEvent::Kind::kNone: return "none";
    case PolicyEvent::Kind::kHijackMoreSpecific: return "hijack-more-specific";
    case PolicyEvent::Kind::kHijackSameSpecific: return "hijack-same-specific";
    case PolicyEvent::Kind::kRouteLeak: return "route-leak";
    case PolicyEvent::Kind::kSelectiveDeagg: return "selective-deagg";
    case PolicyEvent::Kind::kBroadcastDeagg: return "broadcast-deagg";
  }
  return "?";
}

std::vector<net::Ipv4Prefix> stub_site_prefixes(std::size_t stub_index,
                                                std::size_t deaggregation_factor) {
  if (!is_power_of_two(deaggregation_factor) || deaggregation_factor > 4096) {
    throw std::invalid_argument(
        "stub_site_prefixes: factor must be a power of two <= 4096");
  }
  const std::uint64_t block_size = std::uint64_t{1} << (32 - kSiteBlockLength);
  const std::uint64_t base = kSiteSpaceBase + stub_index * block_size;
  if (base + block_size > (std::uint64_t{101} << 24)) {
    throw std::out_of_range("stub_site_prefixes: stub index exhausts 100/8");
  }
  const int extra_bits =
      static_cast<int>(std::lround(std::log2(deaggregation_factor)));
  const int length = kSiteBlockLength + extra_bits;
  const std::uint64_t piece = block_size >> extra_bits;
  std::vector<net::Ipv4Prefix> out;
  out.reserve(deaggregation_factor);
  for (std::size_t k = 0; k < deaggregation_factor; ++k) {
    out.emplace_back(net::Ipv4Address(static_cast<std::uint32_t>(base + k * piece)),
                     length);
  }
  return out;
}

net::Ipv4Prefix provider_aggregate(AsNumber asn) {
  const std::uint64_t block_size =
      std::uint64_t{1} << (32 - kProviderAggregateLength);
  const std::uint64_t base =
      kRlocSpaceBase + std::uint64_t{asn.value() - 1} * block_size;
  if (base + block_size > (std::uint64_t{61} << 24)) {
    throw std::out_of_range("provider_aggregate: ASN exhausts 60/8");
  }
  return {net::Ipv4Address(static_cast<std::uint32_t>(base)),
          kProviderAggregateLength};
}

DfzStudyResult run_dfz_study(const DfzStudyConfig& config) {
  auto study = build_study(config);
  const sim::SimTime converged = study->fabric->run_to_convergence();

  DfzStudyResult result;
  result.bgp_origin_prefixes = study->origin_prefixes;
  result.mapping_system_entries = study->mapping_entries;
  result.update_messages = study->fabric->total_updates_sent();
  result.route_records = study->fabric->total_routes_announced();
  result.convergence_ms = converged.ms();

  const auto tier1s = study->graph.ases_of_tier(AsTier::kTier1);
  result.dfz_table_size = study->fabric->speaker(tier1s.front()).rib_size();

  std::uint64_t total = 0;
  for (AsNumber asn : study->graph.ases()) {
    const std::size_t size = study->fabric->speaker(asn).rib_size();
    total += size;
    result.max_rib_size = std::max(result.max_rib_size, size);
  }
  result.mean_rib_size =
      static_cast<double>(total) / static_cast<double>(study->graph.size());
  return result;
}

ChurnPlanResult run_churn_plan(const DfzStudyConfig& config,
                               const ChurnPlan& plan) {
  validate_plan(config, plan);
  const auto is_flap = [](const ChurnEvent& event) {
    return event.kind == ChurnEvent::Kind::kFlap;
  };

  ChurnPlanResult result;
  result.events.reserve(plan.events.size());

  if (config.scenario == AddressingScenario::kLispRlocOnly) {
    // Churn is a mapping update: the PCE pushes a new (ES, ED, RLOC_S,
    // RLOC_D) tuple (Step 7b) and no BGP speaker hears about it.  Every
    // BGP-side measure is identically zero — the paper's amortisation
    // claim in one row — but the plan's shape (flap count, span) is still
    // reported so soak series stay comparable across scenarios.  The
    // mapping-side latency is measured by bench/e4_traffic_engineering.
    for (const ChurnEvent& event : plan.events) {
      ChurnEventMeasure measure;
      measure.kind = event.kind;
      result.events.push_back(measure);
      if (is_flap(event)) ++result.flaps;
      result.span_ms +=
          event.spacing.ms() + (is_flap(event) ? event.hold.ms() : 0.0);
    }
    return result;
  }

  // Incremental mode converges one world and keeps it; full replay
  // rebuilds it per event — the pre-incremental measurement model, kept as
  // the CI parity baseline.  span_ms accumulates identically in both
  // modes (spacing + settle + hold, per event), so artifacts byte-match.
  std::unique_ptr<BuiltStudy> study;
  const auto fresh_world = [&] {
    study = build_study(config);
    study->fabric->run_to_convergence();
  };
  if (!plan.full_replay) fresh_world();

  double flap_settle_sum = 0.0;
  std::uint64_t flap_updates = 0;
  std::uint64_t flap_records = 0;
  for (const ChurnEvent& event : plan.events) {
    if (plan.full_replay) fresh_world();
    if (event.spacing > sim::SimDuration{}) {
      study->fabric->advance(event.spacing);
    }
    const ChurnEventMeasure measure =
        execute_churn_event(config, *study, event, result.incident);

    result.update_messages += measure.update_messages;
    result.route_records += measure.route_records;
    result.engine_events += measure.engine_events;
    result.max_settle_ms = std::max(result.max_settle_ms, measure.settle_ms);
    result.span_ms += event.spacing.ms() + measure.settle_ms +
                      (is_flap(event) ? event.hold.ms() : 0.0);
    if (is_flap(event)) {
      ++result.flaps;
      flap_settle_sum += measure.settle_ms;
      flap_updates += measure.update_messages;
      flap_records += measure.route_records;
    }
    result.events.push_back(measure);
  }
  if (result.flaps > 0) {
    const auto flaps = static_cast<double>(result.flaps);
    result.mean_updates_per_flap = static_cast<double>(flap_updates) / flaps;
    result.mean_records_per_flap = static_cast<double>(flap_records) / flaps;
    result.mean_settle_ms = flap_settle_sum / flaps;
  }
  return result;
}

ChurnPlan make_flap_plan(std::size_t flaps, std::size_t stub_count,
                         std::uint64_t seed, sim::SimDuration mean_spacing,
                         sim::SimDuration hold) {
  if (stub_count == 0) {
    throw std::invalid_argument("make_flap_plan: stub_count must be > 0");
  }
  sim::Rng rng(seed);
  ChurnPlan plan;
  plan.events.reserve(flaps);
  for (std::size_t i = 0; i < flaps; ++i) {
    const auto stub =
        static_cast<std::size_t>(rng.uniform_int(0, stub_count - 1));
    const auto spacing_ns = static_cast<std::int64_t>(std::llround(
        rng.exponential(static_cast<double>(mean_spacing.ns()))));
    plan.events.push_back(
        ChurnEvent::flap(stub, hold, sim::SimDuration::nanos(spacing_ns)));
  }
  return plan;
}

}  // namespace lispcp::routing
