// Tests for routing/policy: prefix-lists, AS-path patterns, route-maps and
// their attachment points in BgpSpeaker; the Gao-Rexford role table and the
// valley-free invariant checker at K ∈ {1, 8}; the PolicyEvent studies
// (hijack containment, route leak, selective de-aggregation TE); and the
// parity pins the subsystem promises — roles-on records byte-identical to
// policy-off, and policy-event records byte-identical across shard counts.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>

#include "routing/as_graph.hpp"
#include "routing/bgp.hpp"
#include "routing/dfz_study.hpp"
#include "routing/policy.hpp"
#include "scenario/dfz_adapter.hpp"
#include "scenario/sweep.hpp"

namespace lispcp::routing {
namespace {

// ---------------------------------------------------------------------------
// Prefix lists, communities, AS-path patterns
// ---------------------------------------------------------------------------

TEST(PrefixList, ExactMatchByDefault) {
  policy::PrefixList list("l");
  list.permit(net::Ipv4Prefix::from_string("100.0.0.0/20"));
  EXPECT_TRUE(list.matches(net::Ipv4Prefix::from_string("100.0.0.0/20")));
  EXPECT_FALSE(list.matches(net::Ipv4Prefix::from_string("100.0.0.0/22")));
  EXPECT_FALSE(list.matches(net::Ipv4Prefix::from_string("100.0.16.0/20")));
}

TEST(PrefixList, GeLeBoundsAndFirstMatchWins) {
  policy::PrefixList list("l");
  // Deny the /24s inside the block, permit everything else in it up to /28.
  list.deny(net::Ipv4Prefix::from_string("100.0.0.0/20"), 24, 24);
  list.permit(net::Ipv4Prefix::from_string("100.0.0.0/20"), 20, 28);
  EXPECT_TRUE(list.matches(net::Ipv4Prefix::from_string("100.0.0.0/20")));
  EXPECT_TRUE(list.matches(net::Ipv4Prefix::from_string("100.0.4.0/22")));
  EXPECT_FALSE(list.matches(net::Ipv4Prefix::from_string("100.0.1.0/24")));
  EXPECT_FALSE(list.matches(net::Ipv4Prefix::from_string("100.0.0.0/30")));
  // Implicit deny: outside the block entirely.
  EXPECT_FALSE(list.matches(net::Ipv4Prefix::from_string("99.0.0.0/24")));
}

TEST(Community, MakeToStringAndSortedInsert) {
  const auto c = policy::make_community(65535, 7);
  EXPECT_EQ(policy::to_string(c), "65535:7");
  std::vector<policy::Community> set;
  policy::add_community(set, policy::make_community(10, 2));
  policy::add_community(set, policy::make_community(10, 1));
  policy::add_community(set, policy::make_community(10, 2));  // duplicate
  ASSERT_EQ(set.size(), 2u);
  EXPECT_EQ(set[0], policy::make_community(10, 1));
  EXPECT_EQ(set[1], policy::make_community(10, 2));
}

TEST(AsPathPattern, Kinds) {
  const std::vector<AsNumber> path{AsNumber{4}, AsNumber{2}, AsNumber{9}};
  const std::vector<AsNumber> empty;
  EXPECT_TRUE(policy::AsPathPattern::parse("").matches(path));
  EXPECT_TRUE(policy::AsPathPattern::parse("^$").matches(empty));
  EXPECT_FALSE(policy::AsPathPattern::parse("^$").matches(path));
  EXPECT_TRUE(policy::AsPathPattern::parse("^4").matches(path));
  EXPECT_FALSE(policy::AsPathPattern::parse("^2").matches(path));
  EXPECT_TRUE(policy::AsPathPattern::parse("9$").matches(path));
  EXPECT_FALSE(policy::AsPathPattern::parse("2$").matches(path));
  EXPECT_TRUE(policy::AsPathPattern::parse("2").matches(path));
  EXPECT_FALSE(policy::AsPathPattern::parse("5").matches(path));
  EXPECT_TRUE(policy::AsPathPattern::parse("^4$").matches({AsNumber{4}}));
  EXPECT_FALSE(policy::AsPathPattern::parse("^4$").matches(path));
  EXPECT_THROW(policy::AsPathPattern::parse("4 5"), std::invalid_argument);
  EXPECT_THROW(policy::AsPathPattern::parse("^"), std::invalid_argument);
}

TEST(RouteMap, FirstMatchImplicitDenyAndActions) {
  const auto prefix = net::Ipv4Prefix::from_string("100.0.0.0/20");
  const std::vector<AsNumber> path{AsNumber{2}};
  const std::vector<policy::Community> none;

  policy::RouteMap map("m");
  policy::PrefixList block("b");
  block.permit(prefix, 20, 32);
  map.add(policy::RouteMap::Action::kDeny).match_prefix_length(24, 32);
  map.add(policy::RouteMap::Action::kPermit)
      .match_prefix_list(block)
      .set_local_pref(300)
      .add_community(policy::make_community(1, 1))
      .prepend(2);

  const auto hit = map.evaluate(policy::RouteContext{prefix, path, none});
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->local_pref, 300u);
  ASSERT_EQ(hit->add_communities.size(), 1u);
  EXPECT_EQ(hit->prepend, 2u);

  // The deny clause matches first for long prefixes inside the block.
  const auto long_prefix = net::Ipv4Prefix::from_string("100.0.1.0/24");
  EXPECT_FALSE(
      map.evaluate(policy::RouteContext{long_prefix, path, none}).has_value());
  // Implicit deny: nothing matches outside the block.
  const auto other = net::Ipv4Prefix::from_string("99.0.0.0/20");
  EXPECT_FALSE(
      map.evaluate(policy::RouteContext{other, path, none}).has_value());
}

TEST(RouteMap, CommunityAndAsPathConditionsAnd) {
  const auto prefix = net::Ipv4Prefix::from_string("100.0.0.0/20");
  const std::vector<AsNumber> path{AsNumber{2}, AsNumber{5}};
  std::vector<policy::Community> tags;
  policy::add_community(tags, policy::kLearnedFromCustomer);

  policy::RouteMap map("m");
  map.add(policy::RouteMap::Action::kPermit)
      .match_community(policy::kLearnedFromCustomer)
      .match_as_path(policy::AsPathPattern::parse("5$"));

  EXPECT_TRUE(map.evaluate(policy::RouteContext{prefix, path, tags}).has_value());
  const std::vector<policy::Community> other_tag{policy::kLearnedFromPeer};
  EXPECT_FALSE(
      map.evaluate(policy::RouteContext{prefix, path, other_tag}).has_value());
  const std::vector<AsNumber> other_path{AsNumber{2}};
  EXPECT_FALSE(
      map.evaluate(policy::RouteContext{prefix, other_path, tags}).has_value());
}

// ---------------------------------------------------------------------------
// Attachment in BgpSpeaker: import local-pref, export deny, prepend
// ---------------------------------------------------------------------------

/// One provider (AS1) with two stub customers (AS2, AS3) that both
/// originate the same prefix; AS2 wins the default tiebreak (lowest ASN).
struct Fork {
  explicit Fork(std::shared_ptr<policy::PolicyTable> table = nullptr) {
    graph.add_as(AsNumber{1}, AsTier::kTransit);
    graph.add_as(AsNumber{2}, AsTier::kStub);
    graph.add_as(AsNumber{3}, AsTier::kStub);
    graph.add_customer_provider(AsNumber{2}, AsNumber{1});
    graph.add_customer_provider(AsNumber{3}, AsNumber{1});
    BgpConfig config;
    config.policy = std::move(table);
    fabric = std::make_unique<BgpFabric>(graph, config);
  }
  AsGraph graph;
  std::unique_ptr<BgpFabric> fabric;
};

const net::Ipv4Prefix kForkPrefix = net::Ipv4Prefix::from_string("100.0.0.0/20");

TEST(BgpPolicy, ImportLocalPrefOverridesTiebreak) {
  auto table = std::make_shared<policy::PolicyTable>();
  auto& map = table->add_map("prefer-as3");
  map.add(policy::RouteMap::Action::kPermit).set_local_pref(300);
  table->session(AsNumber{1}, AsNumber{3}).import = &map;

  Fork fork(table);
  fork.fabric->apply({RouteDelta::announce(AsNumber{2}, kForkPrefix),
                      RouteDelta::announce(AsNumber{3}, kForkPrefix)});
  fork.fabric->run_to_convergence();

  const auto* best = fork.fabric->speaker(AsNumber{1}).best(kForkPrefix);
  ASSERT_NE(best, nullptr);
  EXPECT_EQ(best->learned_from, AsNumber{3});
  EXPECT_EQ(best->local_pref, 300u);
}

TEST(BgpPolicy, ImportDenyFiltersRoute) {
  auto table = std::make_shared<policy::PolicyTable>();
  auto& map = table->add_map("deny-all");
  map.add(policy::RouteMap::Action::kDeny);
  table->session(AsNumber{1}, AsNumber{2}).import = &map;
  table->session(AsNumber{1}, AsNumber{3}).import = &map;

  Fork fork(table);
  fork.fabric->apply({RouteDelta::announce(AsNumber{2}, kForkPrefix)});
  fork.fabric->run_to_convergence();

  EXPECT_EQ(fork.fabric->speaker(AsNumber{1}).best(kForkPrefix), nullptr);
  EXPECT_GT(fork.fabric->speaker(AsNumber{1}).stats().imports_filtered, 0u);
}

TEST(BgpPolicy, ExportDenyAndPrepend) {
  auto table = std::make_shared<policy::PolicyTable>();
  auto& deny = table->add_map("deny-out");
  deny.add(policy::RouteMap::Action::kDeny);
  table->session(AsNumber{2}, AsNumber{1}).export_map = &deny;
  auto& pad = table->add_map("prepend-out");
  pad.add(policy::RouteMap::Action::kPermit).prepend(2);
  table->session(AsNumber{3}, AsNumber{1}).export_map = &pad;

  Fork fork(table);
  fork.fabric->apply({RouteDelta::announce(AsNumber{2}, kForkPrefix),
                      RouteDelta::announce(AsNumber{3}, kForkPrefix)});
  fork.fabric->run_to_convergence();

  // AS2's export is denied, so AS1 sees only AS3's padded path.
  const auto* best = fork.fabric->speaker(AsNumber{1}).best(kForkPrefix);
  ASSERT_NE(best, nullptr);
  EXPECT_EQ(best->learned_from, AsNumber{3});
  ASSERT_EQ(best->as_path().size(), 3u);  // 3, 3, 3 (origin + two prepends)
  EXPECT_EQ(best->as_path()[0], AsNumber{3});
  EXPECT_EQ(best->as_path()[2], AsNumber{3});
  EXPECT_GT(fork.fabric->speaker(AsNumber{2}).stats().exports_filtered, 0u);
}

// ---------------------------------------------------------------------------
// Gao-Rexford roles and the valley-free checker
// ---------------------------------------------------------------------------

/// A converged synthetic Internet with the role table attached, originating
/// the same address plan as the DFZ study (provider aggregates + one block
/// per stub).
struct RolesInternet {
  explicit RolesInternet(std::size_t shards) {
    SyntheticInternetConfig internet;
    internet.tier1_count = 3;
    internet.transit_count = 4;
    internet.stub_count = 16;
    internet.providers_per_stub = 2;
    internet.seed = 7;
    graph = build_synthetic_internet(internet);
    table = policy::PolicyTable::gao_rexford(graph);
    BgpConfig config;
    config.shards = shards;
    config.shard_workers = 1;
    config.policy = table;
    fabric = std::make_unique<BgpFabric>(graph, config);
    std::vector<RouteDelta> originations;
    for (AsTier tier : {AsTier::kTier1, AsTier::kTransit}) {
      for (AsNumber asn : graph.ases_of_tier(tier)) {
        originations.push_back(
            RouteDelta::announce(asn, provider_aggregate(asn)));
      }
    }
    const auto stubs = graph.ases_of_tier(AsTier::kStub);
    for (std::size_t i = 0; i < stubs.size(); ++i) {
      originations.push_back(
          RouteDelta::announce(stubs[i], stub_site_prefixes(i, 1).front()));
    }
    fabric->apply(originations);
    fabric->run_to_convergence();
  }
  AsGraph graph;
  std::shared_ptr<policy::PolicyTable> table;
  std::unique_ptr<BgpFabric> fabric;
};

TEST(ValleyFree, ConvergedRolesFabricHasNoValleys) {
  for (const std::size_t shards : {std::size_t{1}, std::size_t{8}}) {
    RolesInternet internet(shards);
    const auto check = policy::check_valley_free(*internet.fabric);
    EXPECT_GT(check.paths_checked, 0u) << "shards=" << shards;
    EXPECT_EQ(check.violations, 0u) << "shards=" << shards;
  }
}

TEST(ValleyFree, RouteLeakTurnsTheCheckerRed) {
  RolesInternet internet(1);
  const auto stubs = internet.graph.ases_of_tier(AsTier::kStub);
  const AsNumber leaker = stubs.back();
  AsNumber target{};
  for (const auto& neighbor : internet.graph.neighbors(leaker)) {
    if (neighbor.kind == NeighborKind::kProvider) target = neighbor.asn;
  }
  ASSERT_NE(target.value(), 0u);
  internet.table->session(leaker, target).valley_free = false;
  internet.fabric->apply({RouteDelta::refresh(leaker, target)});
  internet.fabric->run_to_convergence();
  const auto check = policy::check_valley_free(*internet.fabric);
  EXPECT_GT(check.violations, 0u);
}

TEST(ValleyFree, PathCheckerAutomaton) {
  AsGraph graph;
  for (std::uint32_t i = 1; i <= 4; ++i) graph.add_as(AsNumber{i}, AsTier::kTransit);
  graph.add_customer_provider(AsNumber{2}, AsNumber{1});  // 2 buys from 1
  graph.add_customer_provider(AsNumber{3}, AsNumber{1});  // 3 buys from 1
  graph.add_peering(AsNumber{2}, AsNumber{3});
  // Valley-free: origin 2 -> up to 1 -> down to 3 (at 3, path {1, 2}).
  EXPECT_TRUE(policy::valley_free_path(graph, AsNumber{3},
                                       {AsNumber{1}, AsNumber{2}}));
  // Peer step is fine once: origin 2 -> across to 3 (at 3, path {2}).
  EXPECT_TRUE(policy::valley_free_path(graph, AsNumber{3}, {AsNumber{2}}));
  // Valley: origin 1 -> down to 2 -> up to... 2->3 is a peering, and after
  // going down a peer step is a valley (at 3, path {2, 1}).
  EXPECT_FALSE(policy::valley_free_path(graph, AsNumber{3},
                                        {AsNumber{2}, AsNumber{1}}));
  // Unknown session (1 and 4 share no edge) counts as a violation.
  EXPECT_FALSE(policy::valley_free_path(graph, AsNumber{4}, {AsNumber{1}}));
}

// ---------------------------------------------------------------------------
// Policy events: hijack containment, leak, de-aggregation TE
// ---------------------------------------------------------------------------

DfzStudyConfig event_config(PolicyEvent::Kind kind, double filtered = 0.0) {
  DfzStudyConfig config;
  config.internet.tier1_count = 3;
  config.internet.transit_count = 4;
  config.internet.stub_count = 24;
  config.internet.providers_per_stub = 2;
  config.internet.seed = 7;
  config.policy.roles = true;
  config.policy.filtered_transit_fraction = filtered;
  config.policy.event.kind = kind;
  config.policy.event.victim_stub = 0;  // actor defaults to the last stub
  return config;
}

/// Converges, fires the configured PolicyEvent, reconverges: a one-event
/// churn plan.
PolicyEventResult run_incident(const DfzStudyConfig& config) {
  ChurnPlan plan;
  plan.events.push_back(ChurnEvent::policy_incident());
  return *run_churn_plan(config, plan).incident;
}

TEST(PolicyEvent, MoreSpecificHijackPropagatesStrictlyFurther) {
  const auto more =
      run_incident(event_config(PolicyEvent::Kind::kHijackMoreSpecific));
  const auto same =
      run_incident(event_config(PolicyEvent::Kind::kHijackSameSpecific));
  // The paper-facing contrast: longest-prefix match hands the more-specific
  // hijacker every AS its announcement reaches, while the same-specific
  // forgery stays distance-limited by the decision process.
  EXPECT_GT(more.ases_preferring_actor, same.ases_preferring_actor);
  EXPECT_GT(more.rib_delta, 0u);
  EXPECT_GT(more.event_announcements, 0u);
}

TEST(PolicyEvent, OriginFiltersContainTheHijack) {
  const auto open =
      run_incident(event_config(PolicyEvent::Kind::kHijackMoreSpecific, 0.0));
  const auto filtered =
      run_incident(event_config(PolicyEvent::Kind::kHijackMoreSpecific, 1.0));
  EXPECT_LT(filtered.ases_preferring_actor, open.ases_preferring_actor);
  // Every transit applies strict customer-origin filters: the forged
  // more-specifics die at the actor's own provider sessions.
  EXPECT_EQ(filtered.ases_preferring_actor, 1u);  // only the actor itself
}

TEST(PolicyEvent, RouteLeakDetoursTraffic) {
  const auto leak = run_incident(event_config(PolicyEvent::Kind::kRouteLeak));
  EXPECT_GT(leak.event_announcements, 0u);
  EXPECT_GT(leak.ases_preferring_actor, 0u);
  EXPECT_GT(leak.ases_touched, 0u);
}

TEST(PolicyEvent, SelectiveDeaggSteersWithLessChurnThanBroadcast) {
  const auto selective =
      run_incident(event_config(PolicyEvent::Kind::kSelectiveDeagg));
  const auto broadcast =
      run_incident(event_config(PolicyEvent::Kind::kBroadcastDeagg));
  // Steering: under selective announcement (export maps withhold the
  // more-specifics from all but the chosen provider) nearly every AS routes
  // the pieces through that provider; broadcast splits the ingress.
  EXPECT_GT(selective.actor_preference_fraction,
            broadcast.actor_preference_fraction);
  // And it costs less: fewer export legs carry the pieces.
  EXPECT_LE(selective.route_records, broadcast.route_records);
  EXPECT_GT(selective.event_announcements, 0u);
  EXPECT_GT(broadcast.rib_delta, 0u);
}

// ---------------------------------------------------------------------------
// Parity pins: roles-on == policy-off records; K-invariance of F2e
// ---------------------------------------------------------------------------

std::string json_bytes(const scenario::ResultSet& results) {
  std::ostringstream os;
  results.to_json(os);
  return os.str();
}

scenario::ResultSet run_study_mini(bool roles) {
  scenario::SweepSpec spec;
  spec.named("F2-roles-parity")
      .base([](scenario::ExperimentConfig& config) {
        config.dfz.internet.tier1_count = 3;
        config.dfz.internet.transit_count = 4;
        config.dfz.internet.providers_per_stub = 2;
        config.dfz.internet.seed = 7;
        config.spec.seed = config.dfz.internet.seed;
      })
      .axis(scenario::dfz::scenarios())
      .axis(scenario::dfz::stub_sites({16, 32}))
      .axis(scenario::dfz::deaggregation({1, 4}));
  if (roles) spec.base(scenario::dfz::roles_enabled());
  scenario::Runner runner(std::move(spec));
  runner.execute(scenario::dfz::run_study);
  return runner.run();
}

TEST(PolicyParity, GaoRexfordRolesReproducePolicyOffRecords) {
  // The role table's local-prefs (customer 200 / peer 100 / provider 50)
  // encode exactly the legacy preference order, so attaching it must not
  // change one byte of the study records — the policy-off byte-parity
  // contract, pinned in-process where a failure bisects.
  const auto off = run_study_mini(false);
  const auto on = run_study_mini(true);
  ASSERT_FALSE(off.records().empty());
  EXPECT_EQ(json_bytes(off), json_bytes(on));
}

scenario::ResultSet run_events_mini(std::size_t shards) {
  scenario::SweepSpec spec;
  spec.named("F2e-mini")
      .base([](scenario::ExperimentConfig& config) {
        config.dfz.internet.tier1_count = 3;
        config.dfz.internet.transit_count = 4;
        config.dfz.internet.stub_count = 24;
        config.dfz.internet.providers_per_stub = 2;
        config.dfz.internet.seed = 7;
        config.spec.seed = config.dfz.internet.seed;
        config.dfz.policy.event.victim_stub = 0;
      })
      .base(scenario::dfz::sharded(shards, 1))
      .base(scenario::dfz::roles_enabled())
      .axis(scenario::dfz::policy_events(
          {PolicyEvent::Kind::kHijackMoreSpecific, PolicyEvent::Kind::kRouteLeak,
           PolicyEvent::Kind::kSelectiveDeagg}))
      .axis(scenario::dfz::filtered_transits({0.0, 1.0}));
  scenario::Runner runner(std::move(spec));
  runner.execute(scenario::dfz::run_policy_event);
  return runner.run();
}

TEST(PolicyParity, EventRecordsIdenticalAcrossShardCounts) {
  const auto one = run_events_mini(1);
  const auto two = run_events_mini(2);
  const auto eight = run_events_mini(8);
  ASSERT_FALSE(one.records().empty());
  const std::string want = json_bytes(one);
  EXPECT_EQ(want, json_bytes(two));
  EXPECT_EQ(want, json_bytes(eight));
}

}  // namespace
}  // namespace lispcp::routing
