// Tests for the export update-group + interned-attribute pipeline: grouped
// fan-out must reproduce the golden fingerprints captured from the
// per-neighbor export leg it replaced (since deleted; see git history) for
// every shard count, with and without policy attached; AttrTable must
// dedupe and evict; and a post-convergence policy edit (the sanctioned
// kRefresh path) must rebuild the groups and land on the pinned tables, as
// must the route-leak study.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "routing/as_graph.hpp"
#include "routing/attr_table.hpp"
#include "routing/bgp.hpp"
#include "routing/dfz_study.hpp"

namespace lispcp::routing {
namespace {

/// Serialises everything observable about a converged fabric — stats,
/// Loc-RIBs with provenance and full paths, communities, and the
/// convergence instant.  Equal fingerprints mean equal results down to the
/// last counter, which is the contract the goldens pin.
std::string fingerprint(const BgpFabric& fabric) {
  std::ostringstream os;
  os << "t=" << fabric.now().ns() << "\n";
  for (AsNumber asn : fabric.graph().ases()) {
    const BgpSpeaker& speaker = fabric.speaker(asn);
    const BgpSpeakerStats& stats = speaker.stats();
    os << asn.to_string() << " " << stats.updates_sent << "/"
       << stats.updates_received << "/" << stats.routes_announced << "/"
       << stats.routes_withdrawn << "/" << stats.loops_rejected << "/"
       << stats.best_changes << "/" << stats.exports_filtered << "\n";
    for (const net::Ipv4Prefix& prefix : speaker.rib_prefixes()) {
      const auto* best = speaker.best(prefix);
      os << "  " << prefix.to_string() << " <- "
         << best->learned_from.to_string() << " k"
         << static_cast<int>(best->neighbor_kind) << " lp"
         << best->local_pref << " p";
      for (AsNumber hop : best->as_path()) os << " " << hop.value();
      os << " c";
      for (policy::Community c : best->communities()) os << " " << c;
      os << "\n";
    }
  }
  return os.str();
}

/// FNV-1a-64 of a fingerprint: the committed form of a golden (a converged
/// fingerprint runs to hundreds of lines).
std::uint64_t fnv1a64(const std::string& bytes) {
  std::uint64_t hash = 0xcbf29ce484222325u;
  for (const unsigned char byte : bytes) {
    hash ^= byte;
    hash *= 0x100000001b3u;
  }
  return hash;
}

// Goldens captured from the per-neighbor export leg — the pre-update-group
// path, which ran the export computation once per session — at K=1.
constexpr std::uint64_t kPolicyOffGolden = 0x09b294de2d8c7d66u;
constexpr std::uint64_t kRolesGolden = 0xa025921c21b251f1u;
constexpr std::uint64_t kRouteMapsGolden = 0x0935ede3a0f70eefu;
constexpr std::uint64_t kRefreshGolden = 0xfaae57dc0d3c1c9cu;

AsGraph test_internet(std::uint64_t seed) {
  SyntheticInternetConfig internet;
  internet.tier1_count = 3;
  internet.transit_count = 6;
  internet.stub_count = 30;
  internet.seed = seed;
  return build_synthetic_internet(internet);
}

/// Originates one prefix per AS (the property-sweep world) and converges.
std::string converge_and_fingerprint(
    const AsGraph& graph, std::size_t shards,
    std::shared_ptr<const policy::PolicyTable> policy = nullptr) {
  BgpConfig config;
  config.shards = shards;
  config.shard_workers = 1;
  config.policy = std::move(policy);
  BgpFabric fabric(graph, config);
  const auto stubs = graph.ases_of_tier(AsTier::kStub);
  for (AsNumber asn : graph.ases()) {
    if (graph.tier(asn) == AsTier::kStub) {
      const auto it = std::find(stubs.begin(), stubs.end(), asn);
      fabric.apply({RouteDelta::announce(
          asn, stub_site_prefixes(
                   static_cast<std::size_t>(it - stubs.begin()), 1)[0])});
    } else {
      fabric.apply({RouteDelta::announce(asn, provider_aggregate(asn))});
    }
  }
  fabric.run_to_convergence();
  return fingerprint(fabric);
}

TEST(UpdateGroups, GroupedMatchesPerNeighborPolicyOff) {
  const AsGraph graph = test_internet(5);
  for (const std::size_t shards : {1u, 2u, 8u}) {
    EXPECT_EQ(fnv1a64(converge_and_fingerprint(graph, shards)),
              kPolicyOffGolden)
        << "grouped export diverged from per-neighbor at K=" << shards;
  }
}

TEST(UpdateGroups, GroupedMatchesPerNeighborWithRoles) {
  const AsGraph graph = test_internet(9);
  const auto policy = policy::PolicyTable::gao_rexford(graph);
  for (const std::size_t shards : {1u, 2u, 8u}) {
    EXPECT_EQ(fnv1a64(converge_and_fingerprint(graph, shards, policy)),
              kRolesGolden)
        << "grouped export diverged under role policy at K=" << shards;
  }
}

TEST(UpdateGroups, GroupedMatchesPerNeighborWithRouteMaps) {
  const AsGraph graph = test_internet(13);
  // Roles plus real export maps: a TE prepend toward half of each stub's
  // providers and a community tag on the rest, so sessions of the same
  // NeighborKind land in *different* update-groups and the map-evaluation
  // leg (prepend + community edits) runs.
  const auto policy = policy::PolicyTable::gao_rexford(graph);
  policy::RouteMap& prepend_map = policy->add_map("te:prepend");
  prepend_map.add(policy::RouteMap::Action::kPermit).prepend(2);
  policy::RouteMap& tag_map = policy->add_map("te:tag");
  tag_map.add(policy::RouteMap::Action::kPermit).add_community(0x00FF0001u);
  for (const AsNumber stub : graph.ases_of_tier(AsTier::kStub)) {
    bool flip = false;
    for (const AsGraph::Neighbor& neighbor : graph.neighbors(stub)) {
      if (neighbor.kind != NeighborKind::kProvider) continue;
      policy->session(stub, neighbor.asn).export_map =
          flip ? &prepend_map : &tag_map;
      flip = !flip;
    }
  }
  for (const std::size_t shards : {1u, 2u, 8u}) {
    EXPECT_EQ(fnv1a64(converge_and_fingerprint(graph, shards, policy)),
              kRouteMapsGolden)
        << "grouped export diverged under export maps at K=" << shards;
  }
}

// ---------------------------------------------------------------------------
// Churn: incremental vs full-replay, pinned to the per-neighbor golden.

TEST(UpdateGroups, ChurnPlanMatchesGoldenInBothReplayModes) {
  DfzStudyConfig config;
  config.internet.tier1_count = 3;
  config.internet.transit_count = 5;
  config.internet.stub_count = 20;
  config.internet.seed = 11;
  config.scenario = AddressingScenario::kLegacyBgp;
  config.deaggregation_factor = 2;
  const ChurnPlan plan =
      make_flap_plan(5, config.internet.stub_count, 42,
                     sim::SimDuration::seconds(90),
                     sim::SimDuration::seconds(20));

  // The plan totals the per-neighbor export leg measured.
  const auto expect_golden = [](const ChurnPlanResult& result) {
    EXPECT_EQ(result.flaps, 5u);
    EXPECT_EQ(result.update_messages, 1023u);
    EXPECT_EQ(result.route_records, 2046u);
    EXPECT_EQ(result.engine_events, 2048u);
    EXPECT_DOUBLE_EQ(result.max_settle_ms, 1234.887178);
    EXPECT_DOUBLE_EQ(result.span_ms, 306473.593782);
  };
  const ChurnPlanResult reference = run_churn_plan(config, plan);
  expect_golden(reference);

  for (const std::size_t shards : {std::size_t{1}, std::size_t{2}}) {
    DfzStudyConfig sharded = config;
    sharded.bgp.shards = shards;
    EXPECT_EQ(run_churn_plan(sharded, plan), reference)
        << "incremental churn diverged at K=" << shards;
    ChurnPlan replay = plan;
    replay.full_replay = true;
    EXPECT_EQ(run_churn_plan(sharded, replay), reference)
        << "full-replay churn diverged at K=" << shards;
  }
}

// ---------------------------------------------------------------------------
// AttrTable: hash-consing, refcounts, eviction.

TEST(AttrTable, InternDedupesAndEvictsOnLastRelease) {
  AttrTable table;
  const std::vector<AsNumber> path{AsNumber{1}, AsNumber{2}};
  const std::vector<policy::Community> none;

  AttrRef a = table.intern(path, none, 0);
  EXPECT_EQ(table.size(), 1u);
  EXPECT_EQ(table.misses(), 1u);
  EXPECT_EQ(a.use_count(), 1u);

  AttrRef b = table.intern(path, none, 0);
  EXPECT_TRUE(a == b) << "equal content must resolve to the same node";
  EXPECT_EQ(table.hits(), 1u);
  EXPECT_EQ(table.size(), 1u);
  EXPECT_EQ(a.use_count(), 2u);

  // local_pref is part of the identity: a role import that pins a pref
  // must not collide with the raw path.
  AttrRef c = table.intern(path, none, 200);
  EXPECT_FALSE(a == c);
  EXPECT_EQ(table.size(), 2u);

  b.reset();
  EXPECT_EQ(a.use_count(), 1u);
  EXPECT_EQ(table.size(), 2u) << "a still holds its node live";
  c.reset();
  EXPECT_EQ(table.size(), 1u) << "last release must evict";
  a.reset();
  EXPECT_EQ(table.size(), 0u);
}

TEST(AttrTable, FabricChurnDoesNotAccreteDeadAttributeSets) {
  // A full announce/withdraw cycle must return the fabric's table to its
  // resting state (just the shared origin attributes): no RIB, ledger, or
  // recycled message shell may pin a dead path.
  const AsGraph graph = test_internet(7);
  BgpConfig config;
  BgpFabric fabric(graph, config);
  const std::size_t resting = fabric.attrs().size();
  ASSERT_GE(resting, 1u);  // the origin attribute set

  const net::Ipv4Prefix prefix = stub_site_prefixes(0, 1)[0];
  const AsNumber owner = graph.ases_of_tier(AsTier::kStub).front();
  fabric.apply({RouteDelta::announce(owner, prefix)});
  fabric.run_to_convergence();
  const std::size_t converged = fabric.attrs().size();
  EXPECT_GT(converged, resting) << "propagation must intern distinct paths";

  fabric.apply({RouteDelta::withdraw(owner, prefix)});
  fabric.run_to_convergence();
  EXPECT_EQ(fabric.attrs().size(), resting)
      << "withdrawal must release every interned path";

  // And a second identical cycle reproduces the same table population.
  fabric.apply({RouteDelta::announce(owner, prefix)});
  fabric.run_to_convergence();
  EXPECT_EQ(fabric.attrs().size(), converged);
}

TEST(AttrTable, PolicyOffImportSharesTheAdvertAttributes) {
  // On the policy-off hot path an accepted advert is stored by reference:
  // Adj-RIB-In and Loc-RIB add refs, not nodes.
  AsGraph graph;
  graph.add_as(AsNumber{1}, AsTier::kTransit);
  graph.add_as(AsNumber{2}, AsTier::kStub);
  graph.add_customer_provider(AsNumber{2}, AsNumber{1});
  BgpFabric fabric(graph);
  const net::Ipv4Prefix prefix = net::Ipv4Prefix::from_string("100.0.0.0/20");

  const std::size_t resting = fabric.attrs().size();
  UpdateMessage msg;
  msg.announces.push_back(fabric.make_advert(prefix, {AsNumber{2}}));
  const AttrRef held = msg.announces[0].attrs;
  EXPECT_EQ(held.use_count(), 2u);  // msg + held

  fabric.speaker(AsNumber{1}).handle_update(AsNumber{2}, msg);
  EXPECT_EQ(fabric.attrs().size(), resting + 1)
      << "import must not intern a copy";
  EXPECT_EQ(held.use_count(), 4u) << "msg + held + Adj-RIB-In + Loc-RIB";

  UpdateMessage withdraw;
  withdraw.withdraws.push_back(prefix);
  fabric.speaker(AsNumber{1}).handle_update(AsNumber{2}, withdraw);
  EXPECT_EQ(held.use_count(), 2u);
}

// ---------------------------------------------------------------------------
// Group rebuild on the sanctioned policy-edit path (kRefresh).

TEST(UpdateGroups, RefreshRebuildsExportGroups) {
  // Multihomed stub: both provider sessions share one group until an
  // export map lands on one of them; the kRefresh delta is the sanctioned
  // edit point that must rebuild the partition.
  AsGraph graph;
  graph.add_as(AsNumber{1}, AsTier::kTransit);
  graph.add_as(AsNumber{2}, AsTier::kTransit);
  graph.add_as(AsNumber{3}, AsTier::kStub);
  graph.add_customer_provider(AsNumber{3}, AsNumber{1});
  graph.add_customer_provider(AsNumber{3}, AsNumber{2});
  graph.add_peering(AsNumber{1}, AsNumber{2});

  // Converge, then attach an export map to ONE provider session and
  // refresh it — the sanctioned mid-life policy edit.  A refresh re-runs
  // the export leg (counters legitimately move), so the contract is the
  // per-neighbor golden over the whole sequence, plus the group partition
  // actually splitting.
  const net::Ipv4Prefix prefix = net::Ipv4Prefix::from_string("100.0.0.0/20");
  const auto policy = policy::PolicyTable::gao_rexford(graph);
  BgpConfig config;
  config.policy = policy;
  BgpFabric fabric(graph, config);
  EXPECT_EQ(fabric.speaker(AsNumber{3}).export_group_count(), 1u)
      << "identical provider sessions must share one update-group";
  fabric.apply({RouteDelta::announce(AsNumber{3}, prefix)});
  fabric.run_to_convergence();

  policy::RouteMap& prepend = policy->add_map("te:prepend");
  prepend.add(policy::RouteMap::Action::kPermit).prepend(1);
  policy->session(AsNumber{3}, AsNumber{1}).export_map = &prepend;
  fabric.apply({RouteDelta::refresh(AsNumber{3}, AsNumber{1})});
  fabric.run_to_convergence();
  EXPECT_EQ(fabric.speaker(AsNumber{3}).export_group_count(), 2u)
      << "kRefresh must rebuild the update-group partition";
  const std::string grouped = fingerprint(fabric);
  EXPECT_EQ(fnv1a64(grouped), kRefreshGolden)
      << "grouped export diverged across a mid-life policy edit";
  EXPECT_NE(grouped.find("p 3 3"), std::string::npos)
      << "the prepended path must actually install at AS1";
}

TEST(UpdateGroups, RouteLeakStudyMatchesPerNeighborGolden) {
  // The classic type-1 leak drops a session's valley-free gate and
  // refreshes it mid-study — the group key changes after convergence.  The
  // whole incident must measure what the per-neighbor leg measured.
  DfzStudyConfig config;
  config.internet.tier1_count = 3;
  config.internet.transit_count = 5;
  config.internet.stub_count = 16;
  config.internet.seed = 21;
  config.scenario = AddressingScenario::kLegacyBgp;
  config.policy.roles = true;
  config.policy.event.kind = PolicyEvent::Kind::kRouteLeak;

  ChurnPlan plan;
  plan.events.push_back(ChurnEvent::policy_incident());
  const PolicyEventResult leak = *run_churn_plan(config, plan).incident;
  EXPECT_EQ(leak.dfz_table_before, 24u);
  EXPECT_EQ(leak.dfz_table_after, 24u);
  EXPECT_EQ(leak.update_messages, 36u);
  EXPECT_EQ(leak.route_records, 101u);
  EXPECT_DOUBLE_EQ(leak.settle_ms, 547.338488);
  EXPECT_EQ(leak.ases_touched, 10u);
  EXPECT_EQ(leak.event_announcements, 24u);
  EXPECT_EQ(leak.rib_delta, 0u);
  EXPECT_EQ(leak.ases_preferring_actor, 10u);
}

}  // namespace
}  // namespace lispcp::routing
