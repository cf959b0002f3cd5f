// Tests for routing/bgp: decision process, Gao-Rexford export policy, loop
// rejection, withdrawal convergence, MRAI batching, and the valley-free /
// loop-free invariants on converged synthetic Internets (TEST_P sweep).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <sstream>
#include <string>

#include "routing/as_graph.hpp"
#include "routing/bgp.hpp"
#include "routing/dfz_study.hpp"
#include "routing/shard_engine.hpp"

namespace lispcp::routing {
namespace {

const net::Ipv4Prefix kPrefix = net::Ipv4Prefix::from_string("100.0.0.0/20");

/// Two-node customer-provider line.
struct Line {
  Line() {
    graph.add_as(AsNumber{1}, AsTier::kTransit);
    graph.add_as(AsNumber{2}, AsTier::kStub);
    graph.add_customer_provider(AsNumber{2}, AsNumber{1});
    fabric = std::make_unique<BgpFabric>(graph);
  }
  AsGraph graph;
  std::unique_ptr<BgpFabric> fabric;
};

TEST(Bgp, OriginationInstallsLocally) {
  Line line;
  line.fabric->apply({RouteDelta::announce(AsNumber{2}, kPrefix)});
  const auto* best = line.fabric->speaker(AsNumber{2}).best(kPrefix);
  ASSERT_NE(best, nullptr);
  EXPECT_TRUE(best->local_origin);
  EXPECT_TRUE(best->as_path().empty());
}

TEST(Bgp, ProviderLearnsCustomerRoute) {
  Line line;
  line.fabric->apply({RouteDelta::announce(AsNumber{2}, kPrefix)});
  line.fabric->run_to_convergence();
  const auto* best = line.fabric->speaker(AsNumber{1}).best(kPrefix);
  ASSERT_NE(best, nullptr);
  EXPECT_FALSE(best->local_origin);
  EXPECT_EQ(best->learned_from, AsNumber{2});
  EXPECT_EQ(best->neighbor_kind, NeighborKind::kCustomer);
  ASSERT_EQ(best->as_path().size(), 1u);
  EXPECT_EQ(best->as_path()[0], AsNumber{2});
}

TEST(Bgp, WithdrawRemovesEverywhere) {
  Line line;
  line.fabric->apply({RouteDelta::announce(AsNumber{2}, kPrefix)});
  line.fabric->run_to_convergence();
  ASSERT_NE(line.fabric->speaker(AsNumber{1}).best(kPrefix), nullptr);

  line.fabric->apply({RouteDelta::withdraw(AsNumber{2}, kPrefix)});
  line.fabric->run_to_convergence();
  EXPECT_EQ(line.fabric->speaker(AsNumber{1}).best(kPrefix), nullptr);
  EXPECT_EQ(line.fabric->speaker(AsNumber{2}).best(kPrefix), nullptr);
  EXPECT_GE(line.fabric->total_routes_withdrawn(), 1u);
}

TEST(Bgp, EventBudgetCountsEachConvergenceAlone) {
  // On one and on three shards (the single-queue and the epoch paths).
  for (const std::size_t shards : {std::size_t{1}, std::size_t{3}}) {
    SCOPED_TRACE(std::to_string(shards) + " shards");
    // A tier-1 over a transit with ten stub customers, 3 to 12.
    AsGraph graph;
    graph.add_as(AsNumber{1}, AsTier::kTier1);
    graph.add_as(AsNumber{2}, AsTier::kTransit);
    graph.add_customer_provider(AsNumber{2}, AsNumber{1});
    for (std::uint32_t stub = 3; stub <= 12; ++stub) {
      graph.add_as(AsNumber{stub}, AsTier::kStub);
      graph.add_customer_provider(AsNumber{stub}, AsNumber{2});
    }
    BgpConfig config;
    config.shards = shards;
    config.shard_workers = 1;
    BgpFabric fabric(graph, config);

    // The largest single convergence of one flap sizes a budget every
    // convergence fits in (the budget throws once reached, hence + 1).
    std::uint64_t per_run = 0;
    for (const auto& delta : {RouteDelta::announce(AsNumber{3}, kPrefix),
                              RouteDelta::withdraw(AsNumber{3}, kPrefix)}) {
      fabric.apply({delta});
      fabric.run_to_convergence();
      per_run = std::max(per_run, fabric.last_run_events());
    }
    ASSERT_GT(per_run, 1u);
    const std::uint64_t budget = per_run + 1;

    // A soak of small convergences fires many budgets' worth in total.
    for (int flap = 0; flap < 40; ++flap) {
      fabric.apply({RouteDelta::announce(AsNumber{3}, kPrefix)});
      EXPECT_NO_THROW(fabric.run_to_convergence(budget));
      fabric.apply({RouteDelta::withdraw(AsNumber{3}, kPrefix)});
      EXPECT_NO_THROW(fabric.run_to_convergence(budget));
    }
    EXPECT_GT(fabric.engine().events_processed(), 20 * budget);

    // One convergence past the same budget is still a runaway: every stub
    // originating a prefix of its own at once.
    std::vector<RouteDelta> storm;
    for (std::uint32_t stub = 4; stub <= 12; ++stub) {
      storm.push_back(RouteDelta::announce(
          AsNumber{stub},
          net::Ipv4Prefix(
              net::Ipv4Address(100, static_cast<std::uint8_t>(stub), 0, 0),
              16)));
    }
    fabric.apply(storm);
    EXPECT_THROW(fabric.run_to_convergence(budget), std::runtime_error);
  }
}

TEST(Bgp, WithdrawOfUnknownOriginIsNoOp) {
  Line line;
  line.fabric->apply({RouteDelta::withdraw(AsNumber{2}, kPrefix)});
  line.fabric->run_to_convergence();
  EXPECT_EQ(line.fabric->total_updates_sent(), 0u);
}

TEST(Bgp, CustomerRoutePreferredOverProvider) {
  // AS 3 hears kPrefix from its customer 4 (longer path) and its provider 1
  // (shorter path); the customer route must win.
  //
  //        1 (tier1) --- 2 (origin, customer of 1)
  //        |
  //        3 (transit, customer of 1)
  //        |
  //        4 (stub, customer of 3, also customer of 1's sibling... )
  //
  // Build: origin 2 is customer of 1 AND customer of 4, so 3 hears
  // [1, 2] from provider 1 and [4, 2] from customer 4.
  AsGraph graph;
  graph.add_as(AsNumber{1}, AsTier::kTier1);
  graph.add_as(AsNumber{2}, AsTier::kStub);
  graph.add_as(AsNumber{3}, AsTier::kTransit);
  graph.add_as(AsNumber{4}, AsTier::kTransit);
  graph.add_customer_provider(AsNumber{2}, AsNumber{1});
  graph.add_customer_provider(AsNumber{2}, AsNumber{4});
  graph.add_customer_provider(AsNumber{3}, AsNumber{1});
  graph.add_customer_provider(AsNumber{4}, AsNumber{3});
  BgpFabric fabric(graph);
  fabric.apply({RouteDelta::announce(AsNumber{2}, kPrefix)});
  fabric.run_to_convergence();

  const auto* best = fabric.speaker(AsNumber{3}).best(kPrefix);
  ASSERT_NE(best, nullptr);
  EXPECT_EQ(best->neighbor_kind, NeighborKind::kCustomer);
  EXPECT_EQ(best->learned_from, AsNumber{4});
  EXPECT_EQ(best->as_path().size(), 2u) << "customer path [4, 2] wins over "
                                         "provider path [1, 2] despite equal "
                                         "length by relationship preference";
}

TEST(Bgp, ShorterPathWinsWithinSameRelationship) {
  // AS 1 hears kPrefix from two customers: 2 directly, and via 3->2.
  AsGraph graph;
  graph.add_as(AsNumber{1}, AsTier::kTier1);
  graph.add_as(AsNumber{2}, AsTier::kStub);
  graph.add_as(AsNumber{3}, AsTier::kTransit);
  graph.add_customer_provider(AsNumber{2}, AsNumber{1});
  graph.add_customer_provider(AsNumber{2}, AsNumber{3});
  graph.add_customer_provider(AsNumber{3}, AsNumber{1});
  BgpFabric fabric(graph);
  fabric.apply({RouteDelta::announce(AsNumber{2}, kPrefix)});
  fabric.run_to_convergence();

  const auto* best = fabric.speaker(AsNumber{1}).best(kPrefix);
  ASSERT_NE(best, nullptr);
  EXPECT_EQ(best->learned_from, AsNumber{2});
  EXPECT_EQ(best->as_path().size(), 1u);
}

TEST(Bgp, LowestNeighborAsnBreaksTies) {
  // Two equal-length customer paths to AS 9: via 2 and via 3.
  AsGraph graph;
  graph.add_as(AsNumber{9}, AsTier::kTier1);
  graph.add_as(AsNumber{2}, AsTier::kTransit);
  graph.add_as(AsNumber{3}, AsTier::kTransit);
  graph.add_as(AsNumber{5}, AsTier::kStub);
  graph.add_customer_provider(AsNumber{2}, AsNumber{9});
  graph.add_customer_provider(AsNumber{3}, AsNumber{9});
  graph.add_customer_provider(AsNumber{5}, AsNumber{2});
  graph.add_customer_provider(AsNumber{5}, AsNumber{3});
  BgpFabric fabric(graph);
  fabric.apply({RouteDelta::announce(AsNumber{5}, kPrefix)});
  fabric.run_to_convergence();

  const auto* best = fabric.speaker(AsNumber{9}).best(kPrefix);
  ASSERT_NE(best, nullptr);
  EXPECT_EQ(best->as_path().size(), 2u);
  EXPECT_EQ(best->learned_from, AsNumber{2}) << "deterministic lowest-ASN tie-break";
}

TEST(Bgp, ValleyFreeExport_PeerRouteNotGivenToPeer) {
  // M peers with both P and Q; P originates.  Q must not learn the prefix
  // through M (peer->peer is a valley).
  AsGraph graph;
  graph.add_as(AsNumber{1}, AsTier::kTier1);  // M
  graph.add_as(AsNumber{2}, AsTier::kTier1);  // P (origin)
  graph.add_as(AsNumber{3}, AsTier::kTier1);  // Q
  graph.add_peering(AsNumber{1}, AsNumber{2});
  graph.add_peering(AsNumber{1}, AsNumber{3});
  BgpFabric fabric(graph);
  fabric.apply({RouteDelta::announce(AsNumber{2}, kPrefix)});
  fabric.run_to_convergence();

  EXPECT_NE(fabric.speaker(AsNumber{1}).best(kPrefix), nullptr);
  EXPECT_EQ(fabric.speaker(AsNumber{3}).best(kPrefix), nullptr)
      << "peer-learned route leaked to another peer";
}

TEST(Bgp, ValleyFreeExport_ProviderRouteGoesOnlyToCustomers) {
  // Provider 1 originates; transit 2 (customer of 1) must pass it down to
  // its own customer 3 but not up/sideways.  Peer 4 of AS 2 must not hear it.
  AsGraph graph;
  graph.add_as(AsNumber{1}, AsTier::kTier1);
  graph.add_as(AsNumber{2}, AsTier::kTransit);
  graph.add_as(AsNumber{3}, AsTier::kStub);
  graph.add_as(AsNumber{4}, AsTier::kTransit);
  graph.add_customer_provider(AsNumber{2}, AsNumber{1});
  graph.add_customer_provider(AsNumber{3}, AsNumber{2});
  graph.add_peering(AsNumber{2}, AsNumber{4});
  BgpFabric fabric(graph);
  fabric.apply({RouteDelta::announce(AsNumber{1}, kPrefix)});
  fabric.run_to_convergence();

  EXPECT_NE(fabric.speaker(AsNumber{3}).best(kPrefix), nullptr)
      << "provider routes must reach customers";
  EXPECT_EQ(fabric.speaker(AsNumber{4}).best(kPrefix), nullptr)
      << "provider-learned route leaked to a peer";
}

TEST(Bgp, LoopedAdvertIsRejectedAndReplacesOldRoute) {
  Line line;
  BgpSpeaker& provider = line.fabric->speaker(AsNumber{1});
  // A valid route first.
  UpdateMessage good;
  good.announces.push_back(line.fabric->make_advert(kPrefix, {AsNumber{2}}));
  provider.handle_update(AsNumber{2}, good);
  ASSERT_NE(provider.best(kPrefix), nullptr);

  // Then the same neighbor advertises a path containing AS 1 itself.
  UpdateMessage looped;
  looped.announces.push_back(line.fabric->make_advert(
      kPrefix, {AsNumber{2}, AsNumber{1}, AsNumber{7}}));
  provider.handle_update(AsNumber{2}, looped);
  EXPECT_EQ(provider.stats().loops_rejected, 1u);
  EXPECT_EQ(provider.best(kPrefix), nullptr)
      << "update semantics: the looped advert implicitly withdraws the "
         "neighbor's previous usable path";
}

TEST(Bgp, ImplicitReplaceOnNewAdvert) {
  Line line;
  BgpSpeaker& provider = line.fabric->speaker(AsNumber{1});
  UpdateMessage first;
  first.announces.push_back(line.fabric->make_advert(
      kPrefix, {AsNumber{2}, AsNumber{8}, AsNumber{9}}));
  provider.handle_update(AsNumber{2}, first);
  ASSERT_EQ(provider.best(kPrefix)->as_path().size(), 3u);

  UpdateMessage second;
  second.announces.push_back(line.fabric->make_advert(kPrefix, {AsNumber{2}}));
  provider.handle_update(AsNumber{2}, second);
  EXPECT_EQ(provider.best(kPrefix)->as_path().size(), 1u);
}

TEST(Bgp, MraiBatchesMultiplePrefixesIntoOneUpdate) {
  Line line;
  const BgpSpeaker& stub = line.fabric->speaker(AsNumber{2});
  line.fabric->apply({
      RouteDelta::announce(AsNumber{2},
                           net::Ipv4Prefix::from_string("100.0.0.0/22")),
      RouteDelta::announce(AsNumber{2},
                           net::Ipv4Prefix::from_string("100.0.4.0/22")),
      RouteDelta::announce(AsNumber{2},
                           net::Ipv4Prefix::from_string("100.0.8.0/22")),
  });
  line.fabric->run_to_convergence();
  // One session, one MRAI window: exactly one flush carrying 3 records.
  EXPECT_EQ(stub.stats().updates_sent, 1u);
  EXPECT_EQ(stub.stats().routes_announced, 3u);
  EXPECT_EQ(line.fabric->speaker(AsNumber{1}).rib_size(), 3u);
}

TEST(Bgp, AnnounceThenWithdrawWithinMraiSendsNothing) {
  Line line;
  const BgpSpeaker& stub = line.fabric->speaker(AsNumber{2});
  // One batch, withdraw cancelling the announce before the MRAI flush.
  line.fabric->apply({RouteDelta::announce(AsNumber{2}, kPrefix),
                      RouteDelta::withdraw(AsNumber{2}, kPrefix)});
  line.fabric->run_to_convergence();
  EXPECT_EQ(stub.stats().updates_sent, 0u);
  EXPECT_EQ(line.fabric->speaker(AsNumber{1}).rib_size(), 0u);
}

TEST(Bgp, StatsCountMessages) {
  Line line;
  line.fabric->apply({RouteDelta::announce(AsNumber{2}, kPrefix)});
  line.fabric->run_to_convergence();
  EXPECT_EQ(line.fabric->speaker(AsNumber{2}).stats().updates_sent, 1u);
  EXPECT_EQ(line.fabric->speaker(AsNumber{1}).stats().updates_received, 1u);
  EXPECT_EQ(line.fabric->total_routes_announced(), 1u);
}

TEST(Bgp, UnknownSpeakerThrows) {
  Line line;
  EXPECT_THROW((void)line.fabric->speaker(AsNumber{42}), std::out_of_range);
  EXPECT_THROW((void)line.fabric->kind_of(AsNumber{1}, AsNumber{42}),
               std::out_of_range);
}

/// Every speaker's counters and Loc-RIB, plus the engine's event count: the
/// state a rejected batch must leave untouched.
std::string fabric_state(const BgpFabric& fabric) {
  std::ostringstream out;
  for (AsNumber asn : fabric.graph().ases()) {
    const BgpSpeaker& speaker = fabric.speaker(asn);
    const BgpSpeakerStats& s = speaker.stats();
    out << asn.to_string() << ' ' << s.updates_sent << ' '
        << s.updates_received << ' ' << s.routes_announced << ' '
        << s.routes_withdrawn << ' ' << s.loops_rejected << ' '
        << s.best_changes << ' ' << s.imports_filtered << ' '
        << s.exports_filtered << '\n';
    for (const net::Ipv4Prefix& prefix : speaker.rib_prefixes()) {
      const auto* best = speaker.best(prefix);
      out << ' ' << prefix << " via " << best->learned_from.to_string();
      for (AsNumber hop : best->as_path()) out << ' ' << hop.to_string();
      out << '\n';
    }
  }
  out << fabric.engine().events_processed() << " events\n";
  return out.str();
}

TEST(Bgp, ApplyRejectsABatchWithAnUnknownOwnerWhole) {
  Line line;
  line.fabric->apply({RouteDelta::announce(
      AsNumber{2}, net::Ipv4Prefix::from_string("100.0.16.0/20"))});
  line.fabric->run_to_convergence();
  const std::string before = fabric_state(*line.fabric);
  // The good first delta must not run ahead of the bad second one.
  EXPECT_THROW(line.fabric->apply({RouteDelta::announce(AsNumber{2}, kPrefix),
                                   RouteDelta::announce(AsNumber{99}, kPrefix)}),
               std::out_of_range);
  EXPECT_TRUE(line.fabric->converged());
  EXPECT_EQ(fabric_state(*line.fabric), before);
  line.fabric->run_to_convergence();
  EXPECT_EQ(line.fabric->speaker(AsNumber{1}).best(kPrefix), nullptr);
  EXPECT_EQ(fabric_state(*line.fabric), before);
}

TEST(Bgp, ApplyRejectsARefreshTowardANonSession) {
  Line line;
  line.fabric->apply({RouteDelta::announce(AsNumber{2}, kPrefix)});
  line.fabric->run_to_convergence();
  const std::string before = fabric_state(*line.fabric);
  // AS77 is no neighbor of AS2 (nor an AS at all).
  EXPECT_THROW(line.fabric->apply({RouteDelta::refresh(AsNumber{2}, AsNumber{77})}),
               std::out_of_range);
  EXPECT_TRUE(line.fabric->converged());
  EXPECT_EQ(fabric_state(*line.fabric), before);
}

TEST(Bgp, ConvergedMeansNoForegroundWork) {
  Line line;
  EXPECT_TRUE(line.fabric->converged());
  line.fabric->apply({RouteDelta::announce(AsNumber{2}, kPrefix)});
  EXPECT_FALSE(line.fabric->converged());
  line.fabric->run_to_convergence();
  EXPECT_TRUE(line.fabric->converged());
}

// ---------------------------------------------------------------------------
// Property sweep: on converged synthetic Internets, every installed path is
// loop-free and valley-free, and everyone can reach every provider aggregate.

class BgpConvergenceProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BgpConvergenceProperty, PathsAreLoopAndValleyFree) {
  SyntheticInternetConfig internet;
  internet.tier1_count = 3;
  internet.transit_count = 6;
  internet.stub_count = 25;
  internet.seed = GetParam();
  const AsGraph graph = build_synthetic_internet(internet);
  BgpFabric fabric(graph);

  // Every AS originates one prefix (its provider aggregate or site block).
  std::map<std::uint32_t, net::Ipv4Prefix> origin_of;
  const auto stubs = graph.ases_of_tier(AsTier::kStub);
  for (AsNumber asn : graph.ases()) {
    net::Ipv4Prefix prefix;
    if (graph.tier(asn) == AsTier::kStub) {
      const auto it = std::find(stubs.begin(), stubs.end(), asn);
      prefix = stub_site_prefixes(
          static_cast<std::size_t>(it - stubs.begin()), 1)[0];
    } else {
      prefix = provider_aggregate(asn);
    }
    origin_of[asn.value()] = prefix;
    fabric.apply({RouteDelta::announce(asn, prefix)});
  }
  fabric.run_to_convergence();

  // Reconstruct each installed AS-path and check the invariants.
  const auto kind_between = [&graph](AsNumber self, AsNumber neighbor) {
    for (const auto& n : graph.neighbors(self)) {
      if (n.asn == neighbor) return n.kind;
    }
    throw std::logic_error("installed path uses a non-adjacent hop");
  };
  for (AsNumber asn : graph.ases()) {
    const BgpSpeaker& speaker = fabric.speaker(asn);
    for (const net::Ipv4Prefix& prefix : speaker.rib_prefixes()) {
      const auto* best = speaker.best(prefix);
      ASSERT_NE(best, nullptr);
      if (best->local_origin) continue;

      // Loop freedom: self plus the advertised path has no repeats.
      std::vector<AsNumber> full{asn};
      full.insert(full.end(), best->as_path().begin(), best->as_path().end());
      std::set<std::uint32_t> seen;
      for (AsNumber hop : full) {
        EXPECT_TRUE(seen.insert(hop.value()).second)
            << "loop in installed path at " << hop.to_string();
      }

      // Valley freedom: once the path goes down (provider->customer) or
      // crosses a peering, it may never go up or peer again.  Walking from
      // self toward the origin, hop i uses the relationship of full[i+1] as
      // seen from full[i].
      bool descending = false;
      for (std::size_t i = 0; i + 1 < full.size(); ++i) {
        const NeighborKind kind = kind_between(full[i], full[i + 1]);
        // kProvider means full[i+1] is full[i]'s provider: an "up" step.
        if (kind == NeighborKind::kProvider) {
          EXPECT_FALSE(descending)
              << "valley: up-step after down/peer in path of "
              << asn.to_string();
        } else {
          descending = true;  // peer or customer step
        }
      }

      // The path must end at the true originator.
      EXPECT_EQ(origin_of.at(full.back().value()), prefix)
          << "path does not terminate at the origin AS";
    }
  }

  // Reachability: every AS holds a route to every tier-1 aggregate (they
  // are everyone's direct or indirect provider).
  for (AsNumber asn : graph.ases()) {
    for (AsNumber t1 : graph.ases_of_tier(AsTier::kTier1)) {
      EXPECT_NE(fabric.speaker(asn).best(origin_of.at(t1.value())), nullptr)
          << asn.to_string() << " cannot reach " << t1.to_string();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BgpConvergenceProperty,
                         ::testing::Values(1, 2, 3, 7, 11, 23, 42, 97));

// ---------------------------------------------------------------------------
// DFZ study harness.

TEST(DfzStudy, StubSitePrefixesPartitionTheBlock) {
  const auto whole = stub_site_prefixes(3, 1);
  ASSERT_EQ(whole.size(), 1u);
  EXPECT_EQ(whole[0].length(), 20);

  const auto pieces = stub_site_prefixes(3, 8);
  ASSERT_EQ(pieces.size(), 8u);
  std::uint64_t covered = 0;
  for (const auto& piece : pieces) {
    EXPECT_EQ(piece.length(), 23);
    EXPECT_TRUE(whole[0].contains(piece));
    covered += piece.size();
  }
  EXPECT_EQ(covered, whole[0].size());
  for (std::size_t i = 1; i < pieces.size(); ++i) {
    EXPECT_FALSE(pieces[i - 1].contains(pieces[i]));
    EXPECT_FALSE(pieces[i].contains(pieces[i - 1]));
  }
}

TEST(DfzStudy, StubBlocksAreDisjointAcrossSites) {
  const auto a = stub_site_prefixes(0, 1)[0];
  const auto b = stub_site_prefixes(1, 1)[0];
  EXPECT_FALSE(a.contains(b));
  EXPECT_FALSE(b.contains(a));
}

TEST(DfzStudy, InvalidDeaggregationFactorThrows) {
  EXPECT_THROW(stub_site_prefixes(0, 0), std::invalid_argument);
  EXPECT_THROW(stub_site_prefixes(0, 3), std::invalid_argument);
  EXPECT_THROW(stub_site_prefixes(0, 8192), std::invalid_argument);
}

TEST(DfzStudy, ProviderAggregatesAreDisjoint) {
  const auto a = provider_aggregate(AsNumber{1});
  const auto b = provider_aggregate(AsNumber{2});
  EXPECT_EQ(a.length(), 12);
  EXPECT_FALSE(a.contains(b));
}

DfzStudyConfig small_study(AddressingScenario scenario, std::size_t deagg) {
  DfzStudyConfig config;
  config.internet.tier1_count = 3;
  config.internet.transit_count = 5;
  config.internet.stub_count = 20;
  config.scenario = scenario;
  config.deaggregation_factor = deagg;
  return config;
}

TEST(DfzStudy, LegacyDfzHoldsEveryPrefix) {
  const auto result = run_dfz_study(small_study(AddressingScenario::kLegacyBgp, 1));
  // 8 provider aggregates + 20 stub blocks, all visible at the tier-1.
  EXPECT_EQ(result.bgp_origin_prefixes, 28u);
  EXPECT_EQ(result.dfz_table_size, 28u);
  EXPECT_EQ(result.mapping_system_entries, 0u);
  EXPECT_GT(result.update_messages, 0u);
  EXPECT_GT(result.convergence_ms, 0.0);
}

TEST(DfzStudy, LispDfzHoldsOnlyProviderAggregates) {
  const auto result =
      run_dfz_study(small_study(AddressingScenario::kLispRlocOnly, 1));
  EXPECT_EQ(result.bgp_origin_prefixes, 8u);
  EXPECT_EQ(result.dfz_table_size, 8u);
  EXPECT_EQ(result.mapping_system_entries, 20u);
}

TEST(DfzStudy, DeaggregationMultipliesLegacyTableNotLisp) {
  const auto legacy4 =
      run_dfz_study(small_study(AddressingScenario::kLegacyBgp, 4));
  EXPECT_EQ(legacy4.dfz_table_size, 8u + 20u * 4u);
  const auto lisp4 =
      run_dfz_study(small_study(AddressingScenario::kLispRlocOnly, 4));
  EXPECT_EQ(lisp4.dfz_table_size, 8u);
  EXPECT_EQ(lisp4.mapping_system_entries, 80u);
}

/// The first stub's re-homing swing: a one-event plan of one zero-hold
/// whole-site flap.
ChurnEventMeasure rehoming_churn(const DfzStudyConfig& config) {
  ChurnPlan plan;
  plan.events.push_back(ChurnEvent::flap(0));
  return run_churn_plan(config, plan).events.front();
}

TEST(DfzStudy, RehomingChurnIsZeroUnderLisp) {
  const auto churn =
      rehoming_churn(small_study(AddressingScenario::kLispRlocOnly, 1));
  EXPECT_EQ(churn.update_messages, 0u);
  EXPECT_EQ(churn.ases_touched, 0u);
}

TEST(DfzStudy, RehomingChurnIsGlobalUnderLegacyBgp) {
  const auto churn =
      rehoming_churn(small_study(AddressingScenario::kLegacyBgp, 1));
  EXPECT_GT(churn.update_messages, 0u);
  EXPECT_GT(churn.route_records, 0u);
  EXPECT_GT(churn.ases_touched, 5u)
      << "a stub flap should ripple well beyond its providers";
  EXPECT_GT(churn.settle_ms, 0.0);
}

TEST(DfzStudy, ChurnScalesWithDeaggregation) {
  const auto one =
      rehoming_churn(small_study(AddressingScenario::kLegacyBgp, 1));
  const auto four =
      rehoming_churn(small_study(AddressingScenario::kLegacyBgp, 4));
  EXPECT_GT(four.route_records, one.route_records)
      << "each more-specific multiplies the records in the flap";
}

// ---------------------------------------------------------------------------
// Sharded convergence engine: results are byte-identical for every shard
// count and worker count, and repeated runs reproduce themselves.

/// Serialises everything observable about a converged fabric: every
/// speaker's stats and Loc-RIB (prefix, provenance, full AS path) plus the
/// convergence instant.  Two equal fingerprints mean equal results down to
/// the last counter.
std::string fingerprint(const BgpFabric& fabric) {
  std::ostringstream os;
  os << "t=" << fabric.now().ns() << "\n";
  for (AsNumber asn : fabric.graph().ases()) {
    const BgpSpeaker& speaker = fabric.speaker(asn);
    const BgpSpeakerStats& stats = speaker.stats();
    os << asn.to_string() << " " << stats.updates_sent << "/"
       << stats.updates_received << "/" << stats.routes_announced << "/"
       << stats.routes_withdrawn << "/" << stats.loops_rejected << "/"
       << stats.best_changes << "\n";
    for (const net::Ipv4Prefix& prefix : speaker.rib_prefixes()) {
      const auto* best = speaker.best(prefix);
      os << "  " << prefix.to_string() << " <- "
         << best->learned_from.to_string() << " k"
         << static_cast<int>(best->neighbor_kind) << " p";
      for (AsNumber hop : best->as_path()) os << " " << hop.value();
      os << "\n";
    }
  }
  return os.str();
}

/// Builds the property-sweep world (every AS originates one prefix) on a
/// fabric with the given engine parameters and converges it.
std::string converge_and_fingerprint(const AsGraph& graph, std::size_t shards,
                                     std::size_t workers) {
  BgpConfig config;
  config.shards = shards;
  config.shard_workers = workers;
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

TEST(ShardedBgp, SameInstantEventsFireInTagOrder) {
  // Three events for one AS at one instant, scheduled against tag order:
  // the event key, not insertion order, decides which fires first.
  Line line;
  for (const std::size_t shards : {std::size_t{1}, std::size_t{2}}) {
    SCOPED_TRACE(std::to_string(shards) + " shards");
    ShardEngineConfig config;
    config.shards = shards;
    config.epoch = sim::SimDuration::millis(1);
    config.workers = 1;
    ConvergenceEngine engine(line.graph, config);
    std::vector<std::uint64_t> order;
    for (const std::uint64_t tag : {5, 3, 4}) {
      engine.schedule(AsNumber{1}, sim::SimDuration::millis(10), tag,
                      [&order, tag] { order.push_back(tag); });
    }
    engine.run();
    EXPECT_EQ(order, (std::vector<std::uint64_t>{3, 4, 5}));
  }
}

TEST(ShardedBgp, ResultsAreShardCountInvariant) {
  SyntheticInternetConfig internet;
  internet.tier1_count = 3;
  internet.transit_count = 6;
  internet.stub_count = 30;
  internet.seed = 5;
  const AsGraph graph = build_synthetic_internet(internet);
  const std::string reference = converge_and_fingerprint(graph, 1, 1);
  for (const std::size_t shards : {2u, 3u, 8u}) {
    EXPECT_EQ(converge_and_fingerprint(graph, shards, 1), reference)
        << "shard count " << shards << " changed the converged state";
  }
}

TEST(ShardedBgp, ResultsAreWorkerCountInvariant) {
  SyntheticInternetConfig internet;
  internet.tier1_count = 3;
  internet.transit_count = 5;
  internet.stub_count = 24;
  internet.seed = 9;
  const AsGraph graph = build_synthetic_internet(internet);
  // Force more workers than this host may have cores: determinism must not
  // depend on scheduling.
  const std::string reference = converge_and_fingerprint(graph, 4, 1);
  EXPECT_EQ(converge_and_fingerprint(graph, 4, 2), reference);
  EXPECT_EQ(converge_and_fingerprint(graph, 4, 4), reference);
}

TEST(ShardedBgp, SpeakersAreHomedDeterministically) {
  SyntheticInternetConfig internet;
  internet.stub_count = 16;
  const AsGraph graph = build_synthetic_internet(internet);
  BgpConfig config;
  config.shards = 4;
  BgpFabric a(graph, config);
  BgpFabric b(graph, config);
  for (AsNumber asn : graph.ases()) {
    EXPECT_EQ(a.engine().shard_of(asn), b.engine().shard_of(asn));
    EXPECT_LT(a.engine().shard_of(asn), 4u);
  }
}

TEST(ShardedBgp, ShardingRequiresPositiveSessionDelay) {
  AsGraph graph;
  graph.add_as(AsNumber{1}, AsTier::kTransit);
  graph.add_as(AsNumber{2}, AsTier::kStub);
  graph.add_customer_provider(AsNumber{2}, AsNumber{1});
  BgpConfig config;
  config.session_delay = sim::SimDuration{};
  config.session_jitter = sim::SimDuration{};
  config.shards = 2;
  EXPECT_THROW(BgpFabric(graph, config), std::invalid_argument);
}

TEST(ShardedBgp, RehomingChurnIsDeterministicAcrossShardsAndRuns) {
  DfzStudyConfig config = small_study(AddressingScenario::kLegacyBgp, 4);
  const auto reference = rehoming_churn(config);
  // Same seed, repeated run: identical result.
  EXPECT_EQ(rehoming_churn(config), reference);
  // Same seed, any shard count (and a multi-worker run): identical result.
  for (const std::size_t shards : {2u, 8u}) {
    config.bgp.shards = shards;
    config.bgp.shard_workers = shards == 8 ? 4 : 0;
    EXPECT_EQ(rehoming_churn(config), reference)
        << "churn diverged at " << shards << " shards";
  }
}

TEST(ShardedBgp, DfzStudyIsDeterministicAcrossShards) {
  DfzStudyConfig config = small_study(AddressingScenario::kLegacyBgp, 2);
  const auto reference = run_dfz_study(config);
  for (const std::size_t shards : {2u, 5u}) {
    config.bgp.shards = shards;
    EXPECT_EQ(run_dfz_study(config), reference)
        << "study diverged at " << shards << " shards";
  }
}

}  // namespace
}  // namespace lispcp::routing
