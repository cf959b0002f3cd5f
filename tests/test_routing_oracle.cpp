// An independent routing oracle for the BGP fabric (policy off).
//
// Under Gao-Rexford preferences (customer > peer > provider, then shortest
// path, then lowest neighbor ASN) and valley-free export, the converged
// state is unique, so it can be computed directly instead of by message
// passing.  For each origin the solver runs three passes: customer routes
// climb the provider hierarchy by BFS level, then every AS still without a
// route takes one peer hop from a peer holding a customer route, then
// provider routes flow down to customers in order of increasing length.
// Every speaker's best() must match the solver after the origination storm
// and again after withdrawing and re-announcing a few prefixes, at K=1 and
// K=8 shards.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <tuple>
#include <vector>

#include "routing/as_graph.hpp"
#include "routing/bgp.hpp"

namespace lispcp::routing {
namespace {

/// One AS's expected best route toward an origin.
struct Expected {
  bool reachable = false;
  NeighborKind kind = NeighborKind::kCustomer;  ///< of `from`; origin: n/a
  AsNumber from;                                ///< == the AS at the origin
  std::size_t length = 0;                       ///< as_path length
};

/// The three-pass Gao-Rexford solver for one origin.
std::map<AsNumber, Expected> solve(const AsGraph& graph, AsNumber origin) {
  std::map<AsNumber, Expected> routes;
  for (AsNumber asn : graph.ases()) routes[asn] = Expected{};
  routes[origin] = Expected{true, NeighborKind::kCustomer, origin, 0};

  // Offers collected for one round, applied together: the lowest-ASN
  // sender among the round's (equal-length) offers wins.
  std::map<AsNumber, AsNumber> offers;
  const auto offer = [&offers](AsNumber to, AsNumber from) {
    const auto [it, inserted] = offers.try_emplace(to, from);
    if (!inserted && from < it->second) it->second = from;
  };
  const auto settle = [&routes, &offers](NeighborKind kind,
                                         std::vector<AsNumber>* settled) {
    for (const auto& [to, from] : offers) {
      routes[to] = Expected{true, kind, from, routes[from].length + 1};
      if (settled != nullptr) settled->push_back(to);
    }
    offers.clear();
  };

  // Pass 1: customer routes go up, one BFS level per round.
  std::vector<AsNumber> customer_routed{origin};
  std::vector<AsNumber> level{origin};
  while (!level.empty()) {
    for (AsNumber u : level) {
      for (const AsGraph::Neighbor& n : graph.neighbors(u)) {
        if (n.kind == NeighborKind::kProvider && !routes[n.asn].reachable) {
          offer(n.asn, u);
        }
      }
    }
    level.clear();
    settle(NeighborKind::kCustomer, &level);
    customer_routed.insert(customer_routed.end(), level.begin(), level.end());
  }

  // Pass 2: one peer hop from any AS holding a customer (or own) route.
  // Equal local-pref means the shortest offer wins first, then the ASN.
  std::map<AsNumber, std::pair<std::size_t, AsNumber>> peer_best;
  for (AsNumber u : customer_routed) {
    for (const AsGraph::Neighbor& n : graph.neighbors(u)) {
      if (n.kind != NeighborKind::kPeer || routes[n.asn].reachable) continue;
      const std::pair<std::size_t, AsNumber> candidate{routes[u].length + 1, u};
      const auto [it, inserted] = peer_best.try_emplace(n.asn, candidate);
      if (!inserted && candidate < it->second) it->second = candidate;
    }
  }
  for (const auto& [to, best] : peer_best) {
    routes[to] = Expected{true, NeighborKind::kPeer, best.second, best.first};
  }

  // Pass 3: provider routes go down to customers by increasing length.
  std::map<std::size_t, std::vector<AsNumber>> by_length;
  for (const auto& [asn, route] : routes) {
    if (route.reachable) by_length[route.length].push_back(asn);
  }
  for (auto it = by_length.begin(); it != by_length.end(); ++it) {
    for (AsNumber y : it->second) {
      for (const AsGraph::Neighbor& n : graph.neighbors(y)) {
        if (n.kind == NeighborKind::kCustomer && !routes[n.asn].reachable) {
          offer(n.asn, y);
        }
      }
    }
    std::vector<AsNumber> settled;
    settle(NeighborKind::kProvider, &settled);
    if (!settled.empty()) {
      auto& next = by_length[it->first + 1];
      next.insert(next.end(), settled.begin(), settled.end());
    }
  }
  return routes;
}

/// The as_path the solver implies at `asn`: the chain of senders back to
/// the origin, most recent first.
std::vector<AsNumber> expected_path(const std::map<AsNumber, Expected>& routes,
                                    AsNumber asn) {
  std::vector<AsNumber> path;
  for (AsNumber at = asn; routes.at(at).from != at; at = routes.at(at).from) {
    path.push_back(routes.at(at).from);
  }
  return path;
}

/// One /24 per AS, so every AS is an origin.
net::Ipv4Prefix prefix_of(std::size_t index) {
  return net::Ipv4Prefix(
      net::Ipv4Address(10, static_cast<std::uint8_t>(index / 256),
                       static_cast<std::uint8_t>(index % 256), 0),
      24);
}

/// Compares every speaker's best() for every live origin with the solver;
/// returns the number of (AS, prefix) pairs checked.
std::size_t expect_matches_oracle(const BgpFabric& fabric,
                                  const std::vector<bool>& live) {
  const AsGraph& graph = fabric.graph();
  const std::vector<AsNumber>& ases = graph.ases();
  std::size_t checked = 0;
  for (std::size_t o = 0; o < ases.size(); ++o) {
    const net::Ipv4Prefix prefix = prefix_of(o);
    if (!live[o]) {
      for (AsNumber asn : ases) {
        EXPECT_EQ(fabric.speaker(asn).best(prefix), nullptr)
            << asn.to_string() << " still routes withdrawn " << prefix;
      }
      continue;
    }
    const auto routes = solve(graph, ases[o]);
    for (AsNumber asn : ases) {
      ++checked;
      const Expected& want = routes.at(asn);
      const auto* best = fabric.speaker(asn).best(prefix);
      if (!want.reachable) {
        EXPECT_EQ(best, nullptr) << asn.to_string() << " " << prefix;
        continue;
      }
      if (best == nullptr) {
        ADD_FAILURE() << asn.to_string() << " lacks " << prefix;
        continue;
      }
      EXPECT_EQ(best->learned_from, want.from)
          << asn.to_string() << " " << prefix;
      EXPECT_EQ(best->as_path(), expected_path(routes, asn))
          << asn.to_string() << " " << prefix;
      EXPECT_EQ(best->local_origin, asn == ases[o]);
      if (asn != ases[o]) {
        EXPECT_EQ(best->neighbor_kind, want.kind);
      }
    }
  }
  return checked;
}

// (seed, providers_per_stub, shards)
class RoutingOracle
    : public ::testing::TestWithParam<
          std::tuple<std::uint64_t, std::size_t, std::size_t>> {};

TEST_P(RoutingOracle, EveryBestRouteMatchesTheGaoRexfordSolver) {
  const auto [seed, providers_per_stub, shards] = GetParam();
  SyntheticInternetConfig internet;
  internet.tier1_count = 4;
  internet.transit_count = 12;
  internet.stub_count = 150;
  internet.providers_per_stub = providers_per_stub;
  internet.seed = seed;
  const AsGraph graph = build_synthetic_internet(internet);
  BgpConfig config;
  config.shards = shards;
  BgpFabric fabric(graph, config);

  const std::vector<AsNumber>& ases = graph.ases();
  std::vector<bool> live(ases.size(), true);
  std::vector<RouteDelta> storm;
  for (std::size_t i = 0; i < ases.size(); ++i) {
    storm.push_back(RouteDelta::announce(ases[i], prefix_of(i)));
  }
  fabric.apply(storm);
  fabric.run_to_convergence();
  EXPECT_EQ(expect_matches_oracle(fabric, live), ases.size() * ases.size());

  // Withdraw one origin per tier (the first tier-1, the first transit, the
  // last stub), then bring them back.
  const std::vector<std::size_t> flapped{0, internet.tier1_count,
                                         ases.size() - 1};
  std::vector<RouteDelta> down;
  std::vector<RouteDelta> up;
  for (std::size_t i : flapped) {
    down.push_back(RouteDelta::withdraw(ases[i], prefix_of(i)));
    up.push_back(RouteDelta::announce(ases[i], prefix_of(i)));
    live[i] = false;
  }
  fabric.apply(down);
  fabric.run_to_convergence();
  expect_matches_oracle(fabric, live);

  for (std::size_t i : flapped) live[i] = true;
  fabric.apply(up);
  fabric.run_to_convergence();
  expect_matches_oracle(fabric, live);
}

INSTANTIATE_TEST_SUITE_P(
    Worlds, RoutingOracle,
    ::testing::Combine(::testing::Values(std::uint64_t{1}, 2, 3),
                       ::testing::Values(std::size_t{1}, 2, 3),
                       ::testing::Values(std::size_t{1}, 8)));

// The solver on its own, on a world small enough to check by hand: a
// provider route loses to a peer route, which loses to a customer route,
// and equal-length ties go to the lowest ASN.
TEST(RoutingOracleSolver, FollowsPreferenceThenLengthThenAsn) {
  AsGraph graph;
  for (std::uint32_t asn = 1; asn <= 5; ++asn) {
    graph.add_as(AsNumber{asn}, asn <= 2 ? AsTier::kTier1 : AsTier::kStub);
  }
  graph.add_peering(AsNumber{1}, AsNumber{2});
  graph.add_customer_provider(AsNumber{3}, AsNumber{1});
  graph.add_customer_provider(AsNumber{4}, AsNumber{1});
  graph.add_customer_provider(AsNumber{4}, AsNumber{2});
  graph.add_customer_provider(AsNumber{5}, AsNumber{2});
  const auto routes = solve(graph, AsNumber{3});
  EXPECT_EQ(routes.at(AsNumber{1}).from, AsNumber{3});  // customer
  EXPECT_EQ(routes.at(AsNumber{1}).kind, NeighborKind::kCustomer);
  EXPECT_EQ(routes.at(AsNumber{2}).from, AsNumber{1});  // peer beats provider
  EXPECT_EQ(routes.at(AsNumber{2}).kind, NeighborKind::kPeer);
  EXPECT_EQ(routes.at(AsNumber{4}).from, AsNumber{1});  // shorter provider
  EXPECT_EQ(routes.at(AsNumber{5}).from, AsNumber{2});
  EXPECT_EQ(expected_path(routes, AsNumber{5}),
            (std::vector<AsNumber>{AsNumber{2}, AsNumber{1}, AsNumber{3}}));

  // The fabric agrees.
  BgpFabric fabric(graph);
  std::vector<bool> live(graph.size(), true);
  std::vector<RouteDelta> storm;
  for (std::size_t i = 0; i < graph.size(); ++i) {
    storm.push_back(RouteDelta::announce(graph.ases()[i], prefix_of(i)));
  }
  fabric.apply(storm);
  fabric.run_to_convergence();
  expect_matches_oracle(fabric, live);
}

}  // namespace
}  // namespace lispcp::routing
