// Tests for routing/as_graph: construction invariants, relationship
// perspectives, and the synthetic three-tier Internet builder.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "routing/as_graph.hpp"

namespace lispcp::routing {
namespace {

TEST(AsGraph, AddAndQuery) {
  AsGraph graph;
  graph.add_as(AsNumber{1}, AsTier::kTier1);
  graph.add_as(AsNumber{2}, AsTier::kTransit);
  graph.add_as(AsNumber{3}, AsTier::kStub);
  EXPECT_EQ(graph.size(), 3u);
  EXPECT_TRUE(graph.contains(AsNumber{2}));
  EXPECT_FALSE(graph.contains(AsNumber{9}));
  EXPECT_EQ(graph.tier(AsNumber{1}), AsTier::kTier1);
  EXPECT_EQ(graph.tier(AsNumber{3}), AsTier::kStub);
  EXPECT_EQ(graph.edge_count(), 0u);
}

TEST(AsGraph, DuplicateAsThrows) {
  AsGraph graph;
  graph.add_as(AsNumber{1}, AsTier::kStub);
  EXPECT_THROW(graph.add_as(AsNumber{1}, AsTier::kTransit),
               std::invalid_argument);
}

TEST(AsGraph, UnknownAsThrows) {
  AsGraph graph;
  graph.add_as(AsNumber{1}, AsTier::kStub);
  EXPECT_THROW((void)graph.tier(AsNumber{2}), std::out_of_range);
  EXPECT_THROW((void)graph.neighbors(AsNumber{2}), std::out_of_range);
  EXPECT_THROW(graph.add_customer_provider(AsNumber{1}, AsNumber{2}),
               std::out_of_range);
}

TEST(AsGraph, SelfAndDuplicateEdgesThrow) {
  AsGraph graph;
  graph.add_as(AsNumber{1}, AsTier::kTransit);
  graph.add_as(AsNumber{2}, AsTier::kStub);
  EXPECT_THROW(graph.add_peering(AsNumber{1}, AsNumber{1}),
               std::invalid_argument);
  graph.add_customer_provider(AsNumber{2}, AsNumber{1});
  EXPECT_THROW(graph.add_customer_provider(AsNumber{2}, AsNumber{1}),
               std::invalid_argument);
  EXPECT_THROW(graph.add_peering(AsNumber{1}, AsNumber{2}),
               std::invalid_argument);
}

TEST(AsGraph, RelationshipPerspectives) {
  AsGraph graph;
  graph.add_as(AsNumber{10}, AsTier::kTransit);
  graph.add_as(AsNumber{20}, AsTier::kStub);
  graph.add_as(AsNumber{30}, AsTier::kTransit);
  graph.add_customer_provider(/*customer=*/AsNumber{20}, /*provider=*/AsNumber{10});
  graph.add_peering(AsNumber{10}, AsNumber{30});

  const auto& from_stub = graph.neighbors(AsNumber{20});
  ASSERT_EQ(from_stub.size(), 1u);
  EXPECT_EQ(from_stub[0].asn, AsNumber{10});
  EXPECT_EQ(from_stub[0].kind, NeighborKind::kProvider);

  const auto& from_provider = graph.neighbors(AsNumber{10});
  ASSERT_EQ(from_provider.size(), 2u);
  EXPECT_EQ(from_provider[0].asn, AsNumber{20});
  EXPECT_EQ(from_provider[0].kind, NeighborKind::kCustomer);
  EXPECT_EQ(from_provider[1].asn, AsNumber{30});
  EXPECT_EQ(from_provider[1].kind, NeighborKind::kPeer);
}

TEST(AsGraph, TierListingPreservesInsertionOrder) {
  AsGraph graph;
  graph.add_as(AsNumber{5}, AsTier::kStub);
  graph.add_as(AsNumber{3}, AsTier::kStub);
  graph.add_as(AsNumber{4}, AsTier::kTier1);
  const auto stubs = graph.ases_of_tier(AsTier::kStub);
  ASSERT_EQ(stubs.size(), 2u);
  EXPECT_EQ(stubs[0], AsNumber{5});
  EXPECT_EQ(stubs[1], AsNumber{3});
}

TEST(SyntheticInternet, TierCountsAndNumbering) {
  SyntheticInternetConfig config;
  config.tier1_count = 3;
  config.transit_count = 5;
  config.stub_count = 20;
  const AsGraph graph = build_synthetic_internet(config);
  EXPECT_EQ(graph.size(), 28u);
  EXPECT_EQ(graph.ases_of_tier(AsTier::kTier1).size(), 3u);
  EXPECT_EQ(graph.ases_of_tier(AsTier::kTransit).size(), 5u);
  EXPECT_EQ(graph.ases_of_tier(AsTier::kStub).size(), 20u);
  // Contiguous numbering by tier: 1..3 tier-1, 4..8 transit, 9..28 stub.
  EXPECT_EQ(graph.tier(AsNumber{1}), AsTier::kTier1);
  EXPECT_EQ(graph.tier(AsNumber{4}), AsTier::kTransit);
  EXPECT_EQ(graph.tier(AsNumber{9}), AsTier::kStub);
  EXPECT_EQ(graph.tier(AsNumber{28}), AsTier::kStub);
}

TEST(SyntheticInternet, Tier1FullMesh) {
  SyntheticInternetConfig config;
  config.tier1_count = 4;
  config.transit_count = 0;
  config.stub_count = 0;
  const AsGraph graph = build_synthetic_internet(config);
  for (AsNumber a : graph.ases_of_tier(AsTier::kTier1)) {
    const auto& neighbors = graph.neighbors(a);
    EXPECT_EQ(neighbors.size(), 3u) << a.to_string();
    for (const auto& n : neighbors) EXPECT_EQ(n.kind, NeighborKind::kPeer);
  }
}

TEST(SyntheticInternet, EveryNonTier1HasRequestedProviders) {
  SyntheticInternetConfig config;
  config.tier1_count = 4;
  config.transit_count = 8;
  config.stub_count = 50;
  config.providers_per_transit = 2;
  config.providers_per_stub = 3;
  const AsGraph graph = build_synthetic_internet(config);
  for (AsNumber t : graph.ases_of_tier(AsTier::kTransit)) {
    std::size_t providers = 0;
    for (const auto& n : graph.neighbors(t)) {
      if (n.kind == NeighborKind::kProvider) {
        ++providers;
        EXPECT_EQ(graph.tier(n.asn), AsTier::kTier1);
      }
    }
    EXPECT_EQ(providers, 2u) << t.to_string();
  }
  for (AsNumber s : graph.ases_of_tier(AsTier::kStub)) {
    std::size_t providers = 0;
    for (const auto& n : graph.neighbors(s)) {
      EXPECT_NE(n.kind, NeighborKind::kCustomer) << "stubs sell no transit";
      if (n.kind == NeighborKind::kProvider) {
        ++providers;
        EXPECT_EQ(graph.tier(n.asn), AsTier::kTransit);
      }
    }
    EXPECT_EQ(providers, 3u) << s.to_string();
  }
}

TEST(SyntheticInternet, ProvidersAreDistinct) {
  SyntheticInternetConfig config;
  config.stub_count = 200;
  config.providers_per_stub = 2;
  const AsGraph graph = build_synthetic_internet(config);
  for (AsNumber s : graph.ases_of_tier(AsTier::kStub)) {
    std::set<std::uint32_t> seen;
    for (const auto& n : graph.neighbors(s)) {
      EXPECT_TRUE(seen.insert(n.asn.value()).second)
          << s.to_string() << " has duplicate provider " << n.asn.to_string();
    }
  }
}

TEST(SyntheticInternet, DeterministicForSameSeed) {
  SyntheticInternetConfig config;
  config.stub_count = 30;
  config.seed = 42;
  const AsGraph a = build_synthetic_internet(config);
  const AsGraph b = build_synthetic_internet(config);
  ASSERT_EQ(a.size(), b.size());
  for (AsNumber asn : a.ases()) {
    const auto& na = a.neighbors(asn);
    const auto& nb = b.neighbors(asn);
    ASSERT_EQ(na.size(), nb.size()) << asn.to_string();
    for (std::size_t i = 0; i < na.size(); ++i) {
      EXPECT_EQ(na[i].asn, nb[i].asn);
      EXPECT_EQ(na[i].kind, nb[i].kind);
    }
  }
}

TEST(SyntheticInternet, InvalidConfigThrows) {
  SyntheticInternetConfig config;
  config.tier1_count = 0;
  EXPECT_THROW(build_synthetic_internet(config), std::invalid_argument);
  config = {};
  config.providers_per_stub = 0;
  EXPECT_THROW(build_synthetic_internet(config), std::invalid_argument);
}

TEST(SyntheticInternet, MoreProvidersThanPoolIsClamped) {
  SyntheticInternetConfig config;
  config.tier1_count = 2;
  config.transit_count = 1;
  config.stub_count = 3;
  config.providers_per_stub = 5;  // only one transit exists
  const AsGraph graph = build_synthetic_internet(config);
  for (AsNumber s : graph.ases_of_tier(AsTier::kStub)) {
    EXPECT_EQ(graph.neighbors(s).size(), 1u);
  }
}

}  // namespace
}  // namespace lispcp::routing
