#include "routing/as_graph.hpp"

#include <algorithm>

namespace lispcp::routing {

std::string to_string(AsTier tier) {
  switch (tier) {
    case AsTier::kTier1: return "tier1";
    case AsTier::kTransit: return "transit";
    case AsTier::kStub: return "stub";
  }
  return "?";
}

std::string to_string(NeighborKind kind) {
  switch (kind) {
    case NeighborKind::kCustomer: return "customer";
    case NeighborKind::kProvider: return "provider";
    case NeighborKind::kPeer: return "peer";
  }
  return "?";
}

void AsGraph::add_as(AsNumber asn, AsTier tier) {
  if (contains(asn)) {
    throw std::invalid_argument("AsGraph::add_as: duplicate " + asn.to_string());
  }
  ases_.push_back(asn);
  index_.emplace(asn.value(), Entry{tier, {}});
}

AsGraph::Entry& AsGraph::entry(AsNumber asn) {
  auto it = index_.find(asn.value());
  if (it == index_.end()) {
    throw std::out_of_range("AsGraph: unknown " + asn.to_string());
  }
  return it->second;
}

const AsGraph::Entry& AsGraph::entry(AsNumber asn) const {
  auto it = index_.find(asn.value());
  if (it == index_.end()) {
    throw std::out_of_range("AsGraph: unknown " + asn.to_string());
  }
  return it->second;
}

void AsGraph::add_edge(AsNumber a, NeighborKind a_sees_b, AsNumber b,
                       NeighborKind b_sees_a) {
  if (a == b) {
    throw std::invalid_argument("AsGraph: self edge at " + a.to_string());
  }
  Entry& ea = entry(a);
  Entry& eb = entry(b);
  const bool duplicate = std::any_of(
      ea.neighbors.begin(), ea.neighbors.end(),
      [b](const Neighbor& n) { return n.asn == b; });
  if (duplicate) {
    throw std::invalid_argument("AsGraph: duplicate edge " + a.to_string() +
                                " <-> " + b.to_string());
  }
  ea.neighbors.push_back(Neighbor{b, a_sees_b});
  eb.neighbors.push_back(Neighbor{a, b_sees_a});
  ++edges_;
}

void AsGraph::add_customer_provider(AsNumber customer, AsNumber provider) {
  add_edge(customer, NeighborKind::kProvider, provider, NeighborKind::kCustomer);
}

void AsGraph::add_peering(AsNumber a, AsNumber b) {
  add_edge(a, NeighborKind::kPeer, b, NeighborKind::kPeer);
}

AsTier AsGraph::tier(AsNumber asn) const { return entry(asn).tier; }

const std::vector<AsGraph::Neighbor>& AsGraph::neighbors(AsNumber asn) const {
  return entry(asn).neighbors;
}

std::optional<NeighborKind> AsGraph::kind_between(AsNumber a, AsNumber b) const {
  for (const Neighbor& n : entry(a).neighbors) {
    if (n.asn == b) return n.kind;
  }
  return std::nullopt;
}

std::vector<AsNumber> AsGraph::ases_of_tier(AsTier t) const {
  std::vector<AsNumber> out;
  for (AsNumber asn : ases_) {
    if (tier(asn) == t) out.push_back(asn);
  }
  return out;
}

AsGraph build_synthetic_internet(const SyntheticInternetConfig& config) {
  if (config.tier1_count == 0) {
    throw std::invalid_argument("build_synthetic_internet: need >= 1 tier-1");
  }
  if (config.providers_per_transit == 0 || config.providers_per_stub == 0) {
    throw std::invalid_argument(
        "build_synthetic_internet: every non-tier-1 AS needs >= 1 provider");
  }
  AsGraph graph;
  sim::Rng rng(config.seed);

  std::vector<AsNumber> tier1s;
  std::uint32_t next_asn = 1;
  for (std::size_t i = 0; i < config.tier1_count; ++i) {
    const AsNumber asn{next_asn++};
    graph.add_as(asn, AsTier::kTier1);
    tier1s.push_back(asn);
  }
  // Tier-1 full peering mesh: the default-free zone core.
  for (std::size_t i = 0; i < tier1s.size(); ++i) {
    for (std::size_t j = i + 1; j < tier1s.size(); ++j) {
      graph.add_peering(tier1s[i], tier1s[j]);
    }
  }

  // Picks `want` distinct providers from `pool` (deterministically random).
  const auto pick_providers = [&rng](const std::vector<AsNumber>& pool,
                                     std::size_t want) {
    std::vector<AsNumber> chosen;
    const std::size_t n = std::min(want, pool.size());
    std::vector<std::size_t> indices(pool.size());
    for (std::size_t i = 0; i < indices.size(); ++i) indices[i] = i;
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t j =
          i + static_cast<std::size_t>(
                  rng.uniform_int(0, indices.size() - 1 - i));
      std::swap(indices[i], indices[j]);
      chosen.push_back(pool[indices[i]]);
    }
    return chosen;
  };

  std::vector<AsNumber> transits;
  for (std::size_t i = 0; i < config.transit_count; ++i) {
    const AsNumber asn{next_asn++};
    graph.add_as(asn, AsTier::kTransit);
    transits.push_back(asn);
    for (AsNumber provider : pick_providers(tier1s, config.providers_per_transit)) {
      graph.add_customer_provider(asn, provider);
    }
  }
  // Lateral transit peering, sparsely.
  for (std::size_t i = 0; i < transits.size(); ++i) {
    for (std::size_t j = i + 1; j < transits.size(); ++j) {
      if (rng.chance(config.transit_peering_probability)) {
        graph.add_peering(transits[i], transits[j]);
      }
    }
  }

  const std::vector<AsNumber>& stub_provider_pool =
      transits.empty() ? tier1s : transits;
  for (std::size_t i = 0; i < config.stub_count; ++i) {
    const AsNumber asn{next_asn++};
    graph.add_as(asn, AsTier::kStub);
    for (AsNumber provider :
         pick_providers(stub_provider_pool, config.providers_per_stub)) {
      graph.add_customer_provider(asn, provider);
    }
  }
  return graph;
}

}  // namespace lispcp::routing
