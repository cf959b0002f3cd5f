// as_graph.hpp — the inter-domain topology at the autonomous-system level.
//
// The paper's §1 motivation is the scalability of inter-domain routing: "the
// scaling benefits arise when EID addresses are not routable through the
// Internet — only the RLOCs are globally routable".  Quantifying that claim
// (experiment F2) needs the substrate this module provides: an AS graph with
// business relationships (customer-provider / peer-peer, the Gao-Rexford
// model) over which the path-vector protocol in bgp.hpp propagates routes.
//
// This layer is deliberately separate from the packet-level topology in
// src/topo: DFZ routing-table scaling is a property of the AS-level control
// plane, and modelling it per-packet would add nothing but cost.
#pragma once

#include <compare>
#include <cstdint>
#include <functional>
#include <optional>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/rng.hpp"

namespace lispcp::routing {

/// An autonomous-system number.  Strong type: never interchangeable with a
/// plain integer index.
class AsNumber {
 public:
  constexpr AsNumber() noexcept = default;
  constexpr explicit AsNumber(std::uint32_t value) noexcept : value_(value) {}

  [[nodiscard]] constexpr std::uint32_t value() const noexcept { return value_; }
  [[nodiscard]] std::string to_string() const {
    return "AS" + std::to_string(value_);
  }

  friend constexpr auto operator<=>(AsNumber, AsNumber) noexcept = default;

 private:
  std::uint32_t value_ = 0;
};

/// The role an AS plays in the synthetic Internet.  Tier-1s form a full
/// peering mesh and have no providers; transits have providers among the
/// tier above and sell transit below; stubs (the LISP "sites") only buy.
enum class AsTier : std::uint8_t { kTier1, kTransit, kStub };

[[nodiscard]] std::string to_string(AsTier tier);

/// How a neighbor relates to *this* AS on a given session (Gao-Rexford).
enum class NeighborKind : std::uint8_t {
  kCustomer,  ///< the neighbor pays us for transit
  kProvider,  ///< we pay the neighbor for transit
  kPeer,      ///< settlement-free exchange of customer routes
};

[[nodiscard]] std::string to_string(NeighborKind kind);

/// An AS-level topology: nodes with tiers, edges with business
/// relationships.  Construction-only API — the graph is immutable once
/// handed to a BgpFabric.
class AsGraph {
 public:
  struct Neighbor {
    AsNumber asn;
    NeighborKind kind;
  };

  /// Adds an AS; throws std::invalid_argument on duplicates.
  void add_as(AsNumber asn, AsTier tier);

  /// Records that `customer` buys transit from `provider`.  Both endpoints
  /// must exist; duplicate or self edges throw.
  void add_customer_provider(AsNumber customer, AsNumber provider);

  /// Records a settlement-free peering between `a` and `b`.
  void add_peering(AsNumber a, AsNumber b);

  [[nodiscard]] bool contains(AsNumber asn) const noexcept {
    return index_.contains(asn.value());
  }
  [[nodiscard]] std::size_t size() const noexcept { return ases_.size(); }
  [[nodiscard]] std::size_t edge_count() const noexcept { return edges_; }

  /// Tier of `asn`; throws std::out_of_range if absent.
  [[nodiscard]] AsTier tier(AsNumber asn) const;

  /// All sessions of `asn`, each labelled from `asn`'s perspective.
  [[nodiscard]] const std::vector<Neighbor>& neighbors(AsNumber asn) const;

  /// Relationship of `b` as seen from `a`, or nullopt when no session
  /// exists (used by the policy layer's valley-free path checker).
  [[nodiscard]] std::optional<NeighborKind> kind_between(AsNumber a,
                                                         AsNumber b) const;

  /// Every AS, in insertion order (deterministic iteration).
  [[nodiscard]] const std::vector<AsNumber>& ases() const noexcept {
    return ases_;
  }

  /// All ASes of the given tier, in insertion order.
  [[nodiscard]] std::vector<AsNumber> ases_of_tier(AsTier tier) const;

 private:
  struct Entry {
    AsTier tier;
    std::vector<Neighbor> neighbors;
  };

  Entry& entry(AsNumber asn);
  [[nodiscard]] const Entry& entry(AsNumber asn) const;
  void add_edge(AsNumber a, NeighborKind a_sees_b, AsNumber b,
                NeighborKind b_sees_a);

  std::vector<AsNumber> ases_;
  std::unordered_map<std::uint32_t, Entry> index_;
  std::size_t edges_ = 0;
};

/// Parameters for the synthetic Internet used by the F2 study: a three-tier
/// hierarchy in the spirit of 2008-era topology surveys — a small clique of
/// tier-1s, a layer of regional transits, and the stub sites that LISP's
/// EID/RLOC split is about.
struct SyntheticInternetConfig {
  std::size_t tier1_count = 4;     ///< full peering mesh at the top
  std::size_t transit_count = 12;  ///< regional providers
  std::size_t stub_count = 100;    ///< edge sites (LISP domains)
  /// Providers per transit AS, drawn from the tier-1 set.
  std::size_t providers_per_transit = 2;
  /// Providers per stub (1 = single-homed, >= 2 = multihomed), drawn from
  /// the transit set.  The paper's TE claims presuppose multihoming.
  std::size_t providers_per_stub = 2;
  /// Probability that two transit ASes sharing a tier-1 provider also peer.
  double transit_peering_probability = 0.2;
  std::uint64_t seed = 1;
};

/// Builds the three-tier synthetic Internet.  Deterministic for a given
/// config (all randomness from the seeded Rng).
///
/// AS numbering: tier-1s get 1..T1, transits T1+1..T1+T, stubs follow.
[[nodiscard]] AsGraph build_synthetic_internet(const SyntheticInternetConfig& config);

}  // namespace lispcp::routing

template <>
struct std::hash<lispcp::routing::AsNumber> {
  std::size_t operator()(lispcp::routing::AsNumber asn) const noexcept {
    return std::hash<std::uint32_t>{}(asn.value());
  }
};
