// blueprint.hpp — shape-keyed immutable topology tables.
//
// The parts of an Internet build that depend only on its *shape* — host DNS
// names (each a string parse), host EIDs, per-site registered prefixes, and
// the interleaved destination-name order — are pure functions of (domains,
// hosts_per_domain, deaggregation_factor).  A Blueprint precomputes them
// once; inside a BlueprintScope (opened by scenario::Runner::run around its
// point loop) every Internet of the same shape forks the same Blueprint
// instead of re-deriving the tables, which turns the per-point topology
// setup from O(domains * hosts) name parses into a shared-pointer copy.
// Outside any scope Blueprint::shared builds privately, so stand-alone
// constructions keep no global state alive.
//
// The tables are value-identical to the formulas they replace (the parity
// tests pin this): sharing can never change results.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "core/snapshot_cache.hpp"
#include "dns/name.hpp"
#include "net/ipv4.hpp"

namespace lispcp::topo {

/// The shape key: the InternetSpec fields the precomputed tables depend on.
struct BlueprintShape {
  std::size_t domains = 0;
  std::size_t hosts_per_domain = 0;
  std::size_t deaggregation_factor = 1;

  friend bool operator==(const BlueprintShape&, const BlueprintShape&) = default;
};

class Blueprint {
 public:
  explicit Blueprint(const BlueprintShape& shape);

  /// The shared snapshot for `shape`: cached inside a BlueprintScope, a
  /// private build otherwise.
  [[nodiscard]] static std::shared_ptr<const Blueprint> shared(
      const BlueprintShape& shape);

  [[nodiscard]] const BlueprintShape& shape() const noexcept { return shape_; }

  /// DNS name of host h in domain d: "h<h>.d<d>.example".
  [[nodiscard]] const dns::DomainName& host_name(std::size_t domain,
                                                 std::size_t host) const {
    return host_names_[domain * shape_.hosts_per_domain + host];
  }

  /// Every host's name, [domain * hosts_per_domain + host].
  [[nodiscard]] const std::vector<dns::DomainName>& host_names() const noexcept {
    return host_names_;
  }

  /// EID of host h in domain d (hosts strided across the domain's /24).
  [[nodiscard]] net::Ipv4Address host_eid(std::size_t domain,
                                          std::size_t host) const {
    return host_eids_[domain * shape_.hosts_per_domain + host];
  }

  /// The mapping prefixes domain d registers (de-aggregated per the shape).
  [[nodiscard]] const std::vector<net::Ipv4Prefix>& site_prefixes(
      std::size_t domain) const {
    return site_prefixes_[domain];
  }

  /// Names of every host outside `exclude_domain`, interleaved host-major:
  /// the Zipf rank order that workload::DestinationRanks computes.
  [[nodiscard]] std::vector<dns::DomainName> destination_names(
      std::size_t exclude_domain) const;

 private:
  BlueprintShape shape_;
  std::vector<dns::DomainName> host_names_;   ///< [domain * hosts + host]
  std::vector<net::Ipv4Address> host_eids_;   ///< same layout
  std::vector<std::vector<net::Ipv4Prefix>> site_prefixes_;  ///< per domain
};

/// Retains Blueprint snapshots while alive (RAII; see file comment).
class BlueprintScope {
 public:
  BlueprintScope();

 private:
  core::SnapshotCache<BlueprintShape, Blueprint>::Scope scope_;
};

}  // namespace lispcp::topo
