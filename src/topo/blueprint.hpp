// blueprint.hpp — shape-keyed immutable topology tables.
//
// The parts of an Internet build that depend only on its *shape* — host DNS
// names (each a string parse), host EIDs, per-site registered prefixes, and
// the interleaved destination-name order — are pure functions of (domains,
// hosts_per_domain, deaggregation_factor).  Each Internet builds its own
// Blueprint once, so every source and destination table of one experiment
// reads the same parsed names instead of re-deriving them per call.
//
// The tables are value-identical to the formulas they replace (the topology
// tests pin this).
#pragma once

#include <cstddef>
#include <vector>

#include "dns/name.hpp"
#include "net/ipv4.hpp"

namespace lispcp::topo {

/// The InternetSpec fields the precomputed tables depend on.
struct BlueprintShape {
  std::size_t domains = 0;
  std::size_t hosts_per_domain = 0;
  std::size_t deaggregation_factor = 1;
};

class Blueprint {
 public:
  explicit Blueprint(const BlueprintShape& shape);

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

}  // namespace lispcp::topo
