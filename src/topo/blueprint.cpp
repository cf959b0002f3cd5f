#include "topo/blueprint.hpp"

#include <algorithm>
#include <string>

#include "topo/address_plan.hpp"

namespace lispcp::topo {

Blueprint::Blueprint(const BlueprintShape& shape) : shape_(shape) {
  const std::size_t domains = shape.domains;
  const std::size_t hosts = shape.hosts_per_domain;
  // Identical formulas to the ones Internet used to evaluate per call; the
  // byte-parity pins depend on that.
  const std::uint64_t stride =
      std::max<std::uint64_t>(1, 254 / std::max<std::size_t>(1, hosts));

  host_names_.reserve(domains * hosts);
  host_eids_.reserve(domains * hosts);
  site_prefixes_.reserve(domains);
  for (std::size_t d = 0; d < domains; ++d) {
    const net::Ipv4Prefix base = domain_eid_prefix(d);
    for (std::size_t h = 0; h < hosts; ++h) {
      host_names_.push_back(dns::DomainName::from_string(
          "h" + std::to_string(h) + ".d" + std::to_string(d) + ".example"));
      host_eids_.push_back(base.nth(2 + h * stride));
    }

    const std::size_t k = shape.deaggregation_factor;
    std::vector<net::Ipv4Prefix> prefixes;
    if (k == 1) {
      prefixes.push_back(base);
    } else {
      int extra_bits = 0;
      while ((std::size_t{1} << extra_bits) < k) ++extra_bits;
      prefixes.reserve(k);
      const std::uint64_t block = base.size() / k;
      for (std::size_t i = 0; i < k; ++i) {
        prefixes.emplace_back(base.nth(i * block), base.length() + extra_bits);
      }
    }
    site_prefixes_.push_back(std::move(prefixes));
  }
}

std::vector<dns::DomainName> Blueprint::destination_names(
    std::size_t exclude_domain) const {
  std::vector<dns::DomainName> out;
  out.reserve(host_names_.size());
  // Interleave across domains so Zipf rank 0..k spreads over many sites.
  for (std::size_t h = 0; h < shape_.hosts_per_domain; ++h) {
    for (std::size_t d = 0; d < shape_.domains; ++d) {
      if (d == exclude_domain) continue;
      out.push_back(host_name(d, h));
    }
  }
  return out;
}

}  // namespace lispcp::topo
