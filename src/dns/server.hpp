// server.hpp — authoritative DNS server node.
//
// Serves one zone: answers A queries for owned names, returns referrals
// (NS + glue) for delegated child zones, NXDOMAIN otherwise.  The DNS
// hierarchy in a topology is a chain of these servers: a root server
// delegating TLDs, TLD servers delegating site zones, and each LISP domain's
// local authoritative server (DNSD in the paper) answering for its own
// end-hosts.  Replies leave after a configurable processing delay, which is
// what makes T_DNS a real, measurable quantity in the simulation.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "dns/message.hpp"
#include "sim/network.hpp"
#include "sim/node.hpp"

namespace lispcp::dns {

/// A delegation to a child zone: the nameserver names and glue addresses.
struct Delegation {
  DomainName zone;
  std::vector<std::pair<DomainName, net::Ipv4Address>> nameservers;
};

/// Zone contents for an authoritative server.
class Zone {
 public:
  explicit Zone(DomainName origin) : origin_(std::move(origin)) {}

  [[nodiscard]] const DomainName& origin() const noexcept { return origin_; }

  /// Adds an A record for `name` (must be at or under the origin).
  void add_a(const DomainName& name, net::Ipv4Address addr,
             std::uint32_t ttl_seconds = 300);

  /// Delegates child `zone` (must be under the origin) to `nameservers`.
  void delegate(Delegation delegation);

  [[nodiscard]] const std::vector<ResourceRecord>* find_a(
      const DomainName& name) const noexcept;

  /// The most specific delegation covering `name`, if any.
  [[nodiscard]] const Delegation* find_delegation(
      const DomainName& name) const noexcept;

 private:
  DomainName origin_;
  std::unordered_map<DomainName, std::vector<ResourceRecord>> a_records_;
  std::vector<Delegation> delegations_;
};

/// Counters exposed for tests and benches.
struct DnsServerStats {
  std::uint64_t queries = 0;
  std::uint64_t answers = 0;
  std::uint64_t referrals = 0;
  std::uint64_t nxdomain = 0;
};

class DnsServer : public sim::Node {
 public:
  DnsServer(sim::Network& network, std::string name, net::Ipv4Address address,
            Zone zone, sim::SimDuration processing_delay = sim::SimDuration::micros(500));

  [[nodiscard]] Zone& zone() noexcept { return zone_; }
  [[nodiscard]] const Zone& zone() const noexcept { return zone_; }
  [[nodiscard]] const DnsServerStats& stats() const noexcept { return stats_; }
  [[nodiscard]] sim::SimDuration processing_delay() const noexcept {
    return processing_delay_;
  }

  void deliver(net::Packet packet) override;

 private:
  [[nodiscard]] std::shared_ptr<const DnsMessage> respond(const DnsMessage& query);

  Zone zone_;
  sim::SimDuration processing_delay_;
  DnsServerStats stats_;
};

}  // namespace lispcp::dns
