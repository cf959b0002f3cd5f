#include "dns/server.hpp"

#include <stdexcept>

#include "net/ports.hpp"

namespace lispcp::dns {

void Zone::add_a(const DomainName& name, net::Ipv4Address addr,
                 std::uint32_t ttl_seconds) {
  if (!name.is_under(origin_)) {
    throw std::invalid_argument("Zone::add_a: " + name.to_string() +
                                " not under origin " + origin_.to_string());
  }
  a_records_[name].push_back(ResourceRecord::a(name, addr, ttl_seconds));
}

void Zone::delegate(Delegation delegation) {
  if (!delegation.zone.is_under(origin_) || delegation.zone == origin_) {
    throw std::invalid_argument("Zone::delegate: " + delegation.zone.to_string() +
                                " not strictly under origin " + origin_.to_string());
  }
  if (delegation.nameservers.empty()) {
    throw std::invalid_argument("Zone::delegate: no nameservers");
  }
  delegations_.push_back(std::move(delegation));
}

const std::vector<ResourceRecord>* Zone::find_a(
    const DomainName& name) const noexcept {
  auto it = a_records_.find(name);
  return it == a_records_.end() ? nullptr : &it->second;
}

const Delegation* Zone::find_delegation(const DomainName& name) const noexcept {
  const Delegation* best = nullptr;
  for (const auto& d : delegations_) {
    if (name.is_under(d.zone) &&
        (best == nullptr || d.zone.label_count() > best->zone.label_count())) {
      best = &d;
    }
  }
  return best;
}

DnsServer::DnsServer(sim::Network& network, std::string name,
                     net::Ipv4Address address, Zone zone,
                     sim::SimDuration processing_delay)
    : Node(network, std::move(name)),
      zone_(std::move(zone)),
      processing_delay_(processing_delay) {
  add_address(address);
}

void DnsServer::deliver(net::Packet packet) {
  const auto* udp = packet.udp();
  if (udp == nullptr || udp->dst_port != net::ports::kDns) {
    Node::deliver(std::move(packet));  // counts as unexpected
    return;
  }
  auto query = packet.payload_as<DnsMessage>();
  if (!query || query->is_response()) {
    Node::deliver(std::move(packet));
    return;
  }
  ++stats_.queries;
  auto response = respond(*query);

  const net::Ipv4Address client = packet.outer_ip().src;
  const std::uint16_t client_port = udp->src_port;
  sim().schedule(processing_delay_, [this, client, client_port, response]() {
    send(net::Packet::udp(address(), client, net::ports::kDns, client_port,
                          response));
  });
}

std::shared_ptr<const DnsMessage> DnsServer::respond(const DnsMessage& query) {
  const Question& q = query.question();

  if (!q.name.is_under(zone_.origin())) {
    ++stats_.nxdomain;
    return DnsMessage::error(query.id(), q, Rcode::kNxDomain);
  }

  // Delegation wins over data for names below a zone cut.
  if (const Delegation* d = zone_.find_delegation(q.name)) {
    std::vector<ResourceRecord> authority;
    std::vector<ResourceRecord> additional;
    for (const auto& [ns_name, ns_addr] : d->nameservers) {
      authority.push_back(ResourceRecord::ns(d->zone, ns_name));
      additional.push_back(ResourceRecord::a(ns_name, ns_addr));
    }
    ++stats_.referrals;
    return DnsMessage::referral(query.id(), q, std::move(authority),
                                std::move(additional));
  }

  if (q.type == RrType::kA) {
    if (const auto* records = zone_.find_a(q.name)) {
      ++stats_.answers;
      return DnsMessage::answer(query.id(), q, *records, /*authoritative=*/true);
    }
  }

  ++stats_.nxdomain;
  return DnsMessage::error(query.id(), q, Rcode::kNxDomain);
}

}  // namespace lispcp::dns
