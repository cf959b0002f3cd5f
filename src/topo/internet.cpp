#include "topo/internet.hpp"

#include <stdexcept>

#include "topo/address_plan.hpp"

namespace lispcp::topo {

namespace {

constexpr std::size_t kMaxDomains = 512;
/// Flow-aggregate mode carries no per-packet events, so the topology (not
/// the event count) is the limit; 16k domains builds in seconds.
constexpr std::size_t kMaxDomainsAggregate = 16384;
constexpr std::size_t kMaxHosts = 200;
constexpr std::size_t kMaxProviders = 8;
constexpr std::size_t kMaxReplicas = 64;

}  // namespace

InternetSpec InternetSpec::preset(ControlPlaneKind kind) {
  InternetSpec spec;
  mapping::MappingSystemFactory::instance().apply_preset(kind, spec);
  return spec;
}

Internet::Internet(InternetSpec spec) : spec_(std::move(spec)), sim_(spec_.seed),
                                        network_(sim_) {
  const std::size_t max_domains =
      spec_.workload_mode == workload::Mode::kAggregate ? kMaxDomainsAggregate
                                                        : kMaxDomains;
  if (spec_.domains < 2 || spec_.domains > max_domains) {
    throw std::invalid_argument(
        spec_.workload_mode == workload::Mode::kAggregate
            ? "InternetSpec: domains must be in [2, 16384] (aggregate)"
            : "InternetSpec: domains must be in [2, 512]");
  }
  if (spec_.hosts_per_domain < 1 || spec_.hosts_per_domain > kMaxHosts) {
    throw std::invalid_argument("InternetSpec: hosts_per_domain must be in [1, 200]");
  }
  if (spec_.providers_per_domain < 1 || spec_.providers_per_domain > kMaxProviders) {
    throw std::invalid_argument(
        "InternetSpec: providers_per_domain must be in [1, 8]");
  }
  if (spec_.ms_replica_count < 1 || spec_.ms_replica_count > kMaxReplicas) {
    throw std::invalid_argument(
        "InternetSpec: ms_replica_count must be in [1, 64]");
  }
  const auto k = spec_.deaggregation_factor;
  if (k < 1 || k > 64 || (k & (k - 1)) != 0) {
    throw std::invalid_argument(
        "InternetSpec: deaggregation_factor must be a power of two in [1, 64]");
  }
  blueprint_ = std::make_shared<const Blueprint>(
      BlueprintShape{spec_.domains, spec_.hosts_per_domain,
                     spec_.deaggregation_factor});
  build();
}

void Internet::build() {
  // The factory throws on an unregistered kind before any node exists.
  system_ = mapping::MappingSystemFactory::instance().create(spec_);

  core_ = &network_.make<sim::Node>("core");
  // The core answers UDP Echo at this address: the far-end target for
  // border-link liveness detection (core::LinkHealthMonitor).
  core_->add_address(kCoreAddress);

  build_dns_hierarchy();
  domains_.resize(spec_.domains);
  for (std::size_t d = 0; d < spec_.domains; ++d) build_domain(d);
  register_mappings();

  // Mapping-system lifecycle: global infrastructure, then per-site
  // registration, then the ITR-side resolution strategies, then start-up.
  system_->build(*this);
  for (auto& dom : domains_) {
    system_->register_site(*this, dom, dom.registered_entries);
  }
  for (auto& dom : domains_) {
    for (auto* xtr : dom.xtrs) system_->attach_itr(*this, dom, *xtr);
  }
  system_->activate(*this);
}

void Internet::build_dns_hierarchy() {
  // Root serves "." and delegates the "example" TLD.
  dns::Zone root_zone{dns::DomainName()};
  root_zone.delegate(dns::Delegation{
      dns::DomainName::from_string("example"),
      {{dns::DomainName::from_string("ns.example"), kTldDns}}});
  root_dns_ = &network_.make<dns::DnsServer>("dns-root", kRootDns,
                                             std::move(root_zone));

  dns::Zone tld_zone{dns::DomainName::from_string("example")};
  tld_dns_ = &network_.make<dns::DnsServer>("dns-tld", kTldDns,
                                            std::move(tld_zone));

  sim::LinkConfig infra_link;
  infra_link.delay = spec_.dns_infra_delay;
  infra_link.bandwidth_bps = spec_.core_bandwidth_bps;
  network_.connect(core_->id(), root_dns_->id(), infra_link);
  network_.connect(core_->id(), tld_dns_->id(), infra_link);

  network_.add_host_route(core_->id(), kRootDns, root_dns_->id());
  network_.add_host_route(core_->id(), kTldDns, tld_dns_->id());
  network_.add_route(root_dns_->id(), net::Ipv4Prefix(), core_->id());
  network_.add_route(tld_dns_->id(), net::Ipv4Prefix(), core_->id());
}

void Internet::build_domain(std::size_t d) {
  DomainHandle& dom = domains_[d];
  dom.index = d;
  dom.name = "d" + std::to_string(d);
  dom.zone = dns::DomainName::from_string(dom.name + ".example");
  dom.eid_prefix = domain_eid_prefix(d);

  sim::LinkConfig lan;
  lan.delay = spec_.intra_domain_delay;
  lan.bandwidth_bps = spec_.lan_bandwidth_bps;
  sim::LinkConfig access;
  access.delay = spec_.core_link_delay;
  access.bandwidth_bps = spec_.access_bandwidth_bps;
  access.loss = spec_.access_loss;

  sim::Node& r = network_.make<sim::Node>(dom.name + "-r");
  dom.internal_router = &r;

  // Border tunnel routers, one per provider.  The mapping system tunes the
  // baseline config (plain-IP turns the LISP roles off, NERD lifts the
  // cache cap, ...).
  for (std::size_t j = 0; j < spec_.providers_per_domain; ++j) {
    lisp::XtrConfig xcfg;
    xcfg.itr_role = true;
    xcfg.etr_role = true;
    xcfg.local_eid_prefixes = {dom.eid_prefix};
    xcfg.eid_space = {kEidSpace};
    xcfg.cache_capacity = spec_.cache_capacity;
    xcfg.miss_policy = spec_.miss_policy;
    system_->configure_xtr(spec_, xcfg);
    auto& xtr = network_.make<lisp::TunnelRouter>(
        dom.name + "-xtr" + std::to_string(j), xtr_rloc(d, j), xcfg);
    dom.xtrs.push_back(&xtr);

    network_.connect(r.id(), xtr.id(), lan);
    sim::Link& uplink = network_.connect(xtr.id(), core_->id(), access);
    dom.provider_links.push_back(&uplink);

    // Core reaches this RLOC directly; the xTR defaults to the core and
    // hands domain-bound prefixes to the internal router.
    network_.add_host_route(core_->id(), xtr.rloc(), xtr.id());
    network_.add_route(xtr.id(), net::Ipv4Prefix(), core_->id());
    network_.add_route(xtr.id(), dom.eid_prefix, r.id());
    network_.add_route(xtr.id(), domain_infra_prefix(d), r.id());

    network_.add_host_route(r.id(), xtr.rloc(), xtr.id());
  }
  network_.add_route(r.id(), net::Ipv4Prefix(), dom.xtrs.front()->id());

  // Sibling border routers reach each other through the internal router,
  // not the provider core — the ETR-sync multicast (paper §2) must beat the
  // first return packet, and a 2x core RTT detour would lose that race.
  for (auto* a : dom.xtrs) {
    for (auto* b : dom.xtrs) {
      if (a != b) network_.add_host_route(a->id(), b->rloc(), r.id());
    }
  }

  // Authoritative zone and server.
  dns::Zone zone{dom.zone};
  for (std::size_t h = 0; h < spec_.hosts_per_domain; ++h) {
    zone.add_a(host_name(d, h), host_eid(d, h), /*ttl_seconds=*/300);
  }
  const auto auth_addr = domain_infra(d, 20);
  dom.authoritative = &network_.make<dns::DnsServer>(dom.name + "-auth", auth_addr,
                                                     std::move(zone));
  tld_dns_->zone().delegate(dns::Delegation{
      dom.zone, {{dom.zone.child("ns"), auth_addr}}});

  // Caching resolver.
  dns::ResolverConfig rcfg;
  rcfg.root_hints = {kRootDns};
  const auto resolver_addr = domain_infra(d, 10);
  dom.resolver = &network_.make<dns::DnsResolver>(dom.name + "-dns", resolver_addr,
                                                  rcfg);

  // DNS attachment: the mapping system wires it (the PCE control plane
  // interposes its PCE in the DNS data path, Fig. 1; everyone else attaches
  // both servers directly to the internal router).
  system_->attach_domain_dns(*this, dom);

  // End-hosts.
  workload::HostConfig hcfg;
  hcfg.resolver = resolver_addr;
  for (std::size_t h = 0; h < spec_.hosts_per_domain; ++h) {
    const auto eid = host_eid(d, h);
    auto& host = network_.make<workload::Host>(
        dom.name + "-h" + std::to_string(h), eid, hcfg, &metrics_);
    dom.hosts.push_back(&host);
    network_.connect(host.id(), r.id(), lan);
    network_.add_route(host.id(), net::Ipv4Prefix(), r.id());
    network_.add_host_route(r.id(), eid, host.id());
  }

  // Core can reach the domain's DNS infrastructure through its first xTR.
  network_.add_route(core_->id(), domain_infra_prefix(d),
                     dom.xtrs.front()->id());
}

void Internet::register_mappings() {
  for (auto& dom : domains_) {
    std::vector<lisp::MapEntry> site_entries;
    for (const auto& prefix : site_prefixes(dom.index)) {
      lisp::MapEntry entry;
      entry.eid_prefix = prefix;
      entry.ttl_seconds = spec_.mapping_ttl_seconds;
      for (std::size_t j = 0; j < dom.xtrs.size(); ++j) {
        lisp::Rloc rloc;
        rloc.address = dom.xtrs[j]->rloc();
        // Vanilla 2008 multihoming: primary/backup priorities.
        rloc.priority = j == 0 ? 1 : 2;
        rloc.weight = 100;
        entry.rlocs.push_back(rloc);
      }
      registry_.register_site(entry);
      if (const auto* registered = registry_.find(prefix)) {
        site_entries.push_back(*registered);
      }
    }
    for (auto* xtr : dom.xtrs) {
      xtr->set_site_mappings(site_entries);
    }
    dom.registered_entries = std::move(site_entries);
  }
}

core::FailoverController& Internet::arm_failover(std::size_t d,
                                                 core::LinkHealthConfig health) {
  DomainHandle& dom = domains_.at(d);
  if (dom.control_plane == nullptr) {
    throw std::logic_error("arm_failover: domain " + dom.name +
                           " has no PCE control plane");
  }
  // The standard routing adapter: what the domain's IGP (and the provider
  // edge's BGP) would do — re-point the internal default route and the
  // core-side infrastructure route at the first surviving border router.
  auto link_up = std::make_shared<std::vector<bool>>(dom.xtrs.size(), true);
  const std::size_t domain_index = d;
  auto adapter = [this, domain_index, link_up](std::size_t index, bool up) {
    (*link_up)[index] = up;
    DomainHandle& dom = domains_[domain_index];
    for (std::size_t j = 0; j < dom.xtrs.size(); ++j) {
      if (!(*link_up)[j]) continue;
      network_.add_route(dom.internal_router->id(), net::Ipv4Prefix(),
                         dom.xtrs[j]->id());
      network_.add_route(core_->id(), domain_infra_prefix(domain_index),
                         dom.xtrs[j]->id());
      return;
    }
    // No survivor: leave the routes; the domain is partitioned either way.
  };
  dom.failover = std::make_unique<core::FailoverController>(
      *dom.control_plane, *dom.irc, dom.xtrs, kCoreAddress, health,
      std::move(adapter));
  dom.failover->start();
  return *dom.failover;
}

dns::DomainName Internet::host_name(std::size_t domain, std::size_t host) const {
  return blueprint_->host_name(domain, host);
}

net::Ipv4Address Internet::host_eid(std::size_t domain, std::size_t host) const {
  return blueprint_->host_eid(domain, host);
}

std::vector<net::Ipv4Prefix> Internet::site_prefixes(std::size_t domain) const {
  return blueprint_->site_prefixes(domain);
}

std::vector<dns::DomainName> Internet::destination_names(
    std::size_t exclude_domain) const {
  return blueprint_->destination_names(exclude_domain);
}

std::uint64_t Internet::total_miss_drops() const {
  std::uint64_t total = 0;
  for (const auto& dom : domains_) {
    for (const auto* xtr : dom.xtrs) {
      total += xtr->stats().miss_dropped + xtr->stats().queue_overflow_drops +
               xtr->stats().queue_timeout_drops;
    }
  }
  return total;
}

std::uint64_t Internet::total_miss_events() const {
  std::uint64_t total = 0;
  for (const auto& dom : domains_) {
    for (const auto* xtr : dom.xtrs) total += xtr->stats().miss_events;
  }
  return total;
}

std::uint64_t Internet::total_encapsulated() const {
  std::uint64_t total = 0;
  for (const auto& dom : domains_) {
    for (const auto* xtr : dom.xtrs) total += xtr->stats().encapsulated;
  }
  return total;
}

metrics::Histogram Internet::merged_queue_delay() const {
  metrics::Histogram merged;
  for (const auto& dom : domains_) {
    for (const auto* xtr : dom.xtrs) merged.merge(xtr->queue_delay());
  }
  return merged;
}

sim::SimDuration Internet::owd(std::size_t src_domain, std::size_t dst_domain) const {
  const auto delay = network_.path_delay(
      domains_.at(src_domain).hosts.front()->id(),
      domains_.at(dst_domain).hosts.front()->id());
  if (!delay) throw std::logic_error("Internet::owd: disconnected");
  return *delay;
}

}  // namespace lispcp::topo
