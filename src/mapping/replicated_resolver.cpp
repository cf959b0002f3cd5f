#include "mapping/replicated_resolver.hpp"

#include <algorithm>

#include "lisp/resolution.hpp"
#include "lisp/tunnel_router.hpp"
#include "topo/address_plan.hpp"
#include "topo/internet.hpp"

namespace lispcp::mapping {

void ReplicatedResolverSystem::build(topo::Internet& internet) {
  const auto& spec = internet.spec();
  auto& network = internet.network();
  sim::Node& core = internet.core_router();

  const std::size_t shards = std::max<std::size_t>(1, spec.map_server_count);
  const std::size_t replicas =
      std::min(std::max<std::size_t>(1, spec.ms_replica_count), spec.domains);

  sim::LinkConfig core_attach;
  core_attach.delay = spec.dns_infra_delay;
  core_attach.bandwidth_bps = spec.core_bandwidth_bps;

  // Authoritative tier: sharded Map-Servers at the core, as in the MS
  // system (registration load shards; it does not need geographic spread).
  MapServerConfig mscfg;
  mscfg.proxy_reply = spec.ms_proxy_reply;
  for (std::size_t i = 0; i < shards; ++i) {
    auto& ms = network.make<MapServer>("ms" + std::to_string(i),
                                       topo::map_server_addr(i), mscfg);
    network.connect(ms.id(), core.id(), core_attach);
    network.add_host_route(core.id(), ms.address(), ms.id());
    network.add_route(ms.id(), net::Ipv4Prefix(), core.id());
    servers_.push_back(&ms);
    internet.mapping_infra().map_servers.push_back(&ms);
  }

  // Resolver tier: replicas live inside evenly spaced home domains, one
  // LAN hop from that region's ITRs (the anycast-PoP stand-in).
  sim::LinkConfig lan_attach;
  lan_attach.delay = spec.intra_domain_delay;
  lan_attach.bandwidth_bps = spec.lan_bandwidth_bps;
  for (std::size_t r = 0; r < replicas; ++r) {
    const std::size_t home = replica_home_domain(r, replicas, spec.domains);
    topo::DomainHandle& dom = internet.domain(home);
    const auto addr = topo::replica_resolver_addr(r);
    auto& mr = network.make<MapResolver>("mr-rep" + std::to_string(r), addr);
    network.connect(mr.id(), dom.internal_router->id(), lan_attach);
    network.add_host_route(dom.internal_router->id(), addr, mr.id());
    network.add_route(mr.id(), net::Ipv4Prefix(), dom.internal_router->id());
    // The rest of the world reaches the replica through its home domain's
    // border routers; the border routers hand it inward.
    network.add_host_route(core.id(), addr, dom.xtrs.front()->id());
    for (auto* xtr : dom.xtrs) {
      network.add_host_route(xtr->id(), addr, dom.internal_router->id());
    }
    resolvers_.push_back(&mr);
    internet.mapping_infra().map_resolvers.push_back(&mr);
  }

  // Replicated routing state: every replica holds the full
  // prefix-to-shard table.
  for (std::size_t d = 0; d < spec.domains; ++d) {
    const auto ms_addr = topo::map_server_addr(d % shards);
    for (const auto& prefix : internet.site_prefixes(d)) {
      for (auto* mr : resolvers_) {
        mr->add_map_server_route(prefix, ms_addr);
      }
    }
  }
}

void ReplicatedResolverSystem::register_site(
    topo::Internet& internet, topo::DomainHandle& dom,
    const std::vector<lisp::MapEntry>& entries) {
  RegistrarConfig rcfg;
  rcfg.ttl_seconds = internet.spec().ms_registration_ttl_seconds;
  rcfg.refresh_interval = internet.spec().ms_refresh_interval;
  auto registrar = std::make_unique<EtrRegistrar>(
      *dom.xtrs.front(), topo::map_server_addr(dom.index % servers_.size()),
      entries, rcfg);
  registrar->start();
  internet.mapping_infra().registrars.push_back(std::move(registrar));
}

void ReplicatedResolverSystem::attach_itr(topo::Internet& internet,
                                          topo::DomainHandle& dom,
                                          lisp::TunnelRouter& itr) {
  // Nearest-replica selection: order the replica set by propagation delay
  // from this ITR.  Equidistant replicas (the common case for domains with
  // no local replica, which see every replica across the core) are rotated
  // by the ITR's domain so load spreads the way anycast vantage points do,
  // instead of every remote domain piling onto replica 0.
  //
  // Internet::build attaches ITRs only after every domain and the replica
  // tier are wired, so the hub table built on the first call sees the whole
  // topology: one tree from the core instead of a Dijkstra per ITR x
  // replica.
  if (!hub_.has_value()) {
    hub_ = internet.network().hub_distances(internet.core_router().id());
  }
  std::vector<std::pair<sim::SimDuration, net::Ipv4Address>> ranked;
  ranked.reserve(resolvers_.size());
  for (const auto* mr : resolvers_) {
    const auto delay = hub_->delay(itr.id(), mr->id());
    ranked.emplace_back(delay.value_or(sim::SimDuration::seconds(3600)),
                        mr->address());
  }
  std::stable_sort(ranked.begin(), ranked.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  for (auto run = ranked.begin(); run != ranked.end();) {
    auto run_end = run + 1;
    while (run_end != ranked.end() && run_end->first == run->first) ++run_end;
    const auto run_size = static_cast<std::size_t>(run_end - run);
    std::rotate(run, run + dom.index % run_size, run_end);
    run = run_end;
  }
  std::vector<net::Ipv4Address> ordered;
  ordered.reserve(ranked.size());
  for (const auto& [delay, addr] : ranked) {
    (void)delay;
    ordered.push_back(addr);
  }
  itr.set_resolution_strategy(
      std::make_unique<lisp::ReplicaPullResolution>(std::move(ordered)));
}

MappingSystemStats ReplicatedResolverSystem::stats() const {
  MappingSystemStats out;
  out.infrastructure_nodes = servers_.size() + resolvers_.size();
  for (const auto* ms : servers_) {
    out.database_records += ms->registration_count();
    out.control_messages +=
        ms->stats().registers_received + ms->stats().requests_received;
  }
  for (const auto* mr : resolvers_) {
    out.database_records += mr->route_count();
    out.control_messages += mr->stats().requests_received;
  }
  return out;
}

}  // namespace lispcp::mapping
