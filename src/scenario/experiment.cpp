#include "scenario/experiment.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <string>

namespace lispcp::scenario {

namespace {

sim::SimDuration require(std::optional<sim::SimDuration> delay,
                         const char* what) {
  if (!delay.has_value()) {
    throw std::logic_error(std::string("aggregate world: ") + what);
  }
  return *delay;
}

/// The immutable tables every source's engine shares, built once per
/// experiment: one Zipf table (every source has the same H * (D - 1)
/// destination ranks) and the destination side of whichever engine runs.
struct SharedTables {
  std::shared_ptr<const sim::ZipfDistribution> zipf;
  /// Packet engine: the Blueprint's host names.
  std::shared_ptr<const std::vector<dns::DomainName>> host_names;
  /// Flow-aggregate engine: delays through the core, and the destinations.
  std::optional<sim::HubDistances> hub;
  std::shared_ptr<const workload::AggregateDestinations> destinations;
};

/// The flow-aggregate engine's view of every destination domain and host,
/// read off the *actual* Internet so the engine has no topology assumptions
/// of its own.  The engine composes a path as source-to-core plus
/// core-to-destination, which is exact only if no two domains meet anywhere
/// but the core: each domain's nodes must share one component of the graph
/// without the core, and no other domain may share it.
std::shared_ptr<const workload::AggregateDestinations>
build_aggregate_destinations(topo::Internet& net, const sim::HubDistances& hub) {
  const auto& spec = net.spec();
  auto tables = std::make_shared<workload::AggregateDestinations>();
  tables->peers.reserve(spec.domains);
  tables->hosts.reserve(spec.domains * spec.hosts_per_domain);
  std::vector<std::uint32_t> components;
  components.reserve(spec.domains);
  for (std::size_t d = 0; d < spec.domains; ++d) {
    auto& dom = net.domain(d);
    const sim::NodeId host0 = dom.hosts.front()->id();
    const std::uint32_t component = hub.component(host0);
    if (hub.component(dom.resolver->id()) != component ||
        hub.component(dom.authoritative->id()) != component) {
      throw std::logic_error("aggregate world: domain " + dom.name +
                             " is split by the core");
    }
    components.push_back(component);

    workload::AggregateDestinations::Peer peer;
    peer.xtr = dom.xtrs.front();
    peer.irc = dom.irc.get();
    peer.host_to_hub = require(hub.to_hub(host0), "disconnected domain");
    peer.auth_to_hub =
        require(hub.to_hub(dom.authoritative->id()), "disconnected DNS path");
    peer.auth_processing = dom.authoritative->processing_delay();
    if (dom.pce != nullptr) {
      peer.pce_processing = dom.pce->config().processing_delay;
    }
    tables->peers.push_back(peer);

    for (std::size_t h = 0; h < spec.hosts_per_domain; ++h) {
      workload::AggregateDestinations::Host host;
      host.eid = net.host_eid(d, h);
      const lisp::MapEntry* best = nullptr;
      for (const auto& entry : dom.registered_entries) {
        if (entry.eid_prefix.contains(host.eid) &&
            (best == nullptr ||
             entry.eid_prefix.length() > best->eid_prefix.length())) {
          best = &entry;
        }
      }
      host.registered_prefix =
          best != nullptr ? best->eid_prefix : dom.eid_prefix;
      tables->hosts.push_back(host);
    }
  }
  std::sort(components.begin(), components.end());
  if (std::adjacent_find(components.begin(), components.end()) !=
      components.end()) {
    throw std::logic_error(
        "aggregate world: two domains are joined outside the core");
  }
  return tables;
}

SharedTables build_shared_tables(topo::Internet& net, double zipf_alpha) {
  const auto& spec = net.spec();
  SharedTables shared;
  shared.zipf = std::make_shared<const sim::ZipfDistribution>(
      spec.hosts_per_domain * (spec.domains - 1), zipf_alpha);
  if (spec.workload_mode == workload::Mode::kAggregate) {
    shared.hub = net.network().hub_distances(net.core_router().id());
    shared.destinations = build_aggregate_destinations(net, *shared.hub);
  } else {
    // Aliases the Blueprint, which owns the names.
    const auto& blueprint = net.blueprint();
    shared.host_names = std::shared_ptr<const std::vector<dns::DomainName>>(
        blueprint, &blueprint->host_names());
  }
  return shared;
}

/// Assembles the flow-aggregate engine's view of the built topology for one
/// source domain: its ITR, uplinks, DNS legs and miss policy, plus the
/// shared destination tables.  Only the source's own delays are computed
/// here, in O(1) hub lookups and one search inside the domain.
workload::AggregateWorld build_aggregate_world(
    topo::Internet& net, const SharedTables& shared,
    const workload::DestinationRanks& ranks) {
  workload::AggregateWorld world;
  world.sim = &net.sim();
  world.metrics = &net.metrics();

  const auto& spec = net.spec();
  auto& src = net.domain(ranks.source);

  lisp::TunnelRouter* front = src.xtrs.front();
  const bool lisp = front->config().itr_role;
  if (lisp) {
    world.itr = front;
    world.miss_policy = front->config().miss_policy;
    world.queue_capacity_per_eid = front->config().queue_capacity_per_eid;
    // Encap at the ITR plus decap at the ETR, per crossing direction.
    world.xtr_crossing_delay = 2 * front->config().processing_delay;
  }
  world.source_irc = src.irc.get();
  world.pce_push = src.control_plane != nullptr && spec.pce_snoop;
  for (std::size_t j = 0; j < src.xtrs.size(); ++j) {
    world.uplinks.push_back(workload::AggregateWorld::Uplink{
        src.provider_links[j], src.xtrs[j]->id(), src.xtrs[j],
        src.xtrs[j]->rloc()});
  }

  const workload::HostConfig host_defaults;  // what build_domain installs
  world.syn_rto = host_defaults.syn_rto;
  world.max_syn_retries = host_defaults.max_syn_retries;
  world.wire.data_packets = host_defaults.data_packets;
  world.wire.data_packet_bytes = host_defaults.data_packet_bytes;
  world.wire.response_packet_bytes = host_defaults.response_packet_bytes;
  world.wire.lisp_encapsulated = lisp;

  // DNS model: warm resolution plus the per-tier iterative legs, all read
  // off the real node placement (so a PCE interposed in the DNS path is
  // included via its attachment links).
  const auto& hub = *shared.hub;
  const sim::NodeId client = src.hosts.front()->id();
  const sim::NodeId resolver = src.resolver->id();
  const auto leg = [&](sim::NodeId from, sim::NodeId to,
                       sim::SimDuration processing) {
    return 2 * require(hub.delay(from, to), "disconnected DNS path") +
           processing;
  };
  world.dns_warm =
      leg(client, resolver, src.resolver->config().processing_delay);
  world.dns_leg_root =
      leg(resolver, net.root_dns().id(), net.root_dns().processing_delay());
  world.dns_leg_tld =
      leg(resolver, net.tld_dns().id(), net.tld_dns().processing_delay());

  world.client_to_hub = require(hub.to_hub(client), "disconnected domain");
  world.resolver_to_hub =
      require(hub.to_hub(resolver), "disconnected DNS path");
  if (src.pce != nullptr) {
    world.pce_processing = src.pce->config().processing_delay;
  }
  world.destinations = shared.destinations;
  world.ranks = ranks;
  world.zipf = shared.zipf;
  return world;
}

std::unique_ptr<workload::Traffic> make_traffic(topo::Internet& net,
                                                const SharedTables& shared,
                                                std::size_t source,
                                                const workload::TrafficConfig& cfg,
                                                sim::Rng rng) {
  const auto& spec = net.spec();
  const workload::DestinationRanks ranks{spec.domains, spec.hosts_per_domain,
                                         source};
  if (spec.workload_mode == workload::Mode::kAggregate) {
    return std::make_unique<workload::FlowAggregateEngine>(
        build_aggregate_world(net, shared, ranks), cfg, std::move(rng));
  }
  return std::make_unique<workload::TrafficGenerator>(
      net.sim(), net.domain(source).hosts,
      workload::DestinationNames{shared.host_names, ranks, shared.zipf}, cfg,
      std::move(rng));
}

}  // namespace

Experiment::Experiment(ExperimentConfig config) : config_(std::move(config)) {
  internet_ = std::make_unique<topo::Internet>(config_.spec);

  auto& net = *internet_;
  sim::Rng seeder(config_.spec.seed ^ 0x9e3779b97f4a7c15ull);
  const SharedTables shared =
      build_shared_tables(net, config_.traffic.zipf_alpha);

  if (config_.mode == TrafficMode::kSingleSource) {
    generators_.push_back(
        make_traffic(net, shared, 0, config_.traffic, seeder.fork()));
  } else {
    // Split the aggregate rate evenly over the sending domains.
    workload::TrafficConfig per_domain = config_.traffic;
    per_domain.sessions_per_second =
        config_.traffic.sessions_per_second /
        static_cast<double>(config_.spec.domains);
    if (config_.traffic.max_sessions != 0) {
      per_domain.max_sessions =
          config_.traffic.max_sessions / config_.spec.domains;
    }
    for (std::size_t d = 0; d < config_.spec.domains; ++d) {
      generators_.push_back(
          make_traffic(net, shared, d, per_domain, seeder.fork()));
    }
  }
}

ExperimentSummary Experiment::run() {
  for (auto& generator : generators_) generator->start();
  internet_->sim().run_until(internet_->sim().now() + config_.traffic.duration +
                             config_.drain);
  return summary();
}

ExperimentSummary Experiment::summary() const {
  const auto& m = internet_->metrics();
  ExperimentSummary s;
  s.sessions = m.sessions_started();
  s.established = m.established();
  s.completed = m.completed();
  s.dns_failures = m.dns_failures();
  s.connect_failures = m.connect_failures();
  s.syn_retransmissions = m.syn_retransmissions();
  s.sessions_with_retransmission = m.sessions_with_retransmission();
  s.miss_events = internet_->total_miss_events();
  s.miss_drops = internet_->total_miss_drops();
  s.encapsulated = internet_->total_encapsulated();
  s.t_dns_mean_ms = m.t_dns().mean() / 1000.0;
  s.t_dns_p95_ms = m.t_dns().p95() / 1000.0;
  s.t_setup_mean_ms = m.t_setup().mean() / 1000.0;
  s.t_setup_p50_ms = m.t_setup().p50() / 1000.0;
  s.t_setup_p95_ms = m.t_setup().p95() / 1000.0;
  s.t_setup_p99_ms = m.t_setup().p99() / 1000.0;
  return s;
}

}  // namespace lispcp::scenario
