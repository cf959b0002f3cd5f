#include "sim/network.hpp"

#include <limits>
#include <queue>
#include <stdexcept>

#include "core/flat_map.hpp"

namespace lispcp::sim {

namespace {

std::uint64_t adjacency_key(NodeId a, NodeId b) noexcept {
  auto lo = a.value();
  auto hi = b.value();
  if (lo > hi) std::swap(lo, hi);
  return (std::uint64_t{lo} << 32) | hi;
}

}  // namespace

NodeId Network::register_node(Node* node) {
  const NodeId id(static_cast<std::uint32_t>(nodes_.size()));
  nodes_.push_back(node);
  tables_.emplace_back();
  incident_.emplace_back();
  return id;
}

void Network::register_address(net::Ipv4Address address, NodeId owner) {
  auto [it, inserted] = address_index_.emplace(address, owner);
  if (!inserted) {
    throw std::logic_error("Network: address " + address.to_string() +
                           " already owned by node '" + node(it->second).name() +
                           "'");
  }
}

Node& Network::node(NodeId id) const {
  if (!id.valid() || id.value() >= nodes_.size()) {
    throw std::out_of_range("Network::node: bad NodeId");
  }
  return *nodes_[id.value()];
}

Link& Network::connect(NodeId a, NodeId b, LinkConfig config) {
  if (a == b) throw std::invalid_argument("Network::connect: self-link");
  if (link_between(a, b) != nullptr) {
    throw std::logic_error("Network::connect: nodes already adjacent");
  }
  links_.push_back(std::make_unique<Link>(*this, a, b, config));
  Link* link = links_.back().get();
  adjacency_[adjacency_key(a, b)] = link;
  incident_[a.value()].push_back(link);
  incident_[b.value()].push_back(link);
  return *link;
}

Link* Network::link_between(NodeId a, NodeId b) const {
  auto it = adjacency_.find(adjacency_key(a, b));
  return it == adjacency_.end() ? nullptr : it->second;
}

void Network::add_route(NodeId at, const net::Ipv4Prefix& prefix, NodeId next_hop) {
  if (link_between(at, next_hop) == nullptr) {
    throw std::logic_error("Network::add_route: next hop '" +
                           node(next_hop).name() + "' not adjacent to '" +
                           node(at).name() + "'");
  }
  tables_[at.value()].insert(prefix, next_hop);
}

std::vector<Network::SptEntry> Network::shortest_paths_from(NodeId source) const {
  std::vector<SptEntry> entries(nodes_.size());
  using QueueItem = std::pair<std::int64_t, std::uint32_t>;  // (dist ns, node)
  std::priority_queue<QueueItem, std::vector<QueueItem>, std::greater<>> frontier;

  entries[source.value()] = {SimDuration{}, source, true};
  frontier.emplace(0, source.value());

  while (!frontier.empty()) {
    auto [dist_ns, u] = frontier.top();
    frontier.pop();
    if (dist_ns > entries[u].distance.ns()) continue;  // stale entry
    // Relax every link incident to u.
    for (Link* link : incident_[u]) {
      if (!link->is_up()) continue;
      const NodeId v = link->peer_of(NodeId(u));
      const SimDuration alt =
          entries[u].distance + link->config().delay;
      SptEntry& ev = entries[v.value()];
      if (!ev.reachable || alt < ev.distance) {
        ev.distance = alt;
        ev.reachable = true;
        // v's next hop toward the source is u (paths are reversible:
        // links are symmetric in delay).
        ev.next_toward_source = NodeId(u);
        frontier.emplace(alt.ns(), v.value());
      }
    }
  }
  return entries;
}

void Network::install_routes_toward(NodeId target, const net::Ipv4Prefix& prefix,
                                    const std::unordered_set<NodeId>& scope) {
  const auto spt = shortest_paths_from(target);
  for (std::uint32_t i = 0; i < nodes_.size(); ++i) {
    const NodeId id(i);
    if (id == target) continue;
    if (!scope.empty() && !scope.contains(id)) continue;
    if (!spt[i].reachable) continue;
    tables_[i].insert(prefix, spt[i].next_toward_source);
  }
}

std::optional<SimDuration> Network::path_delay(NodeId from, NodeId to) const {
  if (from == to) return SimDuration{};
  // Dijkstra from `from`, stopped when `to` is settled.  Distances live in
  // a hash map, so the cost follows the nodes explored rather than the
  // size of the network.
  core::FlatMap<std::uint32_t, std::int64_t> best;  // node -> distance ns
  using QueueItem = std::pair<std::int64_t, std::uint32_t>;  // (dist ns, node)
  std::priority_queue<QueueItem, std::vector<QueueItem>, std::greater<>> frontier;
  best[from.value()] = 0;
  frontier.emplace(0, from.value());
  while (!frontier.empty()) {
    const auto [dist_ns, u] = frontier.top();
    frontier.pop();
    if (dist_ns > *best.find(u)) continue;  // stale entry
    if (u == to.value()) return SimDuration::nanos(dist_ns);
    for (Link* link : incident_[u]) {
      if (!link->is_up()) continue;
      const std::uint32_t v = link->peer_of(NodeId(u)).value();
      const std::int64_t alt = dist_ns + link->config().delay.ns();
      auto [dist_v, inserted] = best.try_emplace(v);
      if (inserted || alt < *dist_v) {
        *dist_v = alt;
        frontier.emplace(alt, v);
      }
    }
  }
  return std::nullopt;
}

HubDistances Network::hub_distances(NodeId hub) const {
  if (!hub.valid() || hub.value() >= nodes_.size()) {
    throw std::out_of_range("Network::hub_distances: bad NodeId");
  }
  HubDistances table(*this);
  const auto spt = shortest_paths_from(hub);
  table.to_hub_.resize(nodes_.size());
  for (std::size_t i = 0; i < spt.size(); ++i) {
    if (spt[i].reachable) table.to_hub_[i] = spt[i].distance;
  }

  // Label the components of the graph with the hub removed: a flood fill
  // over up links that never enters the hub.  The hub is labelled alone.
  constexpr std::uint32_t kUnlabelled = std::numeric_limits<std::uint32_t>::max();
  table.component_.assign(nodes_.size(), kUnlabelled);
  std::uint32_t next_label = 0;
  table.component_[hub.value()] = next_label++;
  std::vector<std::uint32_t> stack;
  for (std::uint32_t seed = 0; seed < nodes_.size(); ++seed) {
    if (table.component_[seed] != kUnlabelled) continue;
    const std::uint32_t label = next_label++;
    table.component_[seed] = label;
    stack.push_back(seed);
    while (!stack.empty()) {
      const std::uint32_t u = stack.back();
      stack.pop_back();
      for (Link* link : incident_[u]) {
        if (!link->is_up()) continue;
        const std::uint32_t v = link->peer_of(NodeId(u)).value();
        if (table.component_[v] != kUnlabelled) continue;
        table.component_[v] = label;
        stack.push_back(v);
      }
    }
  }
  return table;
}

std::optional<SimDuration> HubDistances::delay(NodeId a, NodeId b) const {
  if (a == b) return SimDuration{};
  if (component(a) == component(b)) return network_->path_delay(a, b);
  // Different components: every path between them crosses the hub.
  const auto a_hub = to_hub(a);
  const auto b_hub = to_hub(b);
  if (!a_hub.has_value() || !b_hub.has_value()) return std::nullopt;
  return *a_hub + *b_hub;
}

void Network::inject(NodeId at, net::Packet packet) {
  Node& origin = node(at);
  // Numbered on first entry only, so a re-injected packet keeps its id.
  if (packet.id() == 0) packet.set_id(++packet_id_counter_);
  if (tracer_ != nullptr) tracer_->on_send(sim_.now(), origin, packet);
  // Loopback: a node sending to one of its own addresses delivers locally.
  if (origin.owns(packet.outer_ip().dst)) {
    ++counters_.delivered;
    origin.deliver(std::move(packet));
    return;
  }
  forward(at, std::move(packet), /*decrement_ttl=*/false);
}

void Network::arrive(NodeId at, net::Packet packet) {
  Node& here = node(at);
  if (here.owns(packet.outer_ip().dst)) {
    ++counters_.delivered;
    if (tracer_ != nullptr) tracer_->on_deliver(sim_.now(), here, packet);
    here.deliver(std::move(packet));
    return;
  }
  if (here.transit(packet) == Node::TransitAction::kConsumed) {
    ++counters_.consumed;
    if (tracer_ != nullptr) tracer_->on_consume(sim_.now(), here, packet);
    return;
  }
  forward(at, std::move(packet), /*decrement_ttl=*/true);
}

void Network::forward(NodeId at, net::Packet packet, bool decrement_ttl) {
  if (decrement_ttl) {
    auto& ip = packet.outer_ip();
    if (ip.ttl <= 1) {
      ++counters_.drops_ttl;
      if (tracer_ != nullptr) {
        tracer_->on_drop(sim_.now(), DropReason::kTtlExpired, packet);
      }
      return;
    }
    --ip.ttl;
  }
  const NodeId* next = tables_[at.value()].lookup(packet.outer_ip().dst);
  if (next == nullptr) {
    ++counters_.drops_no_route;
    if (tracer_ != nullptr) {
      tracer_->on_drop(sim_.now(), DropReason::kNoRoute, packet);
    }
    return;
  }
  Link* link = link_between(at, *next);
  if (link == nullptr) {
    throw std::logic_error("Network::forward: route next hop not adjacent");
  }
  ++counters_.forwarded;
  if (tracer_ != nullptr) tracer_->on_forward(sim_.now(), node(at), packet);
  link->transmit(at, std::move(packet));
}

void Network::drop(DropReason reason, const net::Packet& packet) {
  switch (reason) {
    case DropReason::kNoRoute: ++counters_.drops_no_route; break;
    case DropReason::kTtlExpired: ++counters_.drops_ttl; break;
    case DropReason::kQueueFull: ++counters_.drops_queue; break;
    case DropReason::kRandomLoss: ++counters_.drops_loss; break;
    case DropReason::kLinkDown: ++counters_.drops_link_down; break;
    case DropReason::kMappingMiss: ++counters_.drops_mapping_miss; break;
  }
  if (tracer_ != nullptr) tracer_->on_drop(sim_.now(), reason, packet);
}

}  // namespace lispcp::sim
