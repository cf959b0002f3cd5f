// Fabric tests: links (delay, serialization, queue, loss), forwarding
// (LPM routes, TTL, no-route), Dijkstra route installation, tracer hooks,
// and path_delay / HubDistances against a plain Dijkstra on seeded random
// graphs.
#include <gtest/gtest.h>

#include "sim/network.hpp"

namespace lispcp::sim {
namespace {

/// Endpoint that records delivered packets with timestamps.
class Sink : public Node {
 public:
  Sink(Network& network, std::string name, net::Ipv4Address address)
      : Node(network, std::move(name)) {
    add_address(address);
  }
  void deliver(net::Packet packet) override {
    arrival_times.push_back(sim().now());
    packets.push_back(std::move(packet));
  }
  std::vector<SimTime> arrival_times;
  std::vector<net::Packet> packets;
};

net::Packet make_packet(net::Ipv4Address src, net::Ipv4Address dst,
                        std::size_t payload = 100) {
  return net::Packet::udp(src, dst, 1111, 2222,
                          std::make_shared<net::RawPayload>(payload));
}

struct Fixture {
  Simulator sim;
  Network net{sim};
};

TEST(Link, DeliversAfterPropagationAndSerialization) {
  Fixture f;
  auto& a = f.net.make<Sink>("a", net::Ipv4Address(1, 0, 0, 1));
  auto& b = f.net.make<Sink>("b", net::Ipv4Address(1, 0, 0, 2));
  LinkConfig cfg;
  cfg.delay = SimDuration::millis(10);
  cfg.bandwidth_bps = 8e6;  // 1 byte/us
  f.net.connect(a.id(), b.id(), cfg);
  f.net.add_host_route(a.id(), b.address(), b.id());

  a.send(make_packet(a.address(), b.address(), 100));  // 128 bytes on wire
  f.sim.run();
  ASSERT_EQ(b.packets.size(), 1u);
  // 128 B at 1 B/us = 128 us serialization + 10 ms propagation.
  EXPECT_EQ(b.arrival_times[0],
            SimTime::zero() + SimDuration::millis(10) + SimDuration::micros(128));
}

TEST(Link, BackToBackPacketsQueueBehindEachOther) {
  Fixture f;
  auto& a = f.net.make<Sink>("a", net::Ipv4Address(1, 0, 0, 1));
  auto& b = f.net.make<Sink>("b", net::Ipv4Address(1, 0, 0, 2));
  LinkConfig cfg;
  cfg.delay = SimDuration::millis(1);
  cfg.bandwidth_bps = 8e6;
  f.net.connect(a.id(), b.id(), cfg);
  f.net.add_host_route(a.id(), b.address(), b.id());

  a.send(make_packet(a.address(), b.address(), 972));  // 1000 B = 1 ms tx
  a.send(make_packet(a.address(), b.address(), 972));
  f.sim.run();
  ASSERT_EQ(b.packets.size(), 2u);
  EXPECT_EQ((b.arrival_times[1] - b.arrival_times[0]).ms(), 1.0);
}

TEST(Link, DropTailQueueOverflow) {
  Fixture f;
  auto& a = f.net.make<Sink>("a", net::Ipv4Address(1, 0, 0, 1));
  auto& b = f.net.make<Sink>("b", net::Ipv4Address(1, 0, 0, 2));
  LinkConfig cfg;
  cfg.bandwidth_bps = 8e6;
  cfg.queue_bytes = 2000;  // two ~1000B packets of backlog
  Link& link = f.net.connect(a.id(), b.id(), cfg);
  f.net.add_host_route(a.id(), b.address(), b.id());

  for (int i = 0; i < 10; ++i) {
    a.send(make_packet(a.address(), b.address(), 972));
  }
  f.sim.run();
  EXPECT_LT(b.packets.size(), 10u);
  EXPECT_GT(link.stats(a.id()).drops_queue, 0u);
  EXPECT_EQ(b.packets.size() + link.stats(a.id()).drops_queue, 10u);
  EXPECT_EQ(f.net.counters().drops_queue, link.stats(a.id()).drops_queue);
}

TEST(Link, RandomLossDropsApproximatelyAtRate) {
  Fixture f;
  auto& a = f.net.make<Sink>("a", net::Ipv4Address(1, 0, 0, 1));
  auto& b = f.net.make<Sink>("b", net::Ipv4Address(1, 0, 0, 2));
  LinkConfig cfg;
  cfg.loss = 0.3;
  cfg.bandwidth_bps = 1e12;  // effectively no queueing
  f.net.connect(a.id(), b.id(), cfg);
  f.net.add_host_route(a.id(), b.address(), b.id());

  const int n = 5000;
  for (int i = 0; i < n; ++i) a.send(make_packet(a.address(), b.address(), 10));
  f.sim.run();
  const double delivery_rate = static_cast<double>(b.packets.size()) / n;
  EXPECT_NEAR(delivery_rate, 0.7, 0.03);
}

TEST(Link, DownLinkDropsEverything) {
  Fixture f;
  auto& a = f.net.make<Sink>("a", net::Ipv4Address(1, 0, 0, 1));
  auto& b = f.net.make<Sink>("b", net::Ipv4Address(1, 0, 0, 2));
  Link& link = f.net.connect(a.id(), b.id());
  f.net.add_host_route(a.id(), b.address(), b.id());
  link.set_up(false);
  a.send(make_packet(a.address(), b.address()));
  f.sim.run();
  EXPECT_TRUE(b.packets.empty());
  EXPECT_EQ(f.net.counters().drops_link_down, 1u);
}

TEST(Link, UtilizationWindow) {
  Fixture f;
  auto& a = f.net.make<Sink>("a", net::Ipv4Address(1, 0, 0, 1));
  auto& b = f.net.make<Sink>("b", net::Ipv4Address(1, 0, 0, 2));
  LinkConfig cfg;
  cfg.bandwidth_bps = 8e6;
  Link& link = f.net.connect(a.id(), b.id(), cfg);
  f.net.add_host_route(a.id(), b.address(), b.id());

  auto window = link.open_window(a.id());
  // 1000 B over 8 Mbit/s = 1 ms busy; observe over 10 ms => 10% utilization.
  a.send(make_packet(a.address(), b.address(), 972));
  f.sim.run_until(SimTime::zero() + SimDuration::millis(10));
  EXPECT_NEAR(link.utilization(a.id(), window), 0.1, 0.01);
  EXPECT_EQ(link.bytes_in_window(a.id(), window), 1000u);
}

TEST(Network, MultiHopForwardingDecrementsTtl) {
  Fixture f;
  auto& a = f.net.make<Sink>("a", net::Ipv4Address(1, 0, 0, 1));
  auto& r1 = f.net.make<Node>("r1");
  auto& r2 = f.net.make<Node>("r2");
  auto& b = f.net.make<Sink>("b", net::Ipv4Address(1, 0, 0, 2));
  f.net.connect(a.id(), r1.id());
  f.net.connect(r1.id(), r2.id());
  f.net.connect(r2.id(), b.id());
  f.net.add_host_route(a.id(), b.address(), r1.id());
  f.net.add_host_route(r1.id(), b.address(), r2.id());
  f.net.add_host_route(r2.id(), b.address(), b.id());

  auto p = make_packet(a.address(), b.address());
  p.outer_ip().ttl = 64;
  a.send(std::move(p));
  f.sim.run();
  ASSERT_EQ(b.packets.size(), 1u);
  // Originating hop does not decrement; two forwarding hops do.
  EXPECT_EQ(b.packets[0].outer_ip().ttl, 62);
}

TEST(Network, TtlExpiryDrops) {
  Fixture f;
  auto& a = f.net.make<Sink>("a", net::Ipv4Address(1, 0, 0, 1));
  auto& r1 = f.net.make<Node>("r1");
  auto& b = f.net.make<Sink>("b", net::Ipv4Address(1, 0, 0, 2));
  f.net.connect(a.id(), r1.id());
  f.net.connect(r1.id(), b.id());
  f.net.add_host_route(a.id(), b.address(), r1.id());
  f.net.add_host_route(r1.id(), b.address(), b.id());

  auto p = make_packet(a.address(), b.address());
  p.outer_ip().ttl = 1;
  a.send(std::move(p));
  f.sim.run();
  EXPECT_TRUE(b.packets.empty());
  EXPECT_EQ(f.net.counters().drops_ttl, 1u);
}

TEST(Network, NoRouteDropsAndCounts) {
  Fixture f;
  auto& a = f.net.make<Sink>("a", net::Ipv4Address(1, 0, 0, 1));
  auto& b = f.net.make<Sink>("b", net::Ipv4Address(1, 0, 0, 2));
  f.net.connect(a.id(), b.id());
  // No route installed at a.
  a.send(make_packet(a.address(), b.address()));
  f.sim.run();
  EXPECT_TRUE(b.packets.empty());
  EXPECT_EQ(f.net.counters().drops_no_route, 1u);
}

TEST(Network, LoopbackDeliversLocally) {
  Fixture f;
  auto& a = f.net.make<Sink>("a", net::Ipv4Address(1, 0, 0, 1));
  a.send(make_packet(a.address(), a.address()));
  f.sim.run();
  EXPECT_EQ(a.packets.size(), 1u);
}

TEST(Network, RouteToNonAdjacentNextHopThrows) {
  Fixture f;
  auto& a = f.net.make<Sink>("a", net::Ipv4Address(1, 0, 0, 1));
  auto& b = f.net.make<Sink>("b", net::Ipv4Address(1, 0, 0, 2));
  EXPECT_THROW(f.net.add_host_route(a.id(), b.address(), b.id()),
               std::logic_error);
}

TEST(Network, DuplicateAddressThrows) {
  Fixture f;
  f.net.make<Sink>("a", net::Ipv4Address(1, 0, 0, 1));
  EXPECT_THROW(f.net.make<Sink>("b", net::Ipv4Address(1, 0, 0, 1)),
               std::logic_error);
}

TEST(Network, SelfLinkAndDuplicateLinkThrow) {
  Fixture f;
  auto& a = f.net.make<Sink>("a", net::Ipv4Address(1, 0, 0, 1));
  auto& b = f.net.make<Sink>("b", net::Ipv4Address(1, 0, 0, 2));
  EXPECT_THROW(f.net.connect(a.id(), a.id()), std::invalid_argument);
  f.net.connect(a.id(), b.id());
  EXPECT_THROW(f.net.connect(a.id(), b.id()), std::logic_error);
  EXPECT_THROW(f.net.connect(b.id(), a.id()), std::logic_error);
}

TEST(Network, InstallRoutesTowardFollowsShortestDelayPath) {
  Fixture f;
  // Diamond: a - (fast) - r1 - target, a - (slow) - r2 - target.
  auto& a = f.net.make<Sink>("a", net::Ipv4Address(1, 0, 0, 1));
  auto& r1 = f.net.make<Node>("r1");
  auto& r2 = f.net.make<Node>("r2");
  auto& target = f.net.make<Sink>("t", net::Ipv4Address(9, 0, 0, 1));
  LinkConfig fast;
  fast.delay = SimDuration::millis(1);
  LinkConfig slow;
  slow.delay = SimDuration::millis(50);
  f.net.connect(a.id(), r1.id(), fast);
  f.net.connect(a.id(), r2.id(), slow);
  f.net.connect(r1.id(), target.id(), fast);
  f.net.connect(r2.id(), target.id(), fast);

  f.net.install_routes_toward(target.id(),
                              net::Ipv4Prefix::host(target.address()));
  a.send(make_packet(a.address(), target.address()));
  f.sim.run();
  ASSERT_EQ(target.packets.size(), 1u);
  // Via r1: 2 ms total, not 51 ms.
  EXPECT_LT(target.arrival_times[0], SimTime::zero() + SimDuration::millis(5));
}

TEST(Network, InstallRoutesScopeRestrictsInstallation) {
  Fixture f;
  auto& a = f.net.make<Sink>("a", net::Ipv4Address(1, 0, 0, 1));
  auto& b = f.net.make<Sink>("b", net::Ipv4Address(1, 0, 0, 2));
  auto& target = f.net.make<Sink>("t", net::Ipv4Address(9, 0, 0, 1));
  f.net.connect(a.id(), target.id());
  f.net.connect(b.id(), target.id());
  f.net.install_routes_toward(target.id(),
                              net::Ipv4Prefix::host(target.address()),
                              {a.id()});  // scope excludes b
  a.send(make_packet(a.address(), target.address()));
  b.send(make_packet(b.address(), target.address()));
  f.sim.run();
  EXPECT_EQ(target.packets.size(), 1u);
  EXPECT_EQ(f.net.counters().drops_no_route, 1u);
}

TEST(Network, PathDelayMatchesTopology) {
  Fixture f;
  auto& a = f.net.make<Sink>("a", net::Ipv4Address(1, 0, 0, 1));
  auto& r = f.net.make<Node>("r");
  auto& b = f.net.make<Sink>("b", net::Ipv4Address(1, 0, 0, 2));
  LinkConfig cfg;
  cfg.delay = SimDuration::millis(7);
  f.net.connect(a.id(), r.id(), cfg);
  f.net.connect(r.id(), b.id(), cfg);
  auto delay = f.net.path_delay(a.id(), b.id());
  ASSERT_TRUE(delay.has_value());
  EXPECT_EQ(*delay, SimDuration::millis(14));
  EXPECT_EQ(f.net.path_delay(a.id(), a.id()), SimDuration{});

  auto& island = f.net.make<Sink>("x", net::Ipv4Address(1, 0, 0, 3));
  EXPECT_FALSE(f.net.path_delay(a.id(), island.id()).has_value());
}

TEST(Network, PathDelayStopsAtTargetAfterShorterDetour) {
  // a-b is discovered first (10 ms) but the detour a-c-b (2 ms) is shorter:
  // the search must settle b at 2 ms, not at its first, stale distance.
  Fixture f;
  auto& a = f.net.make<Node>("a");
  auto& b = f.net.make<Node>("b");
  auto& c = f.net.make<Node>("c");
  auto& far = f.net.make<Node>("far");
  LinkConfig slow;
  slow.delay = SimDuration::millis(10);
  LinkConfig fast;
  fast.delay = SimDuration::millis(1);
  f.net.connect(a.id(), b.id(), slow);
  f.net.connect(a.id(), c.id(), fast);
  f.net.connect(c.id(), b.id(), fast);
  f.net.connect(b.id(), far.id(), slow);
  EXPECT_EQ(f.net.path_delay(a.id(), b.id()), SimDuration::millis(2));
  EXPECT_EQ(f.net.path_delay(b.id(), a.id()), SimDuration::millis(2));
  EXPECT_EQ(f.net.path_delay(a.id(), far.id()), SimDuration::millis(12));

  // A zero-delay link is settled like any other.
  auto& twin = f.net.make<Node>("twin");
  f.net.connect(far.id(), twin.id(), LinkConfig{.delay = SimDuration{}});
  EXPECT_EQ(f.net.path_delay(a.id(), twin.id()), SimDuration::millis(12));
}

// ---------------------------------------------------------------------------
// HubDistances against a plain full Dijkstra
// ---------------------------------------------------------------------------

/// A seeded random graph around a hub: small connected clusters, most
/// attached to the hub by one or two links, every fourth an island with no
/// link to it, `leaves` single nodes hanging off the hub, and `bridges`
/// links between random clusters that bypass the hub (the hub no longer
/// separates the clusters they join).
struct RandomGraph {
  struct Edge {
    std::uint32_t a;
    std::uint32_t b;
    Link* link;
  };

  RandomGraph(std::uint64_t seed, int clusters, int bridges, int leaves = 3) {
    Rng rng(seed);
    const auto random_delay = [&rng] {
      // Whole milliseconds half the time, so equal-length paths tie.
      const bool whole_ms = rng.chance(0.5);
      const auto n = static_cast<std::int64_t>(
          whole_ms ? rng.uniform_int(1, 5) : rng.uniform_int(1, 9000));
      return whole_ms ? SimDuration::millis(n) : SimDuration::micros(n);
    };
    const auto link = [&](NodeId a, NodeId b) {
      if (a == b || net.link_between(a, b) != nullptr) return;
      Link& l = net.connect(a, b, LinkConfig{.delay = random_delay()});
      edges.push_back(Edge{a.value(), b.value(), &l});
    };
    hub = net.make<Node>("hub").id();
    std::vector<std::vector<NodeId>> members(clusters);
    for (int c = 0; c < clusters; ++c) {
      const auto size = rng.uniform_int(1, 6);
      for (std::uint64_t i = 0; i < size; ++i) {
        const NodeId node =
            net.make<Node>("c" + std::to_string(c) + "n" + std::to_string(i))
                .id();
        // A random spanning tree keeps the cluster connected; extra chords
        // give it alternative paths.
        if (i > 0) link(node, members[c][rng.uniform_int(0, i - 1)]);
        members[c].push_back(node);
      }
      for (std::uint64_t k = 0; k < size / 2; ++k) {
        link(members[c][rng.uniform_int(0, size - 1)],
             members[c][rng.uniform_int(0, size - 1)]);
      }
      if (c % 4 == 3) continue;  // an island
      const auto attachments = rng.uniform_int(1, 2);
      for (std::uint64_t k = 0; k < attachments; ++k) {
        link(hub, members[c][rng.uniform_int(0, size - 1)]);
      }
    }
    for (int i = 0; i < leaves; ++i) {
      link(hub, net.make<Node>("leaf" + std::to_string(i)).id());
    }
    for (int i = 0; i < bridges; ++i) {
      const auto& x = members[rng.uniform_int(0, clusters - 1)];
      const auto& y = members[rng.uniform_int(0, clusters - 1)];
      link(x[rng.uniform_int(0, x.size() - 1)],
           y[rng.uniform_int(0, y.size() - 1)]);
    }
  }

  /// The reference: a plain O(V^2) Dijkstra over the edge list.
  [[nodiscard]] std::vector<std::optional<SimDuration>> distances_from(
      std::uint32_t source) const {
    const std::size_t n = net.node_count();
    std::vector<std::optional<SimDuration>> dist(n);
    std::vector<bool> settled(n, false);
    dist[source] = SimDuration{};
    for (;;) {
      std::optional<std::size_t> u;
      for (std::size_t i = 0; i < n; ++i) {
        if (!settled[i] && dist[i] && (!u || *dist[i] < *dist[*u])) u = i;
      }
      if (!u) return dist;
      settled[*u] = true;
      for (const Edge& e : edges) {
        if (!e.link->is_up() || (e.a != *u && e.b != *u)) continue;
        const std::uint32_t v = e.a == *u ? e.b : e.a;
        const SimDuration alt = *dist[*u] + e.link->config().delay;
        if (!dist[v] || alt < *dist[v]) dist[v] = alt;
      }
    }
  }

  /// The reference components of the graph without the hub: a node's
  /// label is the lowest node it reaches over up links avoiding the hub.
  [[nodiscard]] std::vector<std::uint32_t> components_without_hub() const {
    const auto n = static_cast<std::uint32_t>(net.node_count());
    std::vector<std::uint32_t> label(n);
    for (std::uint32_t i = 0; i < n; ++i) label[i] = i;
    // Relax to the minimum label along every up edge until nothing moves.
    for (bool changed = true; changed;) {
      changed = false;
      for (const Edge& e : edges) {
        if (!e.link->is_up() || e.a == hub.value() || e.b == hub.value()) {
          continue;
        }
        const std::uint32_t low = std::min(label[e.a], label[e.b]);
        changed |= label[e.a] != low || label[e.b] != low;
        label[e.a] = label[e.b] = low;
      }
    }
    return label;
  }

  Simulator sim;
  Network net{sim};
  NodeId hub;
  std::vector<Edge> edges;
};

/// How the pairs of one comparison were answered.
struct PairMix {
  int through_hub = 0;     ///< different components, composed via the hub
  int same_component = 0;  ///< neither endpoint is the hub
  int unreachable = 0;
};

PairMix expect_matches_reference(const RandomGraph& g) {
  const HubDistances table = g.net.hub_distances(g.hub);
  const auto components = g.components_without_hub();
  PairMix mix;
  const auto n = static_cast<std::uint32_t>(g.net.node_count());
  for (std::uint32_t a = 0; a < n; ++a) {
    const auto reference = g.distances_from(a);
    EXPECT_EQ(table.to_hub(NodeId(a)), reference[g.hub.value()]);
    for (std::uint32_t b = 0; b < n; ++b) {
      const NodeId na(a);
      const NodeId nb(b);
      SCOPED_TRACE(g.net.node(na).name() + " -> " + g.net.node(nb).name());
      EXPECT_EQ(table.delay(na, nb), reference[b]);
      EXPECT_EQ(g.net.path_delay(na, nb), reference[b]);
      const bool hub_pair = na == g.hub || nb == g.hub;
      EXPECT_EQ(table.component(na) == table.component(nb),
                a == b || (!hub_pair && components[a] == components[b]));
      if (!reference[b]) {
        ++mix.unreachable;
      } else if (table.component(na) != table.component(nb)) {
        ++mix.through_hub;
      } else if (a != b) {
        ++mix.same_component;
      }
    }
  }
  return mix;
}

TEST(HubDistances, MatchesFullDijkstraWhenTheHubIsACutVertex) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    RandomGraph g(seed, /*clusters=*/8, /*bridges=*/0);
    const PairMix mix = expect_matches_reference(g);
    EXPECT_GT(mix.through_hub, 0);
    EXPECT_GT(mix.same_component, 0);
    EXPECT_GT(mix.unreachable, 0);  // the islands
  }
}

TEST(HubDistances, MatchesFullDijkstraWhenLinksBypassTheHub) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    RandomGraph g(seed, /*clusters=*/6, /*bridges=*/3);
    expect_matches_reference(g);
  }
}

TEST(HubDistances, MatchesFullDijkstraWhenTheHubIsNoCutVertex) {
  // One cluster and no leaves: removing the hub leaves a single component,
  // so every answer falls back to path_delay, including pairs whose
  // shortest path runs through the hub.
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    RandomGraph g(seed, /*clusters=*/1, /*bridges=*/0, /*leaves=*/0);
    const auto table = g.net.hub_distances(g.hub);
    for (std::uint32_t v = 1; v < g.net.node_count(); ++v) {
      EXPECT_EQ(table.component(NodeId(v)), table.component(NodeId(1)));
      EXPECT_NE(table.component(NodeId(v)), table.component(g.hub));
    }
    const PairMix mix = expect_matches_reference(g);
    EXPECT_EQ(mix.unreachable, 0);
  }
}

TEST(HubDistances, FollowsDownedLinks) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    RandomGraph g(seed, /*clusters=*/6, /*bridges=*/seed % 2 == 0 ? 2 : 0);
    Rng rng(seed * 7919);
    for (int i = 0; i < 3; ++i) {
      g.edges[rng.uniform_int(0, g.edges.size() - 1)].link->set_up(false);
    }
    expect_matches_reference(g);
  }
}

TEST(HubDistances, IsASnapshotOfTheLinkStates) {
  Fixture f;
  auto& hub = f.net.make<Node>("hub");
  auto& a = f.net.make<Node>("a");
  auto& b = f.net.make<Node>("b");
  f.net.connect(hub.id(), a.id(), LinkConfig{.delay = SimDuration::millis(3)});
  Link& hb = f.net.connect(hub.id(), b.id(),
                           LinkConfig{.delay = SimDuration::millis(4)});
  const auto table = f.net.hub_distances(hub.id());
  hb.set_up(false);
  EXPECT_EQ(table.delay(a.id(), b.id()), SimDuration::millis(7));
  EXPECT_FALSE(f.net.hub_distances(hub.id()).delay(a.id(), b.id()).has_value());
  EXPECT_THROW((void)f.net.hub_distances(NodeId(99)), std::out_of_range);
}

TEST(Network, TracerSeesLifecycle) {
  struct CountingTracer : Tracer {
    int sends = 0, delivers = 0, forwards = 0, drops = 0;
    void on_send(SimTime, const Node&, const net::Packet&) override { ++sends; }
    void on_deliver(SimTime, const Node&, const net::Packet&) override {
      ++delivers;
    }
    void on_forward(SimTime, const Node&, const net::Packet&) override {
      ++forwards;
    }
    void on_drop(SimTime, DropReason, const net::Packet&) override { ++drops; }
  };
  Fixture f;
  CountingTracer tracer;
  f.net.set_tracer(&tracer);
  auto& a = f.net.make<Sink>("a", net::Ipv4Address(1, 0, 0, 1));
  auto& r = f.net.make<Node>("r");
  auto& b = f.net.make<Sink>("b", net::Ipv4Address(1, 0, 0, 2));
  f.net.connect(a.id(), r.id());
  f.net.connect(r.id(), b.id());
  f.net.add_host_route(a.id(), b.address(), r.id());
  f.net.add_host_route(r.id(), b.address(), b.id());
  a.send(make_packet(a.address(), b.address()));
  f.sim.run();
  EXPECT_EQ(tracer.sends, 1);
  EXPECT_EQ(tracer.delivers, 1);
  EXPECT_EQ(tracer.forwards, 2);  // at a (origination) and at r
  EXPECT_EQ(tracer.drops, 0);
}

TEST(Network, TransitConsumeStopsForwarding) {
  class Interceptor : public Node {
   public:
    using Node::Node;
    TransitAction transit(net::Packet&) override {
      ++consumed;
      return TransitAction::kConsumed;
    }
    int consumed = 0;
  };
  Fixture f;
  auto& a = f.net.make<Sink>("a", net::Ipv4Address(1, 0, 0, 1));
  auto& mid = f.net.make<Interceptor>("mid");
  auto& b = f.net.make<Sink>("b", net::Ipv4Address(1, 0, 0, 2));
  f.net.connect(a.id(), mid.id());
  f.net.connect(mid.id(), b.id());
  f.net.add_host_route(a.id(), b.address(), mid.id());
  f.net.add_host_route(mid.id(), b.address(), b.id());
  a.send(make_packet(a.address(), b.address()));
  f.sim.run();
  EXPECT_EQ(mid.consumed, 1);
  EXPECT_TRUE(b.packets.empty());
  EXPECT_EQ(f.net.counters().consumed, 1u);
}

}  // namespace
}  // namespace lispcp::sim
