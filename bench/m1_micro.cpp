// M1 — microbenchmarks: the per-packet costs the paper's "line rate"
// assumptions rest on — LISP encap/decap header work, map-cache and LPM
// lookups, DNS and control-message (de)serialization, event-queue throughput.
//
// Ported onto the shared bench CLI (bench_util.hpp) like every other bench:
// each micro is a point on a labelled axis, timed by a self-calibrating
// wall-clock harness (no google-benchmark dependency), so M1 accepts
// --jobs/--json/--csv/--filter/--quick and emits BENCH_M1.json under the
// schema guard.  --quick shrinks the per-micro time budget; --filter
// narrows by micro name ("trie", "map-cache/4096").  Note that ns/op is a
// wall-clock measurement: unlike the simulation benches the *values* are
// host-dependent (the artifact schema, not the numbers, is what CI pins),
// and --jobs > 1 makes concurrently timed micros perturb each other — the
// default stays serial.  Micros time live code only: a layout an
// optimisation replaced keeps no baseline arm here, and its last numbers
// are in the git history of bench/trajectory/m1.json.
#include <chrono>
#include <cstdint>
#include <functional>
#include <iostream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "core/arena.hpp"
#include "core/flat_map.hpp"
#include "core/inline_function.hpp"
#include "dns/message.hpp"
#include "lisp/control.hpp"
#include "lisp/map_cache.hpp"
#include "net/checksum.hpp"
#include "net/packet.hpp"
#include "net/prefix_trie.hpp"
#include "pcep/messages.hpp"
#include "routing/as_graph.hpp"
#include "routing/dfz_study.hpp"
#include "sim/event_queue.hpp"
#include "sim/rng.hpp"

namespace lispcp {
namespace {

using scenario::Axis;
using scenario::ExperimentConfig;
using scenario::Record;
using scenario::Runner;
using scenario::RunPoint;
using scenario::SweepSpec;

/// Keeps `value` observable so the loop body is not optimised away.
template <typename T>
inline void keep(const T& value) {
  asm volatile("" : : "r,m"(value) : "memory");
}

/// One micro: setup() runs untimed and returns the iteration body.
struct Micro {
  std::string name;
  std::function<std::function<void(std::uint64_t)>()> setup;
};

net::Packet make_data_packet() {
  net::TcpHeader tcp;
  tcp.src_port = 1234;
  tcp.dst_port = 80;
  return net::Packet::tcp(net::Ipv4Address(100, 64, 0, 10),
                          net::Ipv4Address(100, 64, 1, 10), tcp, 1000);
}

std::vector<Micro> registry() {
  std::vector<Micro> micros;

  micros.push_back({"lisp encapsulate", [] {
    const auto base = make_data_packet();
    return std::function<void(std::uint64_t)>([base](std::uint64_t iters) {
      for (std::uint64_t i = 0; i < iters; ++i) {
        net::Packet p = base;
        net::LispHeader shim;
        shim.nonce = 42;
        net::UdpHeader udp;
        udp.dst_port = net::ports::kLispData;
        net::Ipv4Header outer;
        outer.src = net::Ipv4Address(10, 0, 0, 1);
        outer.dst = net::Ipv4Address(10, 0, 1, 1);
        p.push_outer(shim);
        p.push_outer(udp);
        p.push_outer(outer);
        keep(p.wire_size());
      }
    });
  }});

  micros.push_back({"lisp decapsulate", [] {
    auto encapsulated = make_data_packet();
    encapsulated.push_outer(net::LispHeader{});
    encapsulated.push_outer(net::UdpHeader{});
    encapsulated.push_outer(net::Ipv4Header{});
    return std::function<void(std::uint64_t)>(
        [encapsulated](std::uint64_t iters) {
          for (std::uint64_t i = 0; i < iters; ++i) {
            net::Packet p = encapsulated;
            p.pop_outer();
            p.pop_outer();
            p.pop_outer();
            keep(p.inner_ip().dst);
          }
        });
  }});

  micros.push_back({"packet serialize", [] {
    auto p = make_data_packet();
    p.push_outer(net::LispHeader{});
    net::UdpHeader udp;
    udp.dst_port = net::ports::kLispData;
    p.push_outer(udp);
    net::Ipv4Header outer;
    outer.src = net::Ipv4Address(10, 0, 0, 1);
    outer.dst = net::Ipv4Address(10, 0, 1, 1);
    p.push_outer(outer);
    return std::function<void(std::uint64_t)>([p](std::uint64_t iters) {
      for (std::uint64_t i = 0; i < iters; ++i) keep(p.serialize());
    });
  }});

  for (const int sites : {64, 1024, 4096}) {
    micros.push_back({"map-cache hit/" + std::to_string(sites), [sites] {
      auto cache = std::make_shared<lisp::MapCache>();
      for (int i = 0; i < sites; ++i) {
        lisp::MapEntry entry;
        entry.eid_prefix = net::Ipv4Prefix(
            net::Ipv4Address(100, static_cast<std::uint8_t>(64 + i / 256),
                             static_cast<std::uint8_t>(i % 256), 0),
            24);
        entry.rlocs = {lisp::Rloc{net::Ipv4Address(10, 0, 0, 1), 1, 100, true}};
        cache->insert(entry, sim::SimTime::zero());
      }
      const auto now = sim::SimTime::zero() + sim::SimDuration::seconds(1);
      return std::function<void(std::uint64_t)>(
          [cache, now](std::uint64_t iters) {
            for (std::uint64_t i = 0; i < iters; ++i) {
              const net::Ipv4Address eid(
                  100, static_cast<std::uint8_t>(64 + ((i / 256) % 16)),
                  static_cast<std::uint8_t>(i % 256), 10);
              keep(cache->lookup(eid, now));
            }
          });
    }});
  }

  for (const int prefixes : {256, 4096, 65536}) {
    micros.push_back({"prefix-trie lookup/" + std::to_string(prefixes),
                      [prefixes] {
      auto trie = std::make_shared<net::PrefixTrie<int>>();
      sim::Rng rng(2);
      for (int i = 0; i < prefixes; ++i) {
        trie->insert(
            net::Ipv4Prefix(
                net::Ipv4Address(static_cast<std::uint32_t>(rng.engine()())),
                8 + static_cast<int>(rng.uniform_int(0, 16))),
            i);
      }
      return std::function<void(std::uint64_t)>([trie](std::uint64_t iters) {
        std::uint32_t probe = 0;
        for (std::uint64_t i = 0; i < iters; ++i) {
          keep(trie->lookup(net::Ipv4Address(probe)));
          probe += 2654435761u;
        }
      });
    }});
  }

  micros.push_back({"dns serialize", [] {
    auto m = dns::DnsMessage::answer(
        1, {dns::DomainName::from_string("h0.d5.example"), dns::RrType::kA},
        {dns::ResourceRecord::a(dns::DomainName::from_string("h0.d5.example"),
                                net::Ipv4Address(100, 64, 5, 10))},
        true);
    return std::function<void(std::uint64_t)>([m](std::uint64_t iters) {
      for (std::uint64_t i = 0; i < iters; ++i) {
        net::ByteWriter w(m->wire_size());
        m->serialize(w);
        keep(w.view().data());
      }
    });
  }});

  micros.push_back({"dns parse", [] {
    auto m = dns::DnsMessage::answer(
        1, {dns::DomainName::from_string("h0.d5.example"), dns::RrType::kA},
        {dns::ResourceRecord::a(dns::DomainName::from_string("h0.d5.example"),
                                net::Ipv4Address(100, 64, 5, 10))},
        true);
    net::ByteWriter w;
    m->serialize(w);
    const auto bytes = w.take();
    return std::function<void(std::uint64_t)>([bytes](std::uint64_t iters) {
      for (std::uint64_t i = 0; i < iters; ++i) {
        net::ByteReader r(bytes);
        keep(dns::DnsMessage::parse_wire(r));
      }
    });
  }});

  micros.push_back({"map-reply roundtrip", [] {
    lisp::MapEntry entry;
    entry.eid_prefix = net::Ipv4Prefix::from_string("100.64.1.0/24");
    entry.rlocs = {lisp::Rloc{net::Ipv4Address(10, 0, 1, 1), 1, 50, true},
                   lisp::Rloc{net::Ipv4Address(10, 0, 1, 2), 1, 50, true}};
    auto reply = std::make_shared<lisp::MapReply>(7, entry);
    return std::function<void(std::uint64_t)>([reply](std::uint64_t iters) {
      for (std::uint64_t i = 0; i < iters; ++i) {
        net::ByteWriter w(reply->wire_size());
        reply->serialize(w);
        auto bytes = w.take();
        net::ByteReader r(bytes);
        keep(lisp::MapReply::parse_wire(r));
      }
    });
  }});

  // Event-record allocation over the queue's live-window profile (~256 in
  // flight): a slab pool slot with an inline-capture action, the arena
  // layout sim::EventQueue uses.
  micros.push_back({"event alloc/arena", [] {
    struct PoolRecord {
      core::InlineFunction<void(), 88> action;
      bool cancelled = false;
      bool daemon = false;
    };
    return std::function<void(std::uint64_t)>([](std::uint64_t iters) {
      core::Pool<PoolRecord> pool;
      std::vector<std::uint32_t> live(256);
      for (auto& slot : live) {
        slot = pool.allocate();
        pool[slot].action = [] {};
      }
      std::size_t head = 0;
      for (std::uint64_t i = 0; i < iters; ++i) {
        pool.release(live[head]);
        const std::uint32_t index = pool.allocate();
        pool[index].action = [] {};
        live[head] = index;
        head = (head + 1) % live.size();
      }
      keep(pool.live());
    });
  }});

  // The prefix-index probe every received update record pays: a lookup in
  // a 16k-entry open-addressing core::FlatMap keyed by prefix, the layout
  // of BgpFabric's prefix index.
  {
    constexpr int kRoutes = 16384;
    const auto route_prefix = [](int i) {
      return net::Ipv4Prefix(
          net::Ipv4Address(100, static_cast<std::uint8_t>(i / 256),
                           static_cast<std::uint8_t>(i % 256), 0),
          24);
    };
    micros.push_back({"rib scan/flat", [route_prefix] {
      auto rib =
          std::make_shared<core::FlatMap<net::Ipv4Prefix, std::uint64_t>>();
      for (int i = 0; i < kRoutes; ++i) {
        rib->insert_or_assign(route_prefix(i), static_cast<std::uint64_t>(i));
      }
      return std::function<void(std::uint64_t)>(
          [rib, route_prefix](std::uint64_t iters) {
            std::uint64_t sum = 0;
            for (std::uint64_t i = 0; i < iters; ++i) {
              const auto* value =
                  rib->find(route_prefix(static_cast<int>((i * 40503u) % kRoutes)));
              if (value != nullptr) sum += *value;
            }
            keep(sum);
          });
    }});
  }

  // The policy layer's toll on the import+decide hot path: one speaker with
  // two customer sessions flapping a prefix (announce/withdraw), so every
  // iteration runs import processing, the full decision comparator, and a
  // best-route transition — with the session policy table detached (the
  // legacy code path) vs the Gao-Rexford role maps attached (route-map
  // evaluation + local-pref/community actions per advert).
  for (const bool policy_on : {false, true}) {
    micros.push_back(
        {std::string("bgp import+decide/") + (policy_on ? "policy-on" : "policy-off"),
         [policy_on] {
      auto graph = std::make_shared<routing::AsGraph>();
      graph->add_as(routing::AsNumber(1), routing::AsTier::kTier1);
      graph->add_as(routing::AsNumber(2), routing::AsTier::kStub);
      graph->add_as(routing::AsNumber(3), routing::AsTier::kStub);
      graph->add_customer_provider(routing::AsNumber(2), routing::AsNumber(1));
      graph->add_customer_provider(routing::AsNumber(3), routing::AsNumber(1));
      routing::BgpConfig config;
      if (policy_on) {
        config.policy = routing::policy::PolicyTable::gao_rexford(*graph);
      }
      auto fabric = std::make_shared<routing::BgpFabric>(*graph, config);
      const net::Ipv4Prefix prefix(net::Ipv4Address(100, 0, 0, 0), 20);
      // The standing alternative: AS3's equal-length path, beaten by AS2's
      // on the final ASN tiebreak whenever AS2's route is present.
      routing::UpdateMessage alt;
      alt.announces = {fabric->make_advert(prefix, {routing::AsNumber(3)})};
      fabric->speaker(routing::AsNumber(1))
          .handle_update(routing::AsNumber(3), alt);
      return std::function<void(std::uint64_t)>(
          [graph, fabric, prefix](std::uint64_t iters) {
            routing::BgpSpeaker& speaker =
                fabric->speaker(routing::AsNumber(1));
            routing::UpdateMessage announce;
            announce.announces = {
                fabric->make_advert(prefix, {routing::AsNumber(2)})};
            routing::UpdateMessage withdraw;
            withdraw.withdraws = {prefix};
            for (std::uint64_t i = 0; i < iters; ++i) {
              speaker.handle_update(routing::AsNumber(2),
                                    (i & 1) == 0 ? announce : withdraw);
            }
            keep(speaker.stats().best_changes);
          });
    }});
  }

  // The export leg on a 64-customer hub: one flap at the hub makes it
  // recompute the UPDATE once per update-group and fan the shared advert
  // out by reference to every session.
  micros.push_back({"export fanout/grouped", [] {
    auto graph = std::make_shared<routing::AsGraph>();
    graph->add_as(routing::AsNumber(1), routing::AsTier::kTransit);
    constexpr std::uint32_t kFanout = 64;
    for (std::uint32_t i = 0; i < kFanout; ++i) {
      const routing::AsNumber stub(10 + i);
      graph->add_as(stub, routing::AsTier::kStub);
      graph->add_customer_provider(stub, routing::AsNumber(1));
    }
    auto fabric = std::make_shared<routing::BgpFabric>(*graph);
    const net::Ipv4Prefix prefix(net::Ipv4Address(100, 0, 0, 0), 20);
    routing::UpdateMessage announce;
    announce.announces = {
        fabric->make_advert(prefix, {routing::AsNumber(10)})};
    routing::UpdateMessage withdraw;
    withdraw.withdraws = {prefix};
    return std::function<void(std::uint64_t)>(
        [graph, fabric, announce, withdraw](std::uint64_t iters) {
          routing::BgpSpeaker& hub = fabric->speaker(routing::AsNumber(1));
          for (std::uint64_t i = 0; i < iters; ++i) {
            hub.handle_update(routing::AsNumber(10),
                              (i & 1) == 0 ? announce : withdraw);
          }
          keep(hub.stats().routes_announced);
        });
  }});

  // Distributing one attribute set to 16 holders (the adj-in/loc-rib/
  // in-flight-advert copies one UPDATE spawns): intern the canonical node
  // once (steady-state hit: one hash probe, no allocation) and hand out
  // refcounted handles.
  {
    constexpr std::size_t kHolders = 16;
    const std::vector<routing::AsNumber> path{
        routing::AsNumber(64500), routing::AsNumber(64501),
        routing::AsNumber(64502), routing::AsNumber(64503),
        routing::AsNumber(64504), routing::AsNumber(64505)};
    const std::vector<routing::policy::Community> communities{0x00FF0001u,
                                                             0x00FF0002u};
    micros.push_back({"attr intern/ref", [path, communities] {
      auto table = std::make_shared<routing::AttrTable>();
      // Untimed: the first intern allocates the canonical node; the timed
      // loop measures the shared-hit path every later UPDATE takes.
      auto anchor = std::make_shared<routing::AttrRef>(
          table->intern(path, communities, 0));
      return std::function<void(std::uint64_t)>(
          [table, anchor, path, communities](std::uint64_t iters) {
            for (std::uint64_t i = 0; i < iters; ++i) {
              const routing::AttrRef ref = table->intern(path, communities, 0);
              for (std::size_t h = 0; h < kHolders; ++h) {
                const routing::AttrRef holder = ref;
                keep(holder.use_count());
              }
            }
          });
    }});
  }

  // One stub flap on the 1k-stub F2 Internet: the full-replay arm rebuilds
  // and re-converges the whole world around the flap (the pre-incremental
  // measurement model), the incremental arm applies two RouteDelta batches
  // to one long-lived converged fabric and replays only the dirty-prefix
  // cascade.  The ratio is the tentpole's speedup; check_bench.py gates it
  // at >= 5x under --ratchet.
  {
    routing::DfzStudyConfig study;
    study.internet.tier1_count = 4;
    study.internet.transit_count = 10;
    study.internet.providers_per_stub = 2;
    study.internet.stub_count = 1000;
    study.internet.seed = 7;

    micros.push_back({"flap reconverge/full-replay", [study] {
      routing::ChurnPlan plan;
      plan.events.push_back(routing::ChurnEvent::flap(0));
      return std::function<void(std::uint64_t)>(
          [study, plan](std::uint64_t iters) {
            for (std::uint64_t i = 0; i < iters; ++i) {
              keep(routing::run_churn_plan(study, plan).update_messages);
            }
          });
    }});

    micros.push_back({"flap reconverge/incremental", [study] {
      // Untimed: build and converge the world once.  The fabric holds a
      // reference to the graph, so one object owns both, graph first.
      struct World {
        explicit World(const routing::DfzStudyConfig& config)
            : graph(routing::build_synthetic_internet(config.internet)),
              fabric(graph, config.bgp) {}
        const routing::AsGraph graph;
        routing::BgpFabric fabric;
      };
      const auto world = std::make_shared<World>(study);
      const routing::AsGraph& graph = world->graph;
      std::vector<routing::RouteDelta> originations;
      const auto stubs = graph.ases_of_tier(routing::AsTier::kStub);
      for (routing::AsNumber asn : graph.ases()) {
        if (graph.tier(asn) == routing::AsTier::kStub) continue;
        originations.push_back(routing::RouteDelta::announce(
            asn, routing::provider_aggregate(asn)));
      }
      for (std::size_t i = 0; i < stubs.size(); ++i) {
        originations.push_back(routing::RouteDelta::announce(
            stubs[i], routing::stub_site_prefixes(i, 1).front()));
      }
      world->fabric.apply(originations);
      world->fabric.run_to_convergence();
      const routing::AsNumber mover = stubs.front();
      const net::Ipv4Prefix prefix = routing::stub_site_prefixes(0, 1).front();
      return std::function<void(std::uint64_t)>(
          [world, mover, prefix](std::uint64_t iters) {
            routing::BgpFabric& fabric = world->fabric;
            for (std::uint64_t i = 0; i < iters; ++i) {
              fabric.apply({routing::RouteDelta::withdraw(mover, prefix)});
              fabric.run_to_convergence();
              fabric.apply({routing::RouteDelta::announce(mover, prefix)});
              fabric.run_to_convergence();
              keep(fabric.last_run_events());
            }
          });
    }});
  }

  micros.push_back({"event-queue schedule+fire", [] {
    return std::function<void(std::uint64_t)>([](std::uint64_t iters) {
      sim::EventQueue queue;
      std::int64_t t = 0;
      sim::Rng rng(3);
      for (std::uint64_t i = 0; i < iters; ++i) {
        // Keep ~1k events in flight, firing the earliest each iteration.
        queue.schedule(
            sim::SimTime::from_ns(t + static_cast<std::int64_t>(
                                          rng.uniform_int(1, 1'000'000))),
            [] {});
        if (queue.size() > 1000) {
          sim::EventQueue::Fired fired;
          queue.pop(fired);
          t = fired.time.ns();
        }
      }
    });
  }});

  for (const int n : {1024, 65536}) {
    micros.push_back({"zipf sample/" + std::to_string(n), [n] {
      auto zipf = std::make_shared<sim::ZipfDistribution>(
          static_cast<std::size_t>(n), 0.9);
      return std::function<void(std::uint64_t)>([zipf](std::uint64_t iters) {
        sim::Rng rng(4);
        for (std::uint64_t i = 0; i < iters; ++i) keep((*zipf)(rng));
      });
    }});
  }

  for (const int bytes : {20, 1500}) {
    micros.push_back({"checksum/" + std::to_string(bytes), [bytes] {
      auto data = std::make_shared<std::vector<std::byte>>(
          static_cast<std::size_t>(bytes), std::byte{0xA5});
      return std::function<void(std::uint64_t)>([data](std::uint64_t iters) {
        for (std::uint64_t i = 0; i < iters; ++i) {
          keep(net::internet_checksum(*data));
        }
      });
    }});
  }

  micros.push_back({"pcep request roundtrip", [] {
    auto request = std::make_shared<pcep::MapComputationRequest>(
        7, net::Ipv4Address(100, 64, 1, 10));
    return std::function<void(std::uint64_t)>([request](std::uint64_t iters) {
      for (std::uint64_t i = 0; i < iters; ++i) {
        net::ByteWriter w;
        request->serialize(w);
        net::ByteReader r(w.view());
        keep(pcep::parse_message(r));
      }
    });
  }});

  micros.push_back({"pcep reply roundtrip", [] {
    lisp::MapEntry entry;
    entry.eid_prefix = net::Ipv4Prefix(net::Ipv4Address(100, 64, 1, 0), 24);
    for (int i = 0; i < 4; ++i) {
      entry.rlocs.push_back(lisp::Rloc{
          net::Ipv4Address(10, 0, 0, static_cast<std::uint8_t>(i + 1)), 1, 25,
          true});
    }
    auto reply = std::make_shared<pcep::MapComputationReply>(7, entry);
    return std::function<void(std::uint64_t)>([reply](std::uint64_t iters) {
      for (std::uint64_t i = 0; i < iters; ++i) {
        net::ByteWriter w;
        reply->serialize(w);
        net::ByteReader r(w.view());
        keep(pcep::parse_message(r));
      }
    });
  }});

  for (const int entries : {1, 16, 64}) {
    micros.push_back({"map-register roundtrip/" + std::to_string(entries),
                      [entries] {
      std::vector<lisp::MapEntry> list(static_cast<std::size_t>(entries));
      for (std::size_t i = 0; i < list.size(); ++i) {
        list[i].eid_prefix = net::Ipv4Prefix(
            net::Ipv4Address(
                static_cast<std::uint32_t>((100u << 24) | (i << 8))),
            24);
        list[i].rlocs = {
            lisp::Rloc{net::Ipv4Address(10, 0, 0, 1), 1, 100, true}};
      }
      auto reg = std::make_shared<lisp::MapRegister>(1, 180, list);
      return std::function<void(std::uint64_t)>([reg](std::uint64_t iters) {
        for (std::uint64_t i = 0; i < iters; ++i) {
          net::ByteWriter w;
          reg->serialize(w);
          net::ByteReader r(w.view());
          keep(lisp::MapRegister::parse_wire(r));
        }
      });
    }});
  }

  return micros;
}

/// Grows the iteration count geometrically until the body fills the time
/// budget, then reports the final timing.
void time_micro(const std::function<void(std::uint64_t)>& body,
                double budget_ns, Record& record) {
  using clock = std::chrono::steady_clock;
  std::uint64_t iters = 1;
  for (;;) {
    const auto t0 = clock::now();
    body(iters);
    const double elapsed_ns = static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(clock::now() - t0)
            .count());
    if (elapsed_ns >= budget_ns || iters >= (std::uint64_t{1} << 30)) {
      record.set_int("iters", iters);
      record.set_real("ns/op", elapsed_ns / static_cast<double>(iters), 1);
      return;
    }
    iters *= 4;
  }
}

void series_micro(bench::BenchContext& ctx) {
  // --filter can name (part of) a micro ("trie", "map-cache/4096"):
  // BenchContext only matches series and control-plane names, so narrow
  // the axis here ourselves.
  const std::string& filter = ctx.options().filter;
  bool micro_filter = false;
  if (!filter.empty()) {
    for (const Micro& micro : registry()) {
      if (micro.name.find(filter) != std::string::npos) {
        micro_filter = true;
        break;
      }
    }
  }
  if (!ctx.enabled("M1a") && !micro_filter) return;
  std::cout << "\n-- M1a: per-operation costs (wall clock) --\n";
  const double budget_ns = ctx.quick() ? 2e6 : 5e7;

  std::vector<std::pair<std::string, std::function<void(ExperimentConfig&)>>>
      points;
  for (const Micro& micro : registry()) {
    if (micro_filter && micro.name.find(filter) == std::string::npos) continue;
    points.emplace_back(micro.name, [](ExperimentConfig&) {});
  }
  SweepSpec spec;
  spec.named("M1a").axis(Axis::labeled("micro", std::move(points)));

  Runner runner(std::move(spec));
  runner.execute([budget_ns](const RunPoint& point, Record& record) {
    const std::string& name = point.coordinates.front().second.as_text();
    for (const Micro& micro : registry()) {
      if (micro.name != name) continue;
      time_micro(micro.setup(), budget_ns, record);
      return;
    }
  });
  ctx.run(runner).table().print(std::cout);
}

}  // namespace
}  // namespace lispcp

int main(int argc, char** argv) {
  auto ctx =
      lispcp::bench::BenchContext("M1", lispcp::bench::parse_cli(argc, argv));
  lispcp::bench::print_header(
      "M1", "microbenchmarks: per-packet and per-message costs",
      "the \"line rate\" assumptions: encap/decap, cache and LPM lookups, "
      "(de)serialization, event dispatch");
  lispcp::series_micro(ctx);
  lispcp::bench::print_footer(
      "ns/op is wall-clock and host-dependent; CI pins the artifact schema, "
      "not the values.  Run without --quick (and --jobs 1) for stable "
      "numbers.");
  ctx.finish();
  return 0;
}
