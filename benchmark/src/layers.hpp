// layers.hpp — the packet-side layer counters one Experiment leaves behind,
// read through public stats() getters and shared by the Experiment and
// sweep workloads.
#pragma once

#include <cstdint>

#include "common.hpp"
#include "topo/internet.hpp"

namespace lispcp::benchmark {

struct LayerCounts {
  std::uint64_t sim_events = 0;
  std::uint64_t forwarded = 0;
  std::uint64_t delivered = 0;
  std::uint64_t cache_lookups = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_evictions = 0;
  std::uint64_t encapsulated = 0;
  std::uint64_t miss_events = 0;
  std::uint64_t map_requests_sent = 0;
  std::uint64_t queue_flushed = 0;
  std::uint64_t control_messages = 0;
  std::uint64_t dns_client_queries = 0;
  std::uint64_t dns_cache_hits = 0;
  std::uint64_t dns_cache_misses = 0;
  std::uint64_t dns_upstream_queries = 0;
  std::uint64_t pce_replies_snooped = 0;
  std::uint64_t pce_tuples_pushed = 0;
  std::uint64_t pce_flows_configured = 0;

  LayerCounts& operator+=(const LayerCounts& o);
  void hash_into(Fnv1a& h) const;
};

/// Sums every domain's counters (sim, net, lisp, mapping, dns, core).
[[nodiscard]] LayerCounts read_layers(topo::Internet& net);

/// Writes the packet-side per-layer metrics: `sessions` simulated sessions
/// produced the counts `c` in `run_s` wall seconds of Experiment::run.
void put_packet_layers(Metrics& m, const LayerCounts& c, double sessions,
                       double run_s);

}  // namespace lispcp::benchmark
