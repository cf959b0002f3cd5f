#include "layers.hpp"

#include <array>

namespace lispcp::benchmark {

namespace {

/// Every counter in declaration order (the fingerprint's byte order).
template <typename Counts>
[[nodiscard]] auto fields(Counts& c) {
  return std::array{&c.sim_events,          &c.forwarded,
                    &c.delivered,           &c.cache_lookups,
                    &c.cache_hits,          &c.cache_evictions,
                    &c.encapsulated,        &c.miss_events,
                    &c.map_requests_sent,   &c.queue_flushed,
                    &c.control_messages,    &c.dns_client_queries,
                    &c.dns_cache_hits,      &c.dns_cache_misses,
                    &c.dns_upstream_queries, &c.pce_replies_snooped,
                    &c.pce_tuples_pushed,   &c.pce_flows_configured};
}

[[nodiscard]] double d(std::uint64_t v) { return static_cast<double>(v); }

}  // namespace

LayerCounts& LayerCounts::operator+=(const LayerCounts& o) {
  const auto mine = fields(*this);
  const auto theirs = fields(o);
  for (std::size_t i = 0; i < mine.size(); ++i) *mine[i] += *theirs[i];
  return *this;
}

void LayerCounts::hash_into(Fnv1a& h) const {
  for (const std::uint64_t* v : fields(*this)) h.u64(*v);
}

LayerCounts read_layers(topo::Internet& net) {
  LayerCounts c;
  c.sim_events = net.sim().events_processed();
  c.forwarded = net.network().counters().forwarded;
  c.delivered = net.network().counters().delivered;
  c.control_messages = net.mapping_system().stats().control_messages;
  for (const topo::DomainHandle& dom : net.domains()) {
    for (const lisp::TunnelRouter* xtr : dom.xtrs) {
      const lisp::MapCacheStats& cache = xtr->cache().stats();
      c.cache_lookups += cache.lookups;
      c.cache_hits += cache.hits;
      c.cache_evictions += cache.evictions;
      const lisp::XtrStats& stats = xtr->stats();
      c.encapsulated += stats.encapsulated;
      c.miss_events += stats.miss_events;
      c.map_requests_sent += stats.map_requests_sent;
      c.queue_flushed += stats.queue_flushed;
    }
    const dns::ResolverStats& dns = dom.resolver->stats();
    c.dns_client_queries += dns.client_queries;
    c.dns_cache_hits += dns.cache_hits;
    c.dns_cache_misses += dns.cache_misses;
    c.dns_upstream_queries += dns.upstream_queries;
    if (dom.pce != nullptr) {
      const core::PceStats& pce = dom.pce->stats();
      c.pce_replies_snooped += pce.dns_replies_snooped;
      c.pce_tuples_pushed += pce.tuples_pushed;
      c.pce_flows_configured += pce.flows_configured;
    }
  }
  return c;
}

void put_packet_layers(Metrics& m, const LayerCounts& c, double sessions,
                       double run_s) {
  m.set("sim.events", d(c.sim_events));
  m.set("sim.events_per_session", ratio(d(c.sim_events), sessions));
  m.set("sim.ns_per_event", ratio(run_s * 1e9, d(c.sim_events)));
  m.set("net.forwarded_per_session", ratio(d(c.forwarded), sessions));
  m.set("net.delivered_per_session", ratio(d(c.delivered), sessions));
  m.set("lisp.map_cache.lookups", d(c.cache_lookups));
  m.set("lisp.map_cache.hit_ratio", ratio(d(c.cache_hits), d(c.cache_lookups)));
  m.set("lisp.map_cache.evictions", d(c.cache_evictions));
  m.set("lisp.xtr.encapsulated", d(c.encapsulated));
  m.set("lisp.xtr.miss_events", d(c.miss_events));
  m.set("lisp.xtr.map_requests_sent", d(c.map_requests_sent));
  m.set("lisp.xtr.queue_flushed", d(c.queue_flushed));
  m.set("mapping.control_messages", d(c.control_messages));
  m.set("dns.resolver.client_queries", d(c.dns_client_queries));
  m.set("dns.resolver.cache_hit_ratio",
        ratio(d(c.dns_cache_hits), d(c.dns_cache_hits + c.dns_cache_misses)));
  m.set("dns.resolver.upstream_queries", d(c.dns_upstream_queries));
  m.set("core.pce.dns_replies_snooped", d(c.pce_replies_snooped));
  m.set("core.pce.tuples_pushed", d(c.pce_tuples_pushed));
  m.set("core.pce.flows_configured", d(c.pce_flows_configured));
}

}  // namespace lispcp::benchmark
