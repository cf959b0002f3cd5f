// aggregate.hpp — the flow-aggregate workload engine.
//
// One simulator event per *epoch* (default 500 ms) instead of one per
// packet: each epoch draws the number of new flows from the Poisson arrival
// process, buckets them over destinations by the same Zipf popularity the
// per-packet generator uses, and evaluates the paper-§1 session model in
// closed form per (destination, epoch) batch:
//
//   T_DNS     — modeled from the real topology's path delays and the
//               resolver/server cache behaviour (positive records 300 s,
//               referral records effectively run-long), cold legs paid by
//               the first flow of a cold window.
//   map-cache — *real*: batches probe the source ITR's MapCache through
//               TunnelRouter::aggregate_lookup (one LPM walk per batch,
//               per-flow stats), and misses drive the *real* control plane
//               through TunnelRouter::aggregate_resolve — Map-Requests,
//               overlay hops and pushes are genuine simulator events, so
//               resolution latency is measured, not assumed.
//   drops     — on resolution completion at Tc, the fraction of backlogged
//               flows that arrived before Tc takes the miss-policy penalty:
//               kDrop costs one RFC 2988 SYN RTO, kQueue costs the measured
//               queueing delay (capacity-capped, overflow behaves as kDrop).
//   TE splits — per-flow ingress choice via the real IrcEngine; forward and
//               reverse wire bytes are credited onto the real provider
//               sim::Links so the E4 probes and the IRC's own load feedback
//               work identically in both modes.
//
// Scope: the engine reproduces the comparative metrics of e1/e3/e4 (drop
// rates, setup latency, TE splits) at scales per-packet simulation cannot
// reach.  Nonce-level protocol behaviour (RLOC probing, failure injection,
// pce_on_demand transport, per-packet loss) still requires packet mode —
// see DESIGN.md "Flow-aggregate workloads" for the model's derivations and
// stated approximations.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/flat_map.hpp"
#include "irc/irc_engine.hpp"
#include "lisp/tunnel_router.hpp"
#include "net/flow.hpp"
#include "sim/link.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "workload/generator.hpp"
#include "workload/session.hpp"
#include "workload/traffic.hpp"

namespace lispcp::workload {

/// The destination side of the topology, built once per experiment and
/// shared by every source's engine.  Delays are one-way to a hub every path
/// between two domains crosses (topo::Internet's transit core), so the
/// engine composes a source-to-destination delay as source-to-hub plus
/// hub-to-destination; scenario::Experiment checks that no two domains
/// meet anywhere but the hub, which makes the sum exact.  Pointers are
/// non-owning and must outlive the engines.
struct AggregateDestinations {
  struct Peer {  ///< one destination domain
    /// Primary border router; read only when the source runs LISP.
    lisp::TunnelRouter* xtr = nullptr;
    const irc::IrcEngine* irc = nullptr; ///< inbound-TE engine (PCE only)
    sim::SimDuration host_to_hub;        ///< host 0 -> hub
    sim::SimDuration auth_to_hub;        ///< authoritative server -> hub
    sim::SimDuration auth_processing;    ///< authoritative server
    /// The domain's PCE processing delay, when it runs one: under the
    /// PCE the authoritative answer detours through both PCEs (Step 6).
    std::optional<sim::SimDuration> pce_processing;
  };
  std::vector<Peer> peers;  ///< indexed by domain

  struct Host {
    net::Ipv4Address eid;
    net::Ipv4Prefix registered_prefix;  ///< the site mapping covering `eid`
  };
  std::vector<Host> hosts;  ///< [domain * hosts_per_domain + host]
};

/// Everything the engine needs to know about the built topology, assembled
/// by scenario::Experiment (the layer that can see topo::Internet) so the
/// engine itself stays topology-agnostic.  All pointers are non-owning and
/// must outlive the engine.
struct AggregateWorld {
  sim::Simulator* sim = nullptr;
  WorkloadMetrics* metrics = nullptr;

  // -- Source-domain side ---------------------------------------------------
  /// The egress xTR (where the internal default route points).  Null for
  /// the plain-IP baseline: no encapsulation, no misses.
  lisp::TunnelRouter* itr = nullptr;
  /// The domain's IRC engine (PCE control plane): chooses the reverse
  /// ingress per flow.  Null otherwise (reverse enters via the egress RLOC,
  /// as gleaning forces in vanilla LISP).
  irc::IrcEngine* source_irc = nullptr;

  struct Uplink {
    sim::Link* link = nullptr;
    sim::NodeId xtr_node;  ///< domain-side endpoint (direction selector)
    lisp::TunnelRouter* xtr = nullptr;
    net::Ipv4Address rloc;
  };
  /// Provider links of the source domain; index 0 is the egress.
  std::vector<Uplink> uplinks;

  lisp::MissPolicy miss_policy = lisp::MissPolicy::kDrop;
  std::size_t queue_capacity_per_eid = 16;
  /// kPce: mappings are pushed to the ITR when the DNS query is observed
  /// (Step 6 snooping), so flows never miss; reverse ingress follows the
  /// remote IRC's current site mapping.
  bool pce_push = false;

  // -- Host model (mirrors workload::HostConfig) ----------------------------
  sim::SimDuration syn_rto = sim::SimDuration::seconds(3);
  int max_syn_retries = 4;
  net::FlowWireModel wire;
  /// Per-crossing processing overhead when LISP-encapsulated (encap at the
  /// ITR plus decap at the ETR).
  sim::SimDuration xtr_crossing_delay;

  // -- DNS model ------------------------------------------------------------
  /// Warm resolution: client<->resolver round trip + resolver processing.
  sim::SimDuration dns_warm;
  /// Iterative legs (resolver<->server round trip + server processing),
  /// paid only while the corresponding referral/record is uncached.
  sim::SimDuration dns_leg_root;
  sim::SimDuration dns_leg_tld;
  std::uint32_t dns_record_ttl_seconds = 300;
  std::uint32_t dns_referral_ttl_seconds = 3600;

  /// One-way delays from the source's client host 0 and from its resolver
  /// to the hub of `destinations`.
  sim::SimDuration client_to_hub;
  sim::SimDuration resolver_to_hub;
  /// The source domain's PCE processing delay, when it runs one.
  std::optional<sim::SimDuration> pce_processing;

  // -- Destination side -----------------------------------------------------
  std::shared_ptr<const AggregateDestinations> destinations;
  /// Zipf rank -> destination host (indexes destinations->hosts).
  DestinationRanks ranks;
  std::shared_ptr<const sim::ZipfDistribution> zipf;  ///< over ranks.size()
};

class FlowAggregateEngine final : public Traffic {
 public:
  FlowAggregateEngine(AggregateWorld world, TrafficConfig config, sim::Rng rng);

  void start() override;
  [[nodiscard]] Mode mode() const noexcept override { return Mode::kAggregate; }
  [[nodiscard]] std::uint64_t sessions_launched() const noexcept override {
    return launched_;
  }

 private:
  /// One (destination, epoch) batch.  DNS bookkeeping splits the flows into
  /// three groups, mirroring what the real resolver does to a burst hitting
  /// a cold name: one *trigger* pays the full iterative latency, the
  /// *waiters* (arrivals while the query is in flight) coalesce and pay the
  /// mean residual, and the rest hit the warm positive cache.  The trigger
  /// and waiters all receive their answer at the same instant (`itr_at`), so
  /// they reach the ITR as one burst — which is exactly the cohort that a
  /// cold map-cache drops or queues together in packet mode.
  struct Batch {
    sim::SimTime start;        ///< epoch begin; arrivals uniform over epoch
    std::uint64_t flows = 0;
    std::uint64_t cold_dns = 0;    ///< flows that paid the full cold legs
    sim::SimDuration t_dns_cold;   ///< the trigger's latency
    std::uint64_t dns_waiters = 0; ///< flows coalesced onto the query
    sim::SimDuration t_dns_wait;   ///< their mean residual latency
    sim::SimTime itr_at;           ///< when the batch's first SYN hits the ITR
  };

  struct DestState {
    sim::SimTime dns_positive_until;  ///< modeled resolver positive cache
    sim::SimTime dns_ready_at;        ///< when the in-flight query completes
    bool resolving = false;
    double settle_residue = 0.0;    ///< fractional-flow rounding carry
    double dns_wait_residue = 0.0;  ///< same, for the coalesced-waiter count
    std::vector<Batch> backlog;
  };

  void epoch();
  void process(std::size_t rank, std::uint64_t flows);
  void settle(std::size_t rank, bool resolved);

  /// Books one batch of successful sessions against destination `rank`:
  /// latencies into the metrics sink (per DNS group), packets/bytes onto
  /// the ITR, the remote xTR and the provider links.  `penalty` is added to
  /// both T_connect and T_setup (SYN RTO or queueing delay).  `overlay_syns`
  /// of the flows sent their SYN via the mapping overlay instead of
  /// encapsulating it (kForwardOverlay).
  void complete(std::size_t rank, const Batch& batch, sim::SimDuration penalty,
                bool retransmitted, std::uint64_t overlay_syns = 0);
  /// Books one batch of failed sessions (resolution gave up; every SYN
  /// retry dropped at the ITR).
  void fail(const Batch& batch);

  /// Splits the front `take` flows off `batch` into a new Batch, taking the
  /// DNS cohort (trigger, then waiters) first — they are the earliest
  /// arrivals at the ITR, so penalty splits peel them preferentially.
  [[nodiscard]] static Batch split_front(Batch& batch, std::uint64_t take);

  /// T_DNS of a cold resolution right now (updates the modeled caches).
  [[nodiscard]] sim::SimDuration cold_dns_latency(std::size_t rank);

  /// The destination domain of `rank`.
  [[nodiscard]] const AggregateDestinations::Peer& peer_of(
      std::size_t rank) const {
    return world_.destinations->peers[world_.ranks.domain(rank)];
  }
  /// The destination host of `rank`.
  [[nodiscard]] const AggregateDestinations::Host& host_of(
      std::size_t rank) const {
    return world_.destinations->hosts[world_.ranks.slot(rank)];
  }

  /// Deterministic fractional rounding with carry in `residue`.
  [[nodiscard]] static std::uint64_t round_with_residue(double& residue,
                                                        double want,
                                                        std::uint64_t cap);

  AggregateWorld world_;
  TrafficConfig config_;
  sim::Rng rng_;
  sim::SimDuration epoch_len_;
  sim::SimTime end_time_;
  std::uint64_t launched_ = 0;

  // Per-destination state exists only for the destinations this source has
  // touched: a source starts a few dozen sessions in a run that could reach
  // thousands of destinations.
  core::FlatMap<std::uint32_t, DestState> dest_states_;  ///< by rank
  /// Modeled resolver referral cache (one resolver per source domain).  A
  /// referral only becomes usable when the upstream answer carrying it
  /// lands (`ready`), so resolutions racing ahead of that — a cold burst
  /// fanning out over many names — each walk the upper tiers themselves,
  /// exactly as the real resolver's per-name tasks do.
  struct ReferralCache {
    sim::SimTime ready;   ///< when the referral lands in the cache
    sim::SimTime expiry;  ///< ready + referral TTL
    [[nodiscard]] bool cached(sim::SimTime now) const noexcept {
      return now >= ready && now < expiry;
    }
  };
  ReferralCache tld_referral_;
  core::FlatMap<std::uint32_t, ReferralCache> auth_referral_;  ///< by domain

  // Epoch scratch: flows per rank drawn this epoch (entries persist at 0
  // between epochs, so it is sized by the ranks ever drawn) and the ranks
  // in first-draw order.
  core::FlatMap<std::uint32_t, std::uint32_t> epoch_counts_;
  std::vector<std::uint32_t> touched_;
};

}  // namespace lispcp::workload
