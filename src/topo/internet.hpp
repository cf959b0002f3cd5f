// internet.hpp — emulated multi-AS Internet topologies.
//
// Builds the paper's evaluation substrate: a transit core, N LISP domains
// (each with end-hosts, an internal router, one border xTR per provider, a
// caching resolver, an authoritative DNS server, and — under the PCE control
// plane — a PCE fronting both DNS servers, exactly as in Fig. 1), a DNS
// root/TLD hierarchy, and whichever mapping system the spec selects.
//
// The mapping system itself is pluggable: `InternetSpec::kind` names a
// mapping::ControlPlaneKind, the mapping::MappingSystemFactory instantiates
// the matching mapping::MappingSystem, and build() drives its lifecycle
// (configure_xtr / attach_domain_dns / build / register_site / attach_itr /
// activate).  The topology builder contains no per-system branching; adding
// a control plane is a factory registration, not a change here.
//
// Routing reproduces the LISP premise: provider (RLOC) space and DNS/PCE
// infrastructure are globally routable; domain EID prefixes are routable
// only inside their own domain, so an un-encapsulated EID packet reaching
// the core is dropped ("no route") — which is why a mapping system exists.
// The address plan lives in topo/address_plan.hpp.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/control_plane.hpp"
#include "core/failover.hpp"
#include "core/pce.hpp"
#include "dns/resolver.hpp"
#include "dns/server.hpp"
#include "irc/irc_engine.hpp"
#include "lisp/tunnel_router.hpp"
#include "mapping/map_server.hpp"
#include "mapping/mapping_system.hpp"
#include "mapping/nerd.hpp"
#include "mapping/overlay_router.hpp"
#include "mapping/registry.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"
#include "topo/blueprint.hpp"
#include "workload/host.hpp"
#include "workload/session.hpp"
#include "workload/traffic.hpp"

namespace lispcp::topo {

/// The compared control planes are defined (and extended) in the mapping
/// layer; the topology re-exports the names for convenience.
using ControlPlaneKind = mapping::ControlPlaneKind;
using mapping::to_string;

struct InternetSpec {
  std::size_t domains = 2;
  std::size_t hosts_per_domain = 2;
  std::size_t providers_per_domain = 1;  ///< multihoming degree = xTR count

  /// Which workload engine the scenario layer will drive over this topology.
  /// The topology itself is identical in both modes; the mode lifts the
  /// domain-count ceiling (per-packet simulation is capped at 512 domains,
  /// flow-aggregate scales to 16384) and is carried here so sweeps can flip
  /// it declaratively per point.
  workload::Mode workload_mode = workload::Mode::kPacket;

  // Latency knobs (2008-era defaults; see DESIGN.md calibration note).
  sim::SimDuration core_link_delay = sim::SimDuration::millis(20);
  sim::SimDuration intra_domain_delay = sim::SimDuration::micros(200);
  sim::SimDuration dns_infra_delay = sim::SimDuration::millis(5);
  sim::SimDuration overlay_link_delay = sim::SimDuration::millis(10);

  double access_bandwidth_bps = 100e6;  ///< provider links (TE bottleneck)
  double core_bandwidth_bps = 10e9;
  double lan_bandwidth_bps = 1e9;
  /// Random loss probability on provider access links (failure injection:
  /// exercises DNS retry and TCP retransmission recovery paths).
  double access_loss = 0.0;

  // LISP knobs.
  std::size_t cache_capacity = 0;  ///< ITR map-cache entries (0 = unlimited)
  std::uint32_t mapping_ttl_seconds = 900;
  lisp::MissPolicy miss_policy = lisp::MissPolicy::kDrop;

  /// Prefix de-aggregation factor (the paper's closing observation about
  /// Latin America's "world's largest IPv4 de-aggregation factor"): each
  /// site registers its /24 EID block as this many more-specific mappings
  /// instead of one aggregate.  Power of two in [1, 64].  Multiplies the
  /// mapping-system state (overlay routes, NERD database, cache entries)
  /// without changing the traffic — see bench/f1_deaggregation.
  std::size_t deaggregation_factor = 1;

  /// Mapping-system selection: the factory builds this kind.  The default
  /// is the degenerate no-distribution baseline; use preset() (or set the
  /// field) to select a real control plane.
  ControlPlaneKind kind = ControlPlaneKind::kNoMapping;

  // ALT/CONS overlay knobs.
  std::size_t overlay_fanout = 8;

  // Map-Server system knobs (draft-lisp-ms).
  std::size_t map_server_count = 2;     ///< domains shard across these
  bool ms_proxy_reply = false;          ///< MS answers from the registration
  std::uint32_t ms_registration_ttl_seconds = 180;
  sim::SimDuration ms_refresh_interval = sim::SimDuration::seconds(60);
  /// Replicated Map-Resolver tier (kMsReplicated): resolver replicas placed
  /// in evenly spaced home domains; ITRs pull from the nearest one.  More
  /// replicas than domains makes no placement sense, so the system clamps
  /// to `domains` — read the built count off Internet::map_resolvers().
  std::size_t ms_replica_count = 4;

  // PCE / IRC knobs.
  irc::TePolicy te_policy = irc::TePolicy::kLeastLoaded;
  bool pce_snoop = true;          ///< ablation A2
  /// Ablation A5: acquire mappings by explicit PCEP request/reply (one
  /// PCE-to-PCE RTT after the DNS answer) instead of Step-6 snooping.
  /// Typically combined with pce_snoop = false to isolate the transport.
  bool pce_on_demand = false;
  bool pce_push_all_itrs = true;  ///< ablation A1
  bool multicast_reverse = true;  ///< ablation A3

  sim::SimDuration nerd_push_interval = sim::SimDuration::seconds(60);

  std::uint64_t seed = 1;

  /// Canonical settings for each compared control plane, applied through
  /// the factory registration (so presets extend with registered kinds).
  static InternetSpec preset(ControlPlaneKind kind);
};

/// One built LISP domain and its components (non-owning pointers into the
/// Network, valid for the Internet's lifetime).
struct DomainHandle {
  std::size_t index = 0;
  std::string name;            ///< "d3"
  dns::DomainName zone;        ///< d3.example
  net::Ipv4Prefix eid_prefix;
  std::vector<workload::Host*> hosts;
  std::vector<lisp::TunnelRouter*> xtrs;
  std::vector<sim::Link*> provider_links;  ///< xTR <-> core, index-aligned
  sim::Node* internal_router = nullptr;
  dns::DnsResolver* resolver = nullptr;
  dns::DnsServer* authoritative = nullptr;
  /// The site's registered mapping records (possibly de-aggregated), as
  /// fed to the mapping system.
  std::vector<lisp::MapEntry> registered_entries;
  core::Pce* pce = nullptr;
  std::unique_ptr<irc::IrcEngine> irc;
  std::unique_ptr<core::PceControlPlane> control_plane;
  std::unique_ptr<core::FailoverController> failover;
};

class Internet {
 public:
  explicit Internet(InternetSpec spec);

  [[nodiscard]] sim::Simulator& sim() noexcept { return sim_; }
  [[nodiscard]] sim::Network& network() noexcept { return network_; }
  [[nodiscard]] const InternetSpec& spec() const noexcept { return spec_; }
  [[nodiscard]] std::vector<DomainHandle>& domains() noexcept { return domains_; }
  [[nodiscard]] DomainHandle& domain(std::size_t i) { return domains_.at(i); }
  [[nodiscard]] mapping::MappingRegistry& registry() noexcept { return registry_; }
  [[nodiscard]] workload::WorkloadMetrics& metrics() noexcept { return metrics_; }
  [[nodiscard]] sim::Node& core_router() noexcept { return *core_; }

  /// The mapping system the factory built for spec().kind.
  [[nodiscard]] mapping::MappingSystem& mapping_system() noexcept {
    return *system_;
  }

  /// The infrastructure the mapping system published while building
  /// (mutable: MappingSystem implementations fill it in build()).
  struct MappingInfra {
    mapping::NerdAuthority* nerd = nullptr;
    std::vector<mapping::MapServer*> map_servers;
    std::vector<mapping::MapResolver*> map_resolvers;
    std::vector<std::unique_ptr<mapping::EtrRegistrar>> registrars;
    std::vector<mapping::OverlayRouter*> overlay_routers;
  };
  [[nodiscard]] MappingInfra& mapping_infra() noexcept { return infra_; }

  [[nodiscard]] mapping::NerdAuthority* nerd() noexcept { return infra_.nerd; }
  [[nodiscard]] const std::vector<mapping::MapServer*>& map_servers() const noexcept {
    return infra_.map_servers;
  }
  [[nodiscard]] const std::vector<mapping::MapResolver*>& map_resolvers() const noexcept {
    return infra_.map_resolvers;
  }
  [[nodiscard]] const std::vector<std::unique_ptr<mapping::EtrRegistrar>>&
  registrars() const noexcept {
    return infra_.registrars;
  }
  [[nodiscard]] const std::vector<mapping::OverlayRouter*>& overlay() const noexcept {
    return infra_.overlay_routers;
  }

  /// Arms automatic failure detection and TE recovery for domain `d`
  /// (requires the PCE control plane): one BFD-style monitor per border
  /// link, echoing off the core, wired to the standard routing adapter that
  /// moves the internal default and the core-side infra route onto a
  /// surviving border router.  Returns the controller (owned by the
  /// DomainHandle).  See bench/a4_failure_recovery.
  core::FailoverController& arm_failover(std::size_t d,
                                         core::LinkHealthConfig health = {});

  /// The shared DNS hierarchy (the aggregate workload engine computes its
  /// iterative-resolution legs from these nodes' positions).
  [[nodiscard]] dns::DnsServer& root_dns() noexcept { return *root_dns_; }
  [[nodiscard]] dns::DnsServer& tld_dns() noexcept { return *tld_dns_; }

  /// The shape-keyed immutable tables this Internet built for itself (a
  /// shared_ptr so the packet engine's host-name table can alias it).
  [[nodiscard]] const std::shared_ptr<const Blueprint>& blueprint() const noexcept {
    return blueprint_;
  }

  /// DNS name of host h in domain d: "h<h>.d<d>.example".
  [[nodiscard]] dns::DomainName host_name(std::size_t domain, std::size_t host) const;

  /// EID of host h in domain d.  Hosts are spread across the domain's /24 so
  /// de-aggregated sub-prefixes all see traffic.
  [[nodiscard]] net::Ipv4Address host_eid(std::size_t domain, std::size_t host) const;

  /// The mapping prefixes domain d registers: its /24 when
  /// deaggregation_factor == 1, otherwise that many more-specifics.
  [[nodiscard]] std::vector<net::Ipv4Prefix> site_prefixes(std::size_t domain) const;

  /// Names of every host outside `exclude_domain` (destination population
  /// for the traffic generator; ranks are interleaved across domains so
  /// Zipf skew spreads over sites).
  [[nodiscard]] std::vector<dns::DomainName> destination_names(
      std::size_t exclude_domain) const;

  // -- Aggregates used by the benches --------------------------------------
  /// Sum of first-packet drops at all ITRs (mapping-miss drops).
  [[nodiscard]] std::uint64_t total_miss_drops() const;
  [[nodiscard]] std::uint64_t total_miss_events() const;
  [[nodiscard]] std::uint64_t total_encapsulated() const;
  /// Merged queueing-delay histogram over all ITRs (kQueue palliative).
  [[nodiscard]] metrics::Histogram merged_queue_delay() const;

  /// One-way propagation delay host(sd, 0) -> host(dd, 0): the OWD term of
  /// the paper's §1 formulas, computed from the topology.
  [[nodiscard]] sim::SimDuration owd(std::size_t src_domain,
                                     std::size_t dst_domain) const;

 private:
  void build();
  void build_dns_hierarchy();
  void build_domain(std::size_t d);
  void register_mappings();

  InternetSpec spec_;
  std::shared_ptr<const Blueprint> blueprint_;
  sim::Simulator sim_;
  sim::Network network_;
  mapping::MappingRegistry registry_;
  workload::WorkloadMetrics metrics_;
  std::unique_ptr<mapping::MappingSystem> system_;
  MappingInfra infra_;

  sim::Node* core_ = nullptr;
  dns::DnsServer* root_dns_ = nullptr;
  dns::DnsServer* tld_dns_ = nullptr;
  std::vector<DomainHandle> domains_;
};

}  // namespace lispcp::topo
