// replicated_resolver.hpp — sharded Map-Servers with a replicated,
// regionally-placed Map-Resolver tier (ControlPlaneKind::kMsReplicated).
//
// The draft-lisp-ms architecture of mapping/map_server.hpp puts every
// Map-Resolver at the core, so each resolution pays a full core round trip
// before the request even enters the mapping system.  At the
// millions-of-users scale the roadmap targets, that front end is the
// bottleneck: every ITR in the world funnels through a handful of central
// resolvers.
//
// This system scales the front end the way production anycast DNS does:
//
//   * Registrations stay sharded across `map_server_count` Map-Servers
//     (unchanged from the MS system — the authoritative tier shards).
//   * The resolver tier is *replicated*: `ms_replica_count` Map-Resolvers,
//     each holding the full prefix-to-shard table, placed inside evenly
//     spaced "home" domains rather than at the core (the stand-in for
//     anycast PoPs).
//   * Each ITR resolves via its nearest replica — distances come from the
//     built topology (one sim::HubDistances table per build), and the
//     ordered replica list is baked into a lisp::ReplicaPullResolution,
//     which rotates to the next-nearest replica on every retry so a dead
//     replica costs one request timeout instead of the session.
//
// Built entirely through the MappingSystem interface: topo::Internet knows
// nothing about it beyond the registry entry.
#pragma once

#include <optional>
#include <vector>

#include "mapping/map_server.hpp"
#include "mapping/mapping_system.hpp"
#include "sim/network.hpp"

namespace lispcp::mapping {

class ReplicatedResolverSystem final : public MappingSystem {
 public:
  [[nodiscard]] ControlPlaneKind kind() const noexcept override {
    return ControlPlaneKind::kMsReplicated;
  }
  [[nodiscard]] const char* name() const noexcept override {
    return "lisp-ms-repl";
  }
  void build(topo::Internet& internet) override;
  void register_site(topo::Internet& internet, topo::DomainHandle& dom,
                     const std::vector<lisp::MapEntry>& entries) override;
  void attach_itr(topo::Internet& internet, topo::DomainHandle& dom,
                  lisp::TunnelRouter& itr) override;
  [[nodiscard]] MappingSystemStats stats() const override;

  /// The home domain of replica `r` out of `replicas`, spread evenly.
  [[nodiscard]] static std::size_t replica_home_domain(std::size_t r,
                                                       std::size_t replicas,
                                                       std::size_t domains) {
    return (r * domains) / replicas;
  }

 private:
  std::vector<MapServer*> servers_;
  std::vector<MapResolver*> resolvers_;
  /// Delays through the core, built on the first attach_itr.
  std::optional<sim::HubDistances> hub_;
};

}  // namespace lispcp::mapping
