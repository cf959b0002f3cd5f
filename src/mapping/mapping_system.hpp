// mapping_system.hpp — the pluggable mapping-system seam.
//
// The paper's contribution is a comparison across mapping control planes;
// this interface makes each one a first-class component instead
// of a set of boolean flags wired through the topology builder.  One
// MappingSystem instance owns everything a control plane adds to the
// emulated Internet:
//
//   configure_xtr     — per-border-router knobs (roles, cache discipline)
//   attach_domain_dns — the domain's DNS attachment (the PCE interposes here)
//   build             — global infrastructure (overlay trees, servers)
//   register_site     — one site's mappings enter the system
//   attach_itr        — installs the ITR's lisp::ResolutionStrategy
//   activate          — post-registration start-up (pushes, control planes)
//   stats             — uniform footprint/traffic summary
//
// topo::Internet::build() drives this lifecycle for whatever kind the spec
// selects; it neither knows nor branches on which system is present.
// Systems are created through MappingSystemFactory, a constant table, so
// adding a control plane is one table row and one constructor case in
// mapping_system.cpp — not a surgery across topo/, lisp/ and every bench.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "lisp/map_entry.hpp"

namespace lispcp::lisp {
class TunnelRouter;
struct XtrConfig;
}  // namespace lispcp::lisp

namespace lispcp::topo {
class Internet;
struct InternetSpec;
struct DomainHandle;
}  // namespace lispcp::topo

namespace lispcp::mapping {

/// The control planes the experiments compare.  The kinds are enumerable
/// through the factory; benches iterate it instead of hard-coding this
/// list.
enum class ControlPlaneKind {
  kPlainIp,      ///< pre-LISP Internet: EIDs globally routed, no tunnels
  kNoMapping,    ///< LISP encapsulation with no mapping distribution at all
  kAltDrop,      ///< LISP+ALT, vanilla drop-on-miss
  kAltQueue,     ///< LISP+ALT, queue-at-ITR palliative
  kAltForward,   ///< LISP+ALT, data-over-control-plane palliative
  kCons,         ///< LISP-CONS (replies relayed down the tree), drop-on-miss
  kNerd,         ///< NERD push database
  kMapServer,    ///< Map-Server / Map-Resolver (draft-lisp-ms)
  kMsReplicated, ///< sharded MS + replicated MR tier, nearest-replica pull
  kPce,          ///< the paper's PCE-based control plane
};

[[nodiscard]] const char* to_string(ControlPlaneKind kind);

/// Uniform footprint summary every system reports (the state/traffic cost
/// axis of the paper's comparison).
struct MappingSystemStats {
  std::size_t infrastructure_nodes = 0;  ///< dedicated nodes this system built
  std::size_t database_records = 0;      ///< mapping state it holds server-side
  std::uint64_t control_messages = 0;    ///< control-plane messages handled
};

class MappingSystem {
 public:
  virtual ~MappingSystem() = default;

  [[nodiscard]] virtual ControlPlaneKind kind() const noexcept = 0;
  [[nodiscard]] virtual const char* name() const noexcept = 0;

  /// Tunes one border router's configuration before it is instantiated
  /// (e.g. plain-IP disables the LISP roles; NERD lifts the cache cap so
  /// the pushed database is never evicted).
  virtual void configure_xtr(const topo::InternetSpec& spec,
                             lisp::XtrConfig& config);

  /// Wires the domain's resolver and authoritative server into the domain.
  /// Default: both attach directly to the internal router.  The PCE system
  /// overrides this to sit in the DNS data path (Fig. 1).
  virtual void attach_domain_dns(topo::Internet& internet,
                                 topo::DomainHandle& dom);

  /// Builds the system's global infrastructure.  Runs after every domain
  /// exists and the ground-truth registry is populated.
  virtual void build(topo::Internet& internet) = 0;

  /// Feeds one site's registered mappings into the system (overlay routes,
  /// database records, Map-Server registrations...).
  virtual void register_site(topo::Internet& internet, topo::DomainHandle& dom,
                             const std::vector<lisp::MapEntry>& entries);

  /// Installs the miss-resolution strategy into one of `dom`'s ITRs.
  virtual void attach_itr(topo::Internet& internet, topo::DomainHandle& dom,
                          lisp::TunnelRouter& itr);

  /// Post-registration start-up: initial pushes, periodic refresh timers,
  /// per-domain control-plane activation.
  virtual void activate(topo::Internet& internet);

  [[nodiscard]] virtual MappingSystemStats stats() const;
};

/// The table of mapping-system kinds, fixed at compile time.  Each row
/// carries everything the rest of the codebase needs to treat the kind
/// uniformly: its display name, the spec defaults its preset applies,
/// whether comparative benches include it, and how to construct it.
class MappingSystemFactory {
 public:
  [[nodiscard]] static const MappingSystemFactory& instance();

  [[nodiscard]] bool contains(ControlPlaneKind kind) const noexcept;
  [[nodiscard]] const char* name(ControlPlaneKind kind) const;
  /// Applies the kind's preset defaults onto `spec` (and sets spec.kind).
  void apply_preset(ControlPlaneKind kind, topo::InternetSpec& spec) const;
  /// Instantiates the system selected by `spec.kind`.
  [[nodiscard]] std::unique_ptr<MappingSystem> create(
      const topo::InternetSpec& spec) const;

  /// Every kind, in table order.
  [[nodiscard]] std::vector<ControlPlaneKind> kinds() const;
  /// The kinds comparative benches enumerate.
  [[nodiscard]] std::vector<ControlPlaneKind> comparison_kinds() const;
  /// Reverse lookup by display name ("lisp-pce" -> kPce); the seam CLI
  /// flags and sweep filters resolve user-supplied names through.
  [[nodiscard]] std::optional<ControlPlaneKind> find_kind(
      std::string_view name) const noexcept;

 private:
  MappingSystemFactory() = default;
};

}  // namespace lispcp::mapping
