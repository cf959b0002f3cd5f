#include "mapping/mapping_system.hpp"

#include <iterator>
#include <stdexcept>
#include <string>

#include "lisp/resolution.hpp"
#include "lisp/tunnel_router.hpp"
#include "mapping/replicated_resolver.hpp"
#include "mapping/systems.hpp"
#include "topo/internet.hpp"

namespace lispcp::mapping {

const char* to_string(ControlPlaneKind kind) {
  return MappingSystemFactory::instance().name(kind);
}

// ---------------------------------------------------------------------------
// MappingSystem default lifecycle
// ---------------------------------------------------------------------------

void MappingSystem::configure_xtr(const topo::InternetSpec& spec,
                                  lisp::XtrConfig& config) {
  (void)spec;
  (void)config;
}

void MappingSystem::attach_domain_dns(topo::Internet& internet,
                                      topo::DomainHandle& dom) {
  // Default attachment: resolver and authoritative server hang directly off
  // the internal router.
  auto& network = internet.network();
  sim::Node& r = *dom.internal_router;

  sim::LinkConfig dns_attach;
  dns_attach.delay = sim::SimDuration::micros(50);
  dns_attach.bandwidth_bps = internet.spec().lan_bandwidth_bps;

  network.connect(r.id(), dom.resolver->id(), dns_attach);
  network.connect(r.id(), dom.authoritative->id(), dns_attach);
  network.add_host_route(r.id(), dom.resolver->address(), dom.resolver->id());
  network.add_host_route(r.id(), dom.authoritative->address(),
                         dom.authoritative->id());
  network.add_route(dom.resolver->id(), net::Ipv4Prefix(), r.id());
  network.add_route(dom.authoritative->id(), net::Ipv4Prefix(), r.id());
}

void MappingSystem::register_site(topo::Internet& internet,
                                  topo::DomainHandle& dom,
                                  const std::vector<lisp::MapEntry>& entries) {
  (void)internet;
  (void)dom;
  (void)entries;
}

void MappingSystem::attach_itr(topo::Internet& internet,
                               topo::DomainHandle& dom,
                               lisp::TunnelRouter& itr) {
  (void)internet;
  (void)dom;
  // Push systems (and the no-system baselines) have no on-demand path.
  itr.set_resolution_strategy(std::make_unique<lisp::PushOnlyResolution>());
}

void MappingSystem::activate(topo::Internet& internet) { (void)internet; }

MappingSystemStats MappingSystem::stats() const { return {}; }

// ---------------------------------------------------------------------------
// Factory
// ---------------------------------------------------------------------------

namespace {

/// One row of the factory's table.
struct KindRow {
  ControlPlaneKind kind;
  const char* name;
  /// Included when benches enumerate "the compared control planes"
  /// (baselines like plain-IP are not).
  bool in_comparison_set;
  /// The miss policy the kind's preset sets; nullopt leaves the spec's.
  std::optional<lisp::MissPolicy> miss_policy;
};

constexpr KindRow kKinds[] = {
    {ControlPlaneKind::kPlainIp, "plain-ip", false, std::nullopt},
    {ControlPlaneKind::kNoMapping, "lisp-none", false, std::nullopt},
    {ControlPlaneKind::kAltDrop, "lisp-alt(drop)", true,
     lisp::MissPolicy::kDrop},
    {ControlPlaneKind::kAltQueue, "lisp-alt(queue)", true,
     lisp::MissPolicy::kQueue},
    {ControlPlaneKind::kAltForward, "lisp-alt(cp-fwd)", true,
     lisp::MissPolicy::kForwardOverlay},
    {ControlPlaneKind::kCons, "lisp-cons", true, lisp::MissPolicy::kDrop},
    {ControlPlaneKind::kNerd, "lisp-nerd", true, std::nullopt},
    {ControlPlaneKind::kMapServer, "lisp-ms", true, lisp::MissPolicy::kDrop},
    {ControlPlaneKind::kMsReplicated, "lisp-ms-repl", true,
     lisp::MissPolicy::kDrop},
    {ControlPlaneKind::kPce, "lisp-pce", true, std::nullopt},
};

const KindRow* find_row(ControlPlaneKind kind) noexcept {
  for (const KindRow& row : kKinds) {
    if (row.kind == kind) return &row;
  }
  return nullptr;
}

[[noreturn]] void throw_unknown(const char* caller, ControlPlaneKind kind) {
  throw std::invalid_argument(std::string("MappingSystemFactory::") + caller +
                              ": unknown control plane kind " +
                              std::to_string(static_cast<int>(kind)));
}

}  // namespace

const MappingSystemFactory& MappingSystemFactory::instance() {
  static constexpr MappingSystemFactory factory{};
  return factory;
}

bool MappingSystemFactory::contains(ControlPlaneKind kind) const noexcept {
  return find_row(kind) != nullptr;
}

const char* MappingSystemFactory::name(ControlPlaneKind kind) const {
  const KindRow* row = find_row(kind);
  return row == nullptr ? "?" : row->name;
}

void MappingSystemFactory::apply_preset(ControlPlaneKind kind,
                                        topo::InternetSpec& spec) const {
  const KindRow* row = find_row(kind);
  if (row == nullptr) throw_unknown("apply_preset", kind);
  spec.kind = kind;
  if (row->miss_policy.has_value()) spec.miss_policy = *row->miss_policy;
}

std::unique_ptr<MappingSystem> MappingSystemFactory::create(
    const topo::InternetSpec& spec) const {
  switch (spec.kind) {
    case ControlPlaneKind::kPlainIp:
      return std::make_unique<PlainIpSystem>();
    case ControlPlaneKind::kNoMapping:
      return std::make_unique<NoMappingSystem>();
    case ControlPlaneKind::kAltDrop:
    case ControlPlaneKind::kAltQueue:
    case ControlPlaneKind::kAltForward:
      return std::make_unique<AltOverlaySystem>(spec.kind, OverlayMode::kAlt);
    case ControlPlaneKind::kCons:
      return std::make_unique<AltOverlaySystem>(spec.kind, OverlayMode::kCons);
    case ControlPlaneKind::kNerd:
      return std::make_unique<NerdSystem>();
    case ControlPlaneKind::kMapServer:
      return std::make_unique<MapServerSystem>();
    case ControlPlaneKind::kMsReplicated:
      return std::make_unique<ReplicatedResolverSystem>();
    case ControlPlaneKind::kPce:
      return std::make_unique<PceSystem>();
  }
  throw_unknown("create", spec.kind);
}

std::vector<ControlPlaneKind> MappingSystemFactory::kinds() const {
  std::vector<ControlPlaneKind> out;
  out.reserve(std::size(kKinds));
  for (const KindRow& row : kKinds) out.push_back(row.kind);
  return out;
}

std::vector<ControlPlaneKind> MappingSystemFactory::comparison_kinds() const {
  std::vector<ControlPlaneKind> out;
  for (const KindRow& row : kKinds) {
    if (row.in_comparison_set) out.push_back(row.kind);
  }
  return out;
}

std::optional<ControlPlaneKind> MappingSystemFactory::find_kind(
    std::string_view name) const noexcept {
  for (const KindRow& row : kKinds) {
    if (name == row.name) return row.kind;
  }
  return std::nullopt;
}

}  // namespace lispcp::mapping
