// traffic.hpp — the workload-engine seam.
//
// Two interchangeable engines drive the paper's session workload over a
// built topology:
//
//   * workload::TrafficGenerator (generator.hpp) — the per-packet path:
//     every session is a real DNS exchange, TCP handshake and data burst,
//     one simulator event per packet.  Full protocol fidelity (nonces,
//     retransmission timers, queue occupancy), cost linear in packets.
//
//   * workload::FlowAggregateEngine (aggregate.hpp) — the flow-aggregate
//     path: one event per epoch carries flow *counts* per destination;
//     map-cache misses, drops, SYN-retransmit penalties and TE splits are
//     evaluated in closed form against the real map-caches and the real
//     control plane.  Cost linear in (destinations x epochs), which is what
//     lets e1/e3/e4 sweep 10k domains x 10^6+ flows.
//
// Scenario code talks to this seam only; benches pick the engine through
// the workload::Mode axis on scenario::SweepSpec (Axis::workload_modes).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>

namespace lispcp::workload {

/// Which engine drives the workload.
enum class Mode {
  kPacket,     ///< discrete per-packet simulation
  kAggregate,  ///< flow-aggregate epochs (analytic per-flow accounting)
};

[[nodiscard]] constexpr const char* to_string(Mode mode) noexcept {
  switch (mode) {
    case Mode::kPacket: return "packet";
    case Mode::kAggregate: return "aggregate";
  }
  return "?";
}

[[nodiscard]] constexpr std::optional<Mode> parse_mode(
    std::string_view text) noexcept {
  if (text == "packet") return Mode::kPacket;
  if (text == "aggregate") return Mode::kAggregate;
  return std::nullopt;
}

/// One source domain's destinations by Zipf rank (0 = hottest): every host
/// outside `source` on a `domains` x `hosts_per_domain` grid, host-major
/// with the source skipped — the order of topo::Blueprint::destination_names
/// (a test pins the two together).  Rank r is host r / (domains - 1) of the
/// (r mod (domains - 1))-th domain other than the source, so an engine
/// computes its destination instead of holding a per-source copy of the
/// population, and reads per-host tables shared by every source.
struct DestinationRanks {
  std::size_t domains = 0;
  std::size_t hosts_per_domain = 0;
  std::size_t source = 0;

  [[nodiscard]] std::size_t size() const noexcept {
    return domains < 2 ? 0 : hosts_per_domain * (domains - 1);
  }
  /// Domain of the host at `rank`.
  [[nodiscard]] std::size_t domain(std::size_t rank) const noexcept {
    const std::size_t d = rank % (domains - 1);
    return d < source ? d : d + 1;
  }
  /// Index of the host at `rank` in a [domain * hosts_per_domain + host]
  /// table.
  [[nodiscard]] std::size_t slot(std::size_t rank) const noexcept {
    return domain(rank) * hosts_per_domain + rank / (domains - 1);
  }
};

/// The engine seam: scenario::Experiment owns one Traffic per source domain
/// and never looks behind it.
class Traffic {
 public:
  virtual ~Traffic() = default;

  /// Schedules the arrival process from the current simulation time.
  virtual void start() = 0;

  [[nodiscard]] virtual Mode mode() const noexcept = 0;

  /// Sessions (flows) the arrival process has admitted so far.
  [[nodiscard]] virtual std::uint64_t sessions_launched() const noexcept = 0;
};

}  // namespace lispcp::workload
