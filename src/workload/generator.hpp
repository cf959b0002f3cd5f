// generator.hpp — traffic generation for the experiments.
//
// Sessions arrive as a Poisson process; each picks a uniformly random client
// host and a destination *name* drawn from a Zipf popularity distribution
// over the remote host population.  Zipf skew is the lever that controls
// map-cache hit ratios in experiment E1 (hot destinations stay cached, the
// tail always misses).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "dns/name.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "workload/host.hpp"
#include "workload/traffic.hpp"

namespace lispcp::workload {

struct TrafficConfig {
  double sessions_per_second = 50.0;
  sim::SimDuration duration = sim::SimDuration::seconds(60);
  double zipf_alpha = 0.9;
  /// If > 0, stop after exactly this many sessions regardless of duration.
  std::uint64_t max_sessions = 0;
  /// Flow-aggregate mode only: the epoch length (arrival batching window).
  /// Ignored by the per-packet engine.
  sim::SimDuration aggregate_epoch = sim::SimDuration::millis(500);
};

/// What the per-packet engine draws from: Zipf rank r names the host at
/// `ranks.slot(r)` of `host_names`.  Both tables are built once per
/// experiment and shared by every source.
struct DestinationNames {
  /// Every host's name, [domain * hosts_per_domain + host].
  std::shared_ptr<const std::vector<dns::DomainName>> host_names;
  DestinationRanks ranks;
  std::shared_ptr<const sim::ZipfDistribution> zipf;  ///< over ranks.size()
};

class TrafficGenerator final : public Traffic {
 public:
  /// `clients` originate sessions to `destinations`.
  TrafficGenerator(sim::Simulator& sim, std::vector<Host*> clients,
                   DestinationNames destinations, TrafficConfig config,
                   sim::Rng rng);

  /// Schedules the arrival process from the current simulation time.
  void start() override;

  [[nodiscard]] Mode mode() const noexcept override { return Mode::kPacket; }

  [[nodiscard]] std::uint64_t sessions_launched() const noexcept override {
    return launched_;
  }

 private:
  void arrival();

  sim::Simulator& sim_;
  std::vector<Host*> clients_;
  DestinationNames destinations_;
  TrafficConfig config_;
  sim::Rng rng_;
  sim::SimTime end_time_;
  std::uint64_t launched_ = 0;
};

}  // namespace lispcp::workload
