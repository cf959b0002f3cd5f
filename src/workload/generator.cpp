#include "workload/generator.hpp"

#include <stdexcept>

namespace lispcp::workload {

TrafficGenerator::TrafficGenerator(sim::Simulator& sim, std::vector<Host*> clients,
                                   DestinationNames destinations,
                                   TrafficConfig config, sim::Rng rng)
    : sim_(sim),
      clients_(std::move(clients)),
      destinations_(std::move(destinations)),
      config_(config),
      rng_(rng) {
  if (clients_.empty()) {
    throw std::invalid_argument("TrafficGenerator: no client hosts");
  }
  const auto& ranks = destinations_.ranks;
  if (ranks.size() == 0) {
    throw std::invalid_argument("TrafficGenerator: no destinations");
  }
  if (destinations_.host_names == nullptr ||
      destinations_.host_names->size() !=
          ranks.domains * ranks.hosts_per_domain ||
      destinations_.zipf == nullptr ||
      destinations_.zipf->size() != ranks.size()) {
    throw std::invalid_argument(
        "TrafficGenerator: name or Zipf table does not match the ranks");
  }
  if (config_.sessions_per_second <= 0.0) {
    throw std::invalid_argument("TrafficGenerator: rate must be positive");
  }
}

void TrafficGenerator::start() {
  end_time_ = sim_.now() + config_.duration;
  const double mean_gap = 1.0 / config_.sessions_per_second;
  sim_.schedule(sim::SimDuration::seconds_f(rng_.exponential(mean_gap)),
                [this] { arrival(); });
}

void TrafficGenerator::arrival() {
  if (sim_.now() >= end_time_) return;
  if (config_.max_sessions != 0 && launched_ >= config_.max_sessions) return;

  Host* client = clients_[rng_.uniform_int(0, clients_.size() - 1)];
  const std::size_t rank = (*destinations_.zipf)(rng_);
  client->start_session(
      (*destinations_.host_names)[destinations_.ranks.slot(rank)]);
  ++launched_;

  const double mean_gap = 1.0 / config_.sessions_per_second;
  sim_.schedule(sim::SimDuration::seconds_f(rng_.exponential(mean_gap)),
                [this] { arrival(); });
}

}  // namespace lispcp::workload
