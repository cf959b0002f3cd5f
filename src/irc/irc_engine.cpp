#include "irc/irc_engine.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace lispcp::irc {

std::string to_string(TePolicy policy) {
  switch (policy) {
    case TePolicy::kPrimaryBackup: return "primary-backup";
    case TePolicy::kRoundRobin: return "round-robin";
    case TePolicy::kCapacityWeighted: return "capacity-weighted";
    case TePolicy::kLeastLoaded: return "least-loaded";
    case TePolicy::kLowestLatency: return "lowest-latency";
  }
  return "?";
}

IrcEngine::IrcEngine(sim::Network& network, std::vector<BorderLink> links,
                     IrcConfig config)
    : network_(network), links_(std::move(links)), config_(config) {
  if (links_.empty()) {
    throw std::invalid_argument("IrcEngine: at least one border link required");
  }
  if (config_.ewma_alpha <= 0.0 || config_.ewma_alpha > 1.0) {
    throw std::invalid_argument("IrcEngine: ewma_alpha must be in (0, 1]");
  }
  state_.resize(links_.size());
  for (std::size_t i = 0; i < links_.size(); ++i) {
    const sim::NodeId far = links_[i].link->peer_of(links_[i].xtr);
    state_[i].ingress_window = links_[i].link->open_window(far);
  }
  recompute_weights();
}

void IrcEngine::start() {
  if (started_) return;
  started_ = true;
  network_.sim().schedule_daemon(config_.refresh_interval, [this] { refresh(); });
}

void IrcEngine::refresh() {
  ++refreshes_;
  for (std::size_t i = 0; i < links_.size(); ++i) {
    const sim::NodeId far = links_[i].link->peer_of(links_[i].xtr);
    const double in_sample = links_[i].link->utilization(far, state_[i].ingress_window);
    state_[i].ingress_ewma = config_.ewma_alpha * in_sample +
                             (1.0 - config_.ewma_alpha) * state_[i].ingress_ewma;
    state_[i].ingress_window = links_[i].link->open_window(far);
  }
  recompute_weights();
  network_.sim().schedule_daemon(config_.refresh_interval, [this] { refresh(); });
}

void IrcEngine::recompute_weights() {
  switch (config_.policy) {
    case TePolicy::kPrimaryBackup: {
      bool first = true;
      for (std::size_t i = 0; i < state_.size(); ++i) {
        const bool use = state_[i].usable && first;
        if (use) first = false;
        state_[i].weight = use ? 1.0 : 0.0;
      }
      break;
    }
    case TePolicy::kRoundRobin:
      for (auto& s : state_) s.weight = s.usable ? 1.0 : 0.0;
      break;
    case TePolicy::kCapacityWeighted:
      for (std::size_t i = 0; i < state_.size(); ++i) {
        state_[i].weight = state_[i].usable ? links_[i].capacity_bps : 0.0;
      }
      break;
    case TePolicy::kLeastLoaded:
      // Weight by measured inbound headroom: an idle link gets the most new
      // flows, a saturated one almost none (epsilon keeps it selectable so
      // measurements can recover).
      for (auto& s : state_) {
        s.weight = s.usable ? std::max(1.0 - s.ingress_ewma, 0.02) : 0.0;
      }
      break;
    case TePolicy::kLowestLatency: {
      double best = std::numeric_limits<double>::max();
      for (std::size_t i = 0; i < links_.size(); ++i) {
        if (state_[i].usable) {
          best = std::min(best, links_[i].link->config().delay.sec());
        }
      }
      for (std::size_t i = 0; i < links_.size(); ++i) {
        state_[i].weight =
            (state_[i].usable && links_[i].link->config().delay.sec() <= best)
                ? 1.0
                : 0.0;
      }
      break;
    }
  }
}

net::Ipv4Address IrcEngine::choose_ingress() {
  // Smooth weighted round robin (nginx-style): each call credits every link
  // by its weight and picks the highest-credit link, keeping the sequence
  // proportional to weights without bursts.
  double total = 0.0;
  for (const auto& s : state_) total += s.weight;
  if (total <= 0.0) return links_.front().rloc;  // all down: degrade gracefully

  std::size_t best = 0;
  double best_credit = -std::numeric_limits<double>::max();
  for (std::size_t i = 0; i < state_.size(); ++i) {
    state_[i].wrr_credit += state_[i].weight;
    if (state_[i].wrr_credit > best_credit) {
      best_credit = state_[i].wrr_credit;
      best = i;
    }
  }
  state_[best].wrr_credit -= total;
  return links_[best].rloc;
}

net::Ipv4Address IrcEngine::choose_ingress_for(std::uint64_t flow_hash) const {
  double total = 0.0;
  for (const auto& s : state_) total += s.weight;
  if (total <= 0.0) return links_.front().rloc;
  double point = (static_cast<double>(flow_hash % 1000003) / 1000003.0) * total;
  for (std::size_t i = 0; i < state_.size(); ++i) {
    if (point < state_[i].weight) return links_[i].rloc;
    point -= state_[i].weight;
  }
  return links_.back().rloc;
}

lisp::MapEntry IrcEngine::site_mapping(const net::Ipv4Prefix& eid_prefix) const {
  lisp::MapEntry entry;
  entry.eid_prefix = eid_prefix;
  double total = 0.0;
  for (const auto& s : state_) total += s.weight;
  for (std::size_t i = 0; i < links_.size(); ++i) {
    lisp::Rloc rloc;
    rloc.address = links_[i].rloc;
    rloc.priority = 1;
    rloc.reachable = state_[i].usable;
    rloc.weight =
        total <= 0.0
            ? 1
            : static_cast<std::uint8_t>(std::clamp(
                  std::lround(state_[i].weight / total * 100.0), 1L, 255L));
    entry.rlocs.push_back(rloc);
  }
  return entry;
}

double IrcEngine::ingress_load(std::size_t i) const {
  return state_.at(i).ingress_ewma;
}

void IrcEngine::set_link_usable(std::size_t i, bool usable) {
  state_.at(i).usable = usable;
  recompute_weights();
}

}  // namespace lispcp::irc
