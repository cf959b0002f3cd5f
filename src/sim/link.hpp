// link.hpp — point-to-point link with propagation delay, finite bandwidth
// and a drop-tail queue.
//
// Each link is bidirectional with two independent directions.  A direction
// models an output interface: packets serialize at `bandwidth_bps`, wait
// behind earlier packets (implicit FIFO via the `busy_until` horizon), and
// are tail-dropped when the backlog would exceed `queue_bytes`.  Per-
// direction counters feed the IRC link monitors and the TE benches (E4).
#pragma once

#include <cstdint>
#include <stdexcept>

#include "net/packet.hpp"
#include "sim/node.hpp"
#include "sim/time.hpp"

namespace lispcp::sim {

class Network;
class Simulator;

/// Link parameters.  Defaults model a 2008-era provider access link.
struct LinkConfig {
  SimDuration delay = SimDuration::millis(1);  ///< one-way propagation delay
  double bandwidth_bps = 1e9;                  ///< serialization rate
  std::size_t queue_bytes = 512 * 1024;        ///< drop-tail queue capacity
  double loss = 0.0;                           ///< random loss probability
};

/// Per-direction transmission statistics.
struct LinkStats {
  std::uint64_t tx_packets = 0;
  std::uint64_t tx_bytes = 0;
  std::uint64_t drops_queue = 0;
  std::uint64_t drops_loss = 0;
  /// Cumulative time the transmitter was busy, for utilization.
  SimDuration busy;
};

/// Handle for resetting utilization measurement windows.
struct LinkWindow {
  SimTime start;
  std::uint64_t tx_bytes_at_start = 0;
};

class Link {
 public:
  Link(Network& network, NodeId a, NodeId b, LinkConfig config);

  /// Queues `packet` for transmission from endpoint `from` toward the other
  /// endpoint.  `from` must be one of the link's endpoints.
  void transmit(NodeId from, net::Packet packet);

  [[nodiscard]] NodeId peer_of(NodeId n) const;
  [[nodiscard]] const LinkConfig& config() const noexcept { return config_; }

  /// Administrative state: a downed link silently drops everything offered
  /// to it (used by failover experiments).
  void set_up(bool up) noexcept { up_ = up; }
  [[nodiscard]] bool is_up() const noexcept { return up_; }

  /// Books `packets`/`bytes` of closed-form traffic onto the `from`
  /// direction's counters without scheduling any transmission events.  The
  /// flow-aggregate workload engine uses this so link windows, utilization
  /// probes and the IRC's load feedback see aggregate traffic exactly as
  /// they see per-packet traffic.  No queueing/serialization is modeled.
  void account_aggregate(NodeId from, std::uint64_t packets,
                         std::uint64_t bytes) {
    auto& stats = direction(from).stats;
    stats.tx_packets += packets;
    stats.tx_bytes += bytes;
  }

  /// Stats for the direction whose transmitter is `from`.
  [[nodiscard]] const LinkStats& stats(NodeId from) const {
    return direction(from).stats;
  }

  /// Opens a measurement window on the `from` direction.
  [[nodiscard]] LinkWindow open_window(NodeId from) const;

  /// Bytes transmitted in the window so far.
  [[nodiscard]] std::uint64_t bytes_in_window(NodeId from, const LinkWindow& w) const {
    return direction(from).stats.tx_bytes - w.tx_bytes_at_start;
  }

  /// Mean utilization (0..1) of the `from` direction over the window.
  [[nodiscard]] double utilization(NodeId from, const LinkWindow& w) const;

 private:
  struct Direction {
    NodeId to;
    SimTime busy_until;
    LinkStats stats;
  };

  [[nodiscard]] Direction& direction(NodeId from);
  [[nodiscard]] const Direction& direction(NodeId from) const;

  Network& network_;
  NodeId a_;
  NodeId b_;
  LinkConfig config_;
  Direction forward_;   // a -> b
  Direction backward_;  // b -> a
  bool up_ = true;
};

}  // namespace lispcp::sim
