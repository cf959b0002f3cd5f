// irc_engine.hpp — Intelligent Route Control engine.
//
// The paper's Step 1 / Step 6 machinery: "the algorithms used to determine
// the ingress RLOC are inherently the same used today by Intelligent Route
// Control techniques", and "the mapping selection performed at PCED is made
// by an online IRC engine running in background, so the mapping is always
// known aforehand".
//
// The engine monitors the domain's border links (one per provider), keeps
// EWMA load estimates, and continuously precomputes the ingress-RLOC choice
// for the configured policy.  choose_ingress() is therefore O(1) — a table
// read — which is what lets the PCE encapsulate DNS replies "roughly at
// line rate" (Step 6).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "lisp/map_entry.hpp"
#include "sim/link.hpp"
#include "sim/network.hpp"

namespace lispcp::irc {

/// One provider attachment of a multihomed domain.
struct BorderLink {
  net::Ipv4Address rloc;     ///< the RLOC reachable over this provider
  sim::Link* link = nullptr; ///< the xTR <-> provider/core link
  sim::NodeId xtr;           ///< domain-side endpoint of `link`
  double capacity_bps = 1e9;
};

/// RLOC selection policies, in increasing order of feedback use.
enum class TePolicy {
  kPrimaryBackup,   ///< all traffic on the first link (vanilla single-homed behaviour)
  kRoundRobin,      ///< rotate per flow, load-blind
  kCapacityWeighted,///< static split proportional to capacity
  kLeastLoaded,     ///< smooth-WRR with weights from measured load headroom
  kLowestLatency,   ///< prefer the link with the smallest propagation delay
};

[[nodiscard]] std::string to_string(TePolicy policy);

struct IrcConfig {
  TePolicy policy = TePolicy::kLeastLoaded;
  /// Background refresh period for measurements and precomputed choices.
  sim::SimDuration refresh_interval = sim::SimDuration::millis(500);
  /// EWMA smoothing factor for load samples (0 < alpha <= 1).
  double ewma_alpha = 0.3;
};

class IrcEngine {
 public:
  IrcEngine(sim::Network& network, std::vector<BorderLink> links, IrcConfig config);

  /// Begins the background measurement/refresh loop.
  void start();

  /// The precomputed ingress RLOC for a new flow.  O(1); deterministic.
  [[nodiscard]] net::Ipv4Address choose_ingress();

  /// Ingress choice pinned by hash (stable for a given flow).
  [[nodiscard]] net::Ipv4Address choose_ingress_for(std::uint64_t flow_hash) const;

  /// Current site mapping for `eid_prefix`: every RLOC at priority 1 with
  /// weights reflecting the policy's current split — what a Map-Reply or a
  /// Step-6 encapsulation should advertise.
  [[nodiscard]] lisp::MapEntry site_mapping(const net::Ipv4Prefix& eid_prefix) const;

  /// Smoothed inbound utilization (0..1) of border link `i`.
  [[nodiscard]] double ingress_load(std::size_t i) const;

  [[nodiscard]] const std::vector<BorderLink>& links() const noexcept {
    return links_;
  }
  [[nodiscard]] std::size_t refresh_count() const noexcept { return refreshes_; }

  /// Marks a border link administratively down for selection purposes.
  void set_link_usable(std::size_t i, bool usable);
  [[nodiscard]] bool link_usable(std::size_t i) const { return state_.at(i).usable; }

 private:
  struct LinkState {
    sim::LinkWindow ingress_window;
    double ingress_ewma = 0.0;
    // Smooth weighted round robin state.
    double weight = 1.0;
    double wrr_credit = 0.0;
    bool usable = true;
  };

  void refresh();
  void recompute_weights();

  sim::Network& network_;
  std::vector<BorderLink> links_;
  IrcConfig config_;
  std::vector<LinkState> state_;
  std::uint64_t refreshes_ = 0;
  bool started_ = false;
};

}  // namespace lispcp::irc
