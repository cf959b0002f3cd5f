#include "workload/aggregate.hpp"

#include <algorithm>
#include <random>
#include <stdexcept>
#include <utility>

namespace lispcp::workload {

FlowAggregateEngine::FlowAggregateEngine(AggregateWorld world,
                                         TrafficConfig config, sim::Rng rng)
    : world_(std::move(world)),
      config_(config),
      rng_(rng),
      epoch_len_(config.aggregate_epoch.ns() > 0
                     ? config.aggregate_epoch
                     : sim::SimDuration::millis(500)) {
  if (world_.sim == nullptr || world_.metrics == nullptr) {
    throw std::invalid_argument("FlowAggregateEngine: sim/metrics required");
  }
  const auto& ranks = world_.ranks;
  if (ranks.size() == 0) {
    throw std::invalid_argument("FlowAggregateEngine: no destinations");
  }
  if (world_.destinations == nullptr ||
      world_.destinations->peers.size() != ranks.domains ||
      world_.destinations->hosts.size() !=
          ranks.domains * ranks.hosts_per_domain ||
      world_.zipf == nullptr || world_.zipf->size() != ranks.size()) {
    throw std::invalid_argument(
        "FlowAggregateEngine: destination or Zipf table does not match the "
        "ranks");
  }
}

void FlowAggregateEngine::start() {
  end_time_ = world_.sim->now() + config_.duration;
  world_.sim->schedule(sim::SimDuration{}, [this] { epoch(); });
}

void FlowAggregateEngine::epoch() {
  const auto now = world_.sim->now();
  if (now >= end_time_) return;
  auto window = epoch_len_;
  if (now + window > end_time_) window = end_time_ - now;

  // Poisson arrival count over the epoch window — same process the
  // per-packet generator realizes with exponential inter-arrival gaps.
  const double lambda = config_.sessions_per_second * window.sec();
  std::uint64_t n =
      lambda > 0.0
          ? std::poisson_distribution<std::uint64_t>(lambda)(rng_.engine())
          : 0;
  if (config_.max_sessions > 0 && launched_ + n > config_.max_sessions) {
    n = config_.max_sessions - launched_;
  }
  launched_ += n;
  if (n > 0) {
    world_.metrics->aggregate_sessions_started(n);
    // Bucket the epoch's flows over destinations by Zipf popularity;
    // first-touch order keeps per-destination processing deterministic.
    for (std::uint64_t i = 0; i < n; ++i) {
      const auto rank = static_cast<std::uint32_t>((*world_.zipf)(rng_));
      if ((*epoch_counts_.try_emplace(rank).first)++ == 0) {
        touched_.push_back(rank);
      }
    }
    for (const auto rank : touched_) {
      const auto flows = std::exchange(*epoch_counts_.find(rank), 0);
      process(rank, flows);
    }
    touched_.clear();
  }
  world_.sim->schedule(window, [this] { epoch(); });
}

void FlowAggregateEngine::process(std::size_t rank, std::uint64_t flows) {
  if (flows == 0) return;
  auto& state = dest_states_[static_cast<std::uint32_t>(rank)];
  const auto now = world_.sim->now();
  const auto& dest = host_of(rank);

  // DNS: the first flow of a cold window pays the iterative legs; arrivals
  // while that query is in flight coalesce at the resolver and pay the mean
  // residual; everything after hits the positive cache until the A record
  // (cached when the answer arrives) expires.
  Batch batch{now, flows, 0, sim::SimDuration{}, 0, sim::SimDuration{}, now};
  if (state.dns_ready_at > now) {
    // A previous epoch's cold query is still in flight (latency exceeded
    // the epoch): this epoch's early arrivals coalesce onto it too.
    const auto rem = state.dns_ready_at - now;
    const double frac =
        epoch_len_.ns() > 0 ? std::clamp(rem / epoch_len_, 0.0, 1.0) : 1.0;
    batch.dns_waiters = round_with_residue(
        state.dns_wait_residue, frac * static_cast<double>(flows), flows);
    batch.t_dns_wait = rem - std::min(rem, epoch_len_) / 2;
    batch.itr_at = state.dns_ready_at;
  } else if (state.dns_positive_until <= now) {
    // The trigger is the epoch's first arrival for this name, landing the
    // mean of the first order statistic (window/(flows+1)) into the epoch.
    // Anchoring the coalesce window there, not at the epoch boundary, keeps
    // the expected waiter count at rate x latency — the window never
    // contains the gap that precedes a renewal process's first arrival.
    const auto t0 = epoch_len_ / static_cast<std::int64_t>(flows + 1);
    batch.cold_dns = 1;
    batch.t_dns_cold = cold_dns_latency(rank);
    state.dns_ready_at = now + t0 + batch.t_dns_cold;
    state.dns_positive_until =
        state.dns_ready_at +
        sim::SimDuration::seconds(world_.dns_record_ttl_seconds);
    const auto span = epoch_len_ - t0;  // epoch remainder after the trigger
    const double frac =
        span.ns() > 0 ? std::clamp(batch.t_dns_cold / span, 0.0, 1.0) : 1.0;
    batch.dns_waiters = round_with_residue(
        state.dns_wait_residue, frac * static_cast<double>(flows - 1),
        flows - 1);
    batch.t_dns_wait =
        batch.t_dns_cold - std::min(batch.t_dns_cold, span) / 2;
    batch.itr_at = state.dns_ready_at;
  }

  if (world_.itr == nullptr) {  // plain-IP baseline: nothing can miss
    complete(rank, batch, sim::SimDuration{}, false);
    return;
  }

  if (world_.pce_push) {
    // Step-6 snooping: the PCE observes every DNS query (warm or cold — the
    // query observer fires before the resolver cache check) and pushes the
    // destination site's current mapping, so data packets never miss.
    const auto* peer_irc = peer_of(rank).irc;
    if (peer_irc != nullptr) {
      world_.itr->install_mapping(peer_irc->site_mapping(dest.registered_prefix));
      lisp::AggregateCounts pushes;
      pushes.entry_pushes_received = flows;
      world_.itr->aggregate_account(pushes);
    }
  }

  if (state.resolving) {  // join the in-flight resolution episode
    state.backlog.push_back(batch);
    return;
  }

  const lisp::MapEntry* entry = world_.itr->aggregate_lookup(dest.eid, flows);
  if (entry != nullptr && entry->select_rloc(0).has_value()) {
    complete(rank, batch, sim::SimDuration{}, false);
    return;
  }

  // Miss: the whole batch backs up behind one resolution episode driven
  // through the real control plane (Map-Request / overlay / timer events).
  // The episode starts when the batch's first SYN reaches the ITR — after
  // the cold DNS answer lands — so the resolution window and the policy
  // timers line up with the modeled arrival timeline.
  state.resolving = true;
  state.backlog.assign(1, batch);
  const auto defer = batch.itr_at - now;
  const auto kickoff = [this, rank, eid = dest.eid] {
    world_.itr->aggregate_resolve(
        eid, [this, rank](bool resolved) { settle(rank, resolved); });
  };
  if (defer.ns() > 0) {
    world_.sim->schedule(defer, kickoff);
  } else {
    kickoff();
  }
}

void FlowAggregateEngine::settle(std::size_t rank, bool resolved) {
  auto& state = *dest_states_.find(static_cast<std::uint32_t>(rank));
  const auto now = world_.sim->now();
  std::vector<Batch> backlog = std::move(state.backlog);
  state.backlog.clear();
  state.resolving = false;

  if (!resolved) {
    // The episode gave up (retries exhausted, no mapping): every backlogged
    // flow fails — in packet mode their SYN retries would re-trigger the
    // same doomed episode and eventually exhaust max_syn_retries.
    for (const auto& batch : backlog) fail(batch);
    return;
  }

  // The real control-plane episode was kicked off at the first batch's
  // modeled SYN-arrival time (itr_at), so `now` is when the mapping lands
  // on that same timeline.
  const auto t_resolved = now;

  const std::uint64_t cap = world_.queue_capacity_per_eid;
  std::uint64_t queued_so_far = 0;
  bool first = true;
  for (auto& batch : backlog) {
    // The DNS cohort (trigger + coalesced waiters) hits the ITR as one
    // burst at itr_at; the warm arrivals trickle in uniformly over the
    // epoch after it.  Everything landing before the mapping resolved takes
    // the miss-policy penalty.
    const auto waited =
        t_resolved > batch.itr_at ? t_resolved - batch.itr_at : sim::SimDuration{};
    const std::uint64_t cohort =
        std::min(batch.cold_dns + batch.dns_waiters, batch.flows);
    const std::uint64_t warm_flows = batch.flows - cohort;
    const double window_frac =
        epoch_len_.ns() > 0 ? std::clamp(waited / epoch_len_, 0.0, 1.0) : 1.0;
    std::uint64_t affected =
        waited.ns() <= 0
            ? 0
            : cohort + round_with_residue(
                           state.settle_residue,
                           window_frac * static_cast<double>(warm_flows),
                           warm_flows);
    if (first && affected == 0) affected = 1;  // the triggering flow itself
    first = false;

    Batch hit = split_front(batch, affected);
    // `batch` now holds the unaffected remainder (arrived after t_resolved).
    if (batch.flows > 0) {
      complete(rank, batch, sim::SimDuration{}, false);
    }
    if (hit.flows == 0) continue;

    switch (world_.miss_policy) {
      case lisp::MissPolicy::kDrop: {
        // Dropped SYN; the RFC 2988 retransmit (one initial RTO later) hits
        // the now-warm cache.  The dropped SYN is an extra packet the ITR
        // saw but did not encapsulate.
        complete(rank, hit, world_.syn_rto, /*retransmitted=*/true);
        lisp::AggregateCounts extra;
        extra.data_seen = hit.flows;
        extra.miss_dropped = hit.flows;
        world_.itr->aggregate_account(extra);
        break;
      }
      case lisp::MissPolicy::kQueue: {
        const std::uint64_t room = cap > queued_so_far ? cap - queued_so_far : 0;
        const std::uint64_t queued = std::min(hit.flows, room);
        queued_so_far += queued;
        Batch q = split_front(hit, queued);
        if (q.flows > 0) {
          // Residence time: the DNS cohort waits the full gap from its
          // burst arrival to the resolution; the trickled-in warm arrivals
          // wait half their window on average.
          const std::uint64_t q_cohort =
              std::min(q.cold_dns + q.dns_waiters, q.flows);
          const auto warm_delay = waited - std::min(waited, epoch_len_) / 2;
          const auto delay =
              q.flows == 0
                  ? sim::SimDuration{}
                  : (waited * static_cast<std::int64_t>(q_cohort) +
                     warm_delay * static_cast<std::int64_t>(q.flows - q_cohort)) /
                        static_cast<std::int64_t>(q.flows);
          complete(rank, q, delay, /*retransmitted=*/false);
          lisp::AggregateCounts flushed;
          flushed.miss_queued = q.flows;
          flushed.queue_flushed = q.flows;
          world_.itr->aggregate_account(flushed);
          world_.itr->aggregate_queue_delay(delay, q.flows);
        }
        if (hit.flows > 0) {  // overflow beyond the per-EID queue capacity
          complete(rank, hit, world_.syn_rto, /*retransmitted=*/true);
          lisp::AggregateCounts extra;
          extra.data_seen = hit.flows;
          extra.queue_overflow_drops = hit.flows;
          world_.itr->aggregate_account(extra);
        }
        break;
      }
      case lisp::MissPolicy::kForwardOverlay: {
        // The SYN rode the mapping overlay instead of waiting; no penalty
        // beyond the (unmodeled) overlay detour.
        complete(rank, hit, sim::SimDuration{}, /*retransmitted=*/false,
                 /*overlay_syns=*/hit.flows);
        break;
      }
    }
  }
}

FlowAggregateEngine::Batch FlowAggregateEngine::split_front(
    Batch& batch, std::uint64_t take) {
  take = std::min(take, batch.flows);
  Batch front = batch;
  front.flows = take;
  front.cold_dns = std::min(batch.cold_dns, take);
  front.dns_waiters = std::min(batch.dns_waiters, take - front.cold_dns);
  batch.flows -= take;
  batch.cold_dns -= front.cold_dns;
  batch.dns_waiters -= front.dns_waiters;
  return front;
}

void FlowAggregateEngine::complete(std::size_t rank, const Batch& batch,
                                   sim::SimDuration penalty, bool retransmitted,
                                   std::uint64_t overlay_syns) {
  const std::uint64_t flows = batch.flows;
  if (flows == 0) return;
  const auto& peer = peer_of(rank);
  const bool lisp = world_.itr != nullptr;
  const auto owd = world_.client_to_hub + peer.host_to_hub;
  const auto one_way =
      owd + (lisp ? world_.xtr_crossing_delay : sim::SimDuration{});

  const std::uint64_t cold = std::min(batch.cold_dns, flows);
  const std::uint64_t waiters = std::min(batch.dns_waiters, flows - cold);
  const std::uint64_t warm = flows - cold - waiters;
  const auto book = [&](std::uint64_t n, sim::SimDuration t_dns) {
    if (n == 0) return;
    world_.metrics->aggregate_dns_resolved(n, t_dns);
    world_.metrics->aggregate_connected(n, t_dns + 2 * one_way + penalty,
                                        retransmitted);
    world_.metrics->aggregate_established(n, t_dns + 3 * one_way + penalty);
  };
  book(warm, world_.dns_warm);
  book(cold, batch.t_dns_cold);
  book(waiters, batch.t_dns_wait);

  const auto fp = world_.wire.forward_packets();
  const auto rp = world_.wire.reverse_packets();

  if (lisp) {
    lisp::AggregateCounts fwd;
    fwd.data_seen = flows * fp;
    fwd.encapsulated = flows * fp - overlay_syns;
    fwd.overlay_data_forwarded = overlay_syns;
    world_.itr->aggregate_account(fwd);
    if (peer.xtr != nullptr) {
      lisp::AggregateCounts rev;
      rev.data_seen = flows * rp;        // responses are outbound at the ETR
      rev.decapsulated = flows * fp;     // the forward burst lands on it
      rev.encapsulated = flows * rp;
      peer.xtr->aggregate_account(rev);
    }
  }

  if (world_.uplinks.empty()) return;

  // Forward bytes leave on the egress uplink (the internal default route).
  const auto& egress = world_.uplinks.front();
  egress.link->account_aggregate(egress.xtr_node, flows * fp,
                                 flows * world_.wire.forward_bytes());

  // Reverse bytes enter on the TE-chosen ingress: per flow via the domain's
  // IRC under the PCE, pinned to the egress RLOC otherwise (gleaning).
  std::uint64_t per_ingress[8] = {0};
  const std::size_t n_up = std::min<std::size_t>(world_.uplinks.size(), 8);
  if (world_.source_irc != nullptr && n_up > 1) {
    for (std::uint64_t i = 0; i < flows; ++i) {
      const auto rloc = world_.source_irc->choose_ingress();
      std::size_t j = 0;
      for (std::size_t k = 0; k < n_up; ++k) {
        if (world_.uplinks[k].rloc == rloc) {
          j = k;
          break;
        }
      }
      ++per_ingress[j];
    }
  } else {
    per_ingress[0] = flows;
  }
  for (std::size_t j = 0; j < n_up; ++j) {
    if (per_ingress[j] == 0) continue;
    const auto& up = world_.uplinks[j];
    up.link->account_aggregate(up.link->peer_of(up.xtr_node),
                               per_ingress[j] * rp,
                               per_ingress[j] * world_.wire.reverse_bytes());
    if (lisp && up.xtr != nullptr) {
      lisp::AggregateCounts ingress;
      ingress.decapsulated = per_ingress[j] * rp;
      up.xtr->aggregate_account(ingress);
    }
  }
}

void FlowAggregateEngine::fail(const Batch& batch) {
  if (batch.flows == 0) return;
  const std::uint64_t cold = std::min(batch.cold_dns, batch.flows);
  const std::uint64_t waiters =
      std::min(batch.dns_waiters, batch.flows - cold);
  const std::uint64_t warm = batch.flows - cold - waiters;
  if (warm > 0) world_.metrics->aggregate_dns_resolved(warm, world_.dns_warm);
  if (cold > 0) world_.metrics->aggregate_dns_resolved(cold, batch.t_dns_cold);
  if (waiters > 0) {
    world_.metrics->aggregate_dns_resolved(waiters, batch.t_dns_wait);
  }
  world_.metrics->aggregate_connect_failed(batch.flows);

  if (world_.itr == nullptr) return;
  // Initial SYN plus every RFC 2988 retry, all swallowed at the ITR.
  const std::uint64_t syns =
      batch.flows * (1 + static_cast<std::uint64_t>(world_.max_syn_retries));
  lisp::AggregateCounts drops;
  drops.data_seen = syns;
  if (world_.miss_policy == lisp::MissPolicy::kQueue) {
    const std::uint64_t queued =
        std::min<std::uint64_t>(batch.flows, world_.queue_capacity_per_eid);
    drops.miss_queued = queued;
    drops.queue_timeout_drops = queued;
    drops.queue_overflow_drops = syns - queued;
  } else {
    drops.miss_dropped = syns;
  }
  world_.itr->aggregate_account(drops);
}

sim::SimDuration FlowAggregateEngine::cold_dns_latency(std::size_t rank) {
  const auto now = world_.sim->now();
  const auto& peer = peer_of(rank);
  const auto referral_ttl =
      sim::SimDuration::seconds(world_.dns_referral_ttl_seconds);
  sim::SimDuration legs;
  if (!tld_referral_.cached(now)) {
    // The TLD delegation isn't usable yet: this resolution walks the root
    // itself.  The referral only lands when the root's answer arrives, so
    // a burst of cold names starting together all pay this leg.
    legs += world_.dns_leg_root;
    if (now >= tld_referral_.expiry) {  // first walker (re)fetches it
      tld_referral_.ready = now + world_.dns_leg_root;
      tld_referral_.expiry = tld_referral_.ready + referral_ttl;
    }
  }
  auto& auth =
      auth_referral_[static_cast<std::uint32_t>(world_.ranks.domain(rank))];
  if (!auth.cached(now)) {
    legs += world_.dns_leg_tld;
    if (now >= auth.expiry) {
      auth.ready = now + legs;  // lands once this walk reaches the TLD
      auth.expiry = auth.ready + referral_ttl;
    }
  }
  // Resolver <-> authoritative round trip plus server processing; under the
  // PCE the answer also detours through the remote PCE's encapsulation and
  // the local PCE's port-P relay (Step-6 interception).
  legs += 2 * (world_.resolver_to_hub + peer.auth_to_hub) +
          peer.auth_processing;
  if (world_.pce_processing.has_value() && peer.pce_processing.has_value()) {
    legs += *world_.pce_processing + *peer.pce_processing;
  }
  return world_.dns_warm + legs;
}

std::uint64_t FlowAggregateEngine::round_with_residue(double& residue,
                                                      double want,
                                                      std::uint64_t cap) {
  want += residue;
  if (want < 0.0) want = 0.0;
  auto take = static_cast<std::uint64_t>(want);
  if (take > cap) take = cap;
  residue = want - static_cast<double>(take);
  if (residue > 1.0) residue = 1.0;
  return take;
}

}  // namespace lispcp::workload
