#include "routing/shard_engine.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <utility>

#include "sim/rng.hpp"

namespace lispcp::routing {

namespace {

/// Which shard the current thread is driving, if any.  Lets schedule()
/// resolve the caller's clock and route cross-shard events through the
/// mailbox instead of racing on a foreign queue.
struct ActiveShard {
  const void* engine = nullptr;
  std::size_t shard = 0;
};
thread_local ActiveShard tl_active;

/// Clears the caller context even when an event action throws (a stale
/// entry would make a later engine at the same address misread it).
struct ActiveShardScope {
  ActiveShardScope(const void* engine, std::size_t shard) {
    tl_active = ActiveShard{engine, shard};
  }
  ~ActiveShardScope() { tl_active = ActiveShard{}; }
};

constexpr sim::SimTime kEndOfTime =
    sim::SimTime::from_ns(std::numeric_limits<std::int64_t>::max());

}  // namespace

ConvergenceEngine::ConvergenceEngine(const AsGraph& graph,
                                     ShardEngineConfig config)
    : epoch_(config.epoch) {
  const std::size_t shards = std::max<std::size_t>(1, config.shards);
  if (shards > 1 && epoch_ <= sim::SimDuration{}) {
    throw std::invalid_argument(
        "ConvergenceEngine: sharded execution needs a positive lookahead "
        "(epoch)");
  }
  shards_.reserve(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    shards_.push_back(std::make_unique<Shard>());
  }
  outbox_.resize(shards);
  fired_.assign(shards, 0);
  errors_.assign(shards, nullptr);

  // Deterministic placement, keyed only by (graph, K): tier-1s and transits
  // round-robin by tier-insertion index so the heavy provider RIBs spread
  // evenly, stubs hashed by ASN.
  std::size_t tier1 = 0;
  std::size_t transit = 0;
  home_.reserve(graph.ases().size());
  for (AsNumber asn : graph.ases()) {
    if (asn.value() >= (std::uint32_t{1} << 31)) {
      throw std::invalid_argument(
          "ConvergenceEngine: ASNs must be < 2^31 (event-tag encoding)");
    }
    std::size_t home = 0;
    switch (graph.tier(asn)) {
      case AsTier::kTier1: home = tier1++ % shards; break;
      case AsTier::kTransit: home = transit++ % shards; break;
      case AsTier::kStub: home = sim::Rng::splitmix64(asn.value()) % shards; break;
    }
    home_.insert_or_assign(asn.value(), static_cast<std::uint32_t>(home));
  }

  std::size_t workers =
      config.workers != 0
          ? config.workers
          : static_cast<std::size_t>(std::thread::hardware_concurrency());
  if (workers == 0) workers = 1;
  workers_ = std::min(workers, shards);
}

ConvergenceEngine::~ConvergenceEngine() {
  if (!threads_.empty()) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_start_.notify_all();
    for (std::thread& t : threads_) t.join();
  }
}

std::size_t ConvergenceEngine::shard_of(AsNumber asn) const {
  const std::uint32_t* home = home_.find(asn.value());
  if (home == nullptr) {
    throw std::out_of_range("ConvergenceEngine: unknown " + asn.to_string());
  }
  return *home;
}

bool ConvergenceEngine::idle() const noexcept {
  // The engine cancels no event, so every queued entry is live.
  for (const auto& shard : shards_) {
    if (shard->queue.size() != 0) return false;
  }
  return true;
}

void ConvergenceEngine::schedule(AsNumber asn, sim::SimDuration delay,
                                 std::uint64_t tag, sim::EventAction action) {
  if (delay < sim::SimDuration{}) {
    throw std::invalid_argument("ConvergenceEngine::schedule: negative delay");
  }
  const std::size_t dst = shard_of(asn);
  const bool in_run = tl_active.engine == this;
  const std::size_t src = in_run ? tl_active.shard : dst;
  const sim::SimTime cause = in_run ? shards_[src]->now : now_;
  const sim::EventKey key{cause.ns(), tag};
  if (!in_run || src == dst) {
    // Quiescent engine (single caller) or the shard's own queue: insert
    // directly.
    insert(dst, cause + delay, key, std::move(action));
    return;
  }
  if (delay < epoch_) {
    throw std::logic_error(
        "ConvergenceEngine: cross-shard event inside the lookahead window");
  }
  outbox_[src].push_back(Mail{dst, cause + delay, key, std::move(action)});
}

void ConvergenceEngine::insert(std::size_t dst, sim::SimTime at,
                               sim::EventKey key, sim::EventAction action) {
  Shard& shard = *shards_[dst];
  if (at < shard.now) {
    throw std::invalid_argument("ConvergenceEngine: event time in the past");
  }
  shard.queue.schedule(at, key, std::move(action));
}

std::uint64_t ConvergenceEngine::run_shard_window(std::size_t s,
                                                  sim::SimTime end,
                                                  std::uint64_t cap) {
  ActiveShardScope scope(this, s);
  Shard& shard = *shards_[s];
  std::uint64_t fired = 0;
  while ((cap == 0 || fired < cap) && !shard.queue.empty() &&
         shard.queue.next_time() < end) {
    Queue::Fired event;
    shard.queue.pop(event);
    shard.now = event.time;
    event.action();
    ++fired;
  }
  return fired;
}

std::uint64_t ConvergenceEngine::remaining_cap(
    std::uint64_t max_events, std::uint64_t processed_at_entry) const {
  if (max_events == 0) return 0;
  const std::uint64_t used = processed_ - processed_at_entry;
  return used >= max_events ? 1 : max_events - used;
}

void ConvergenceEngine::check_budget(std::uint64_t max_events,
                                     std::uint64_t processed_at_entry) const {
  if (max_events != 0 && processed_ - processed_at_entry >= max_events) {
    throw std::runtime_error("ConvergenceEngine::run: event budget exhausted");
  }
}

void ConvergenceEngine::advance(sim::SimDuration by) {
  if (by < sim::SimDuration{}) {
    throw std::invalid_argument("ConvergenceEngine::advance: negative duration");
  }
  if (!idle()) {
    throw std::logic_error(
        "ConvergenceEngine::advance: events pending (run to convergence "
        "first)");
  }
  now_ = now_ + by;
  for (const auto& shard : shards_) shard->now = now_;
}

sim::SimTime ConvergenceEngine::run(std::uint64_t max_events) {
  const std::uint64_t processed_at_entry = processed_;
  if (shards_.size() == 1) {
    Shard& shard = *shards_[0];
    while (!shard.queue.empty()) {
      processed_ += run_shard_window(
          0, kEndOfTime, remaining_cap(max_events, processed_at_entry));
      check_budget(max_events, processed_at_entry);
    }
    now_ = std::max(now_, shard.now);
    shard.now = now_;
    last_run_processed_ = processed_ - processed_at_entry;
    return now_;
  }

  ensure_workers();
  for (;;) {
    bool any = false;
    sim::SimTime next;
    for (const auto& shard : shards_) {
      if (shard->queue.empty()) continue;
      const sim::SimTime t = shard->queue.next_time();
      if (!any || t < next) next = t;
      any = true;
    }
    if (!any) break;

    // Split the remaining budget across the shards (+1 so a small
    // remainder never becomes cap 0 = unlimited): the per-epoch overshoot
    // stays ~1x the budget instead of Kx.  A shard that stops mid-window
    // just resumes the same deterministic event order next epoch — fire
    // times don't change, so results are unaffected.
    std::uint64_t cap = remaining_cap(max_events, processed_at_entry);
    if (cap != 0) cap = cap / shards_.size() + 1;
    run_epoch(next + epoch_, cap);

    // The barrier has passed (no worker is still in a window): propagate
    // the first captured failure, lowest shard index first for
    // determinism.  The engine, like a half-run simulation, is not
    // reusable afterwards.
    for (std::exception_ptr& error : errors_) {
      if (error != nullptr) {
        const std::exception_ptr first = error;
        for (std::exception_ptr& e : errors_) e = nullptr;
        std::rethrow_exception(first);
      }
    }

    // Publish the cross-shard mail into the destination queues before the
    // next window opens.
    for (auto& box : outbox_) {
      for (Mail& mail : box) {
        insert(mail.dst, mail.at, mail.key, std::move(mail.action));
      }
      box.clear();
    }
    for (const std::uint64_t fired : fired_) processed_ += fired;
    check_budget(max_events, processed_at_entry);
  }

  sim::SimTime global = now_;
  for (const auto& shard : shards_) global = std::max(global, shard->now);
  now_ = global;
  for (const auto& shard : shards_) shard->now = global;
  last_run_processed_ = processed_ - processed_at_entry;
  return now_;
}

void ConvergenceEngine::run_epoch(sim::SimTime end, std::uint64_t cap) {
  // The window's worklist: shards that actually hold an event before `end`.
  // Running an idle shard was always a no-op (its window fires nothing), so
  // skipping it is byte-identical — but an incremental delta (one flap)
  // touches only a couple of shards per window, and waking the worker pool
  // for the idle rest would spend a mutex round-trip per epoch on nothing.
  active_.clear();
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    fired_[s] = 0;
    if (!shards_[s]->queue.empty() && shards_[s]->queue.next_time() < end) {
      active_.push_back(s);
    }
  }
  if (workers_ == 1 || active_.size() <= 1) {
    // Inline: exceptions propagate directly (no pool thread is mid-window).
    for (const std::size_t s : active_) {
      fired_[s] = run_shard_window(s, end, cap);
    }
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    window_end_ = end;
    window_cap_ = cap;
    ++generation_;
    pending_ = workers_ - 1;
  }
  cv_start_.notify_all();
  // The caller is worker 0.  Capture instead of throwing: the barrier
  // must complete before anything unwinds, or the pool would still be
  // firing events while the caller's state is being torn down.
  for (std::size_t s = 0; s < shards_.size(); s += workers_) {
    try {
      fired_[s] = run_shard_window(s, end, cap);
    } catch (...) {
      errors_[s] = std::current_exception();
    }
  }
  std::unique_lock<std::mutex> lock(mu_);
  cv_done_.wait(lock, [this] { return pending_ == 0; });
}

void ConvergenceEngine::ensure_workers() {
  if (workers_ <= 1 || !threads_.empty()) return;
  threads_.reserve(workers_ - 1);
  for (std::size_t w = 1; w < workers_; ++w) {
    threads_.emplace_back([this, w] { worker_loop(w); });
  }
}

void ConvergenceEngine::worker_loop(std::size_t w) {
  std::uint64_t seen = 0;
  for (;;) {
    sim::SimTime end;
    std::uint64_t cap = 0;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_start_.wait(lock, [&] { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
      end = window_end_;
      cap = window_cap_;
    }
    for (std::size_t s = w; s < shards_.size(); s += workers_) {
      try {
        fired_[s] = run_shard_window(s, end, cap);
      } catch (...) {
        // Surfaced by run() after the barrier; an escape here would
        // std::terminate the process with no diagnostic.
        errors_[s] = std::current_exception();
      }
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (--pending_ == 0) cv_done_.notify_one();
    }
  }
}

}  // namespace lispcp::routing
