// shard_engine.hpp — the sharded BGP convergence engine.
//
// The DFZ studies converge a path-vector mesh over 1k+ ASes, and the global
// single-threaded event queue made that the wall-clock bottleneck of the F
// benches.  This engine partitions the AS graph into K shards — tier-1 and
// transit ASes pinned round-robin by tier index, stubs hashed by ASN — and
// gives each shard its own keyed event queue
// (sim::BasicEventQueue<sim::EventKey>) and clock.  Shards advance through
// barrier-synchronised epochs of length `epoch` (the engine's lookahead,
// the minimum cross-shard message delay): within a window [T, T+epoch) a
// shard fires only its local events, and anything it schedules for another
// shard — always at least `epoch` in the future — is published to a
// mailbox that the epoch barrier drains into the destination queue before
// the next window opens.
//
// **Determinism.**  Results are byte-identical for every shard count and
// worker count, because event ordering never depends on execution:
//
//   * a shard's queue orders same-instant events by the sim::EventKey
//     (cause time, content tag), both pure simulation facts, not by
//     insertion sequence;
//   * an event's handler touches only its owner's state, so the relative
//     order of same-instant events at *different* owners is immaterial;
//   * two distinct simultaneous events at the same owner always differ in
//     their key: deliveries are keyed by (from, to) and a session carries
//     at most one message per instant (MRAI serialises flushes), timers by
//     (owner, peer) and at most one MRAI timer per session is armed.
//
// With K=1 the engine degenerates to a single deterministic queue and
// reproduces the pre-sharding global-queue run (same event set; ties that
// the old queue broke by insertion order are broken by cause time, which
// coincides with insertion order for events scheduled at distinct
// instants).  See DESIGN.md §"Sharded BGP execution".
//
// Shard count (K, the determinism/partition parameter) is deliberately
// decoupled from worker count (W, the execution threads): K=8 on a 1-core
// host runs the same windows sequentially with zero barrier overhead and
// produces the same bytes as K=8 on 8 cores.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/flat_map.hpp"
#include "routing/as_graph.hpp"
#include "sim/event_queue.hpp"

namespace lispcp::routing {

struct ShardEngineConfig {
  /// RIB partitions.  Results are identical for any value; > 1 enables
  /// intra-point parallelism.
  std::size_t shards = 1;
  /// Lookahead: lower bound on every cross-shard event delay.  Must be
  /// positive when shards > 1.
  sim::SimDuration epoch;
  /// Worker threads driving the shards (0 = min(shards, hardware)).
  std::size_t workers = 0;
};

/// K deterministic shards plus the epoch-barrier run loop.
class ConvergenceEngine {
 public:
  ConvergenceEngine(const AsGraph& graph, ShardEngineConfig config);
  ~ConvergenceEngine();

  ConvergenceEngine(const ConvergenceEngine&) = delete;
  ConvergenceEngine& operator=(const ConvergenceEngine&) = delete;

  /// Home shard of `asn`; throws std::out_of_range if absent.
  [[nodiscard]] std::size_t shard_of(AsNumber asn) const;

  /// The global clock: the latest event fired by any completed run().
  /// Meaningful between runs (all shard clocks are aligned to it).
  [[nodiscard]] sim::SimTime now() const noexcept { return now_; }

  /// True when no event is pending on any shard.
  [[nodiscard]] bool idle() const noexcept;

  [[nodiscard]] std::uint64_t events_processed() const noexcept {
    return processed_;
  }

  /// Events fired by the most recent run() — the incremental cost of the
  /// last re-convergence (a full origination storm and a single-prefix
  /// flap differ by orders of magnitude here; the churn studies record it
  /// per event).
  [[nodiscard]] std::uint64_t last_run_processed() const noexcept {
    return last_run_processed_;
  }

  /// Advances the idle engine's clock by `by` without firing anything —
  /// the gap between two churn events in a long-lived simulation.  All
  /// shard clocks move together, so everything scheduled afterwards is
  /// cause-keyed relative to the new instant; event *cascades* are
  /// time-translation invariant (per-session jitter is a pure pair hash,
  /// MRAI and delivery delays are relative), which is what makes a plan
  /// spread over simulated days byte-comparable to back-to-back replays.
  /// Throws std::logic_error if events are pending.
  void advance(sim::SimDuration by);

  /// Schedules an event owned by `asn` (it executes on `asn`'s shard)
  /// `delay` after the caller's current virtual time — the firing event's
  /// instant when called from inside a run, the global clock otherwise.
  /// `tag` must uniquely name the event among simultaneous same-cause
  /// events at the same owner (use delivery_tag/timer_tag).  Cross-shard
  /// scheduling requires delay >= the engine's epoch (the lookahead
  /// contract); violating it throws std::logic_error.
  void schedule(AsNumber asn, sim::SimDuration delay, std::uint64_t tag,
                sim::EventAction action);

  /// Runs until every shard queue drains; returns the global convergence
  /// instant (unchanged if nothing was pending).  `max_events` bounds the
  /// events this call fires (0 = unlimited), guarding against runaway
  /// event chains: checked at epoch boundaries, it throws
  /// std::runtime_error once the call has fired that many.  Events of
  /// earlier runs do not count, so a long soak of small convergences
  /// never exhausts it.
  sim::SimTime run(std::uint64_t max_events = 0);

  // Content tags (bit 63 = event kind; endpoints must be < 2^31, checked
  // at construction).
  [[nodiscard]] static constexpr std::uint64_t delivery_tag(
      AsNumber from, AsNumber to) noexcept {
    return (static_cast<std::uint64_t>(from.value()) << 31) | to.value();
  }
  [[nodiscard]] static constexpr std::uint64_t timer_tag(
      AsNumber owner, AsNumber peer) noexcept {
    return (std::uint64_t{1} << 63) |
           (static_cast<std::uint64_t>(owner.value()) << 31) | peer.value();
  }

 private:
  using Queue = sim::BasicEventQueue<sim::EventKey>;
  /// One partition: its queue, ordered by (fire time, EventKey, insertion
  /// seq), and its clock — the fire time of the last event it ran, aligned
  /// to the global clock between runs.
  struct Shard {
    Queue queue;
    sim::SimTime now;
  };
  struct Mail {
    std::size_t dst;
    sim::SimTime at;
    sim::EventKey key;
    sim::EventAction action;
  };

  /// Queues an event on shard `dst`; throws std::invalid_argument if `at`
  /// is before that shard's clock.
  void insert(std::size_t dst, sim::SimTime at, sim::EventKey key,
              sim::EventAction action);
  /// Fires every event of shard `s` before `end` (including ones the window
  /// itself schedules before `end`) with the thread-local caller context
  /// set, stopping early once `cap` have fired (0 = unlimited); returns the
  /// number fired.
  std::uint64_t run_shard_window(std::size_t s, sim::SimTime end,
                                 std::uint64_t cap);
  /// One barrier-synchronised window across all shards.
  void run_epoch(sim::SimTime end, std::uint64_t cap);
  void ensure_workers();
  void worker_loop(std::size_t w);
  /// Budget left for the current run(), which began at
  /// `processed_at_entry` events.
  [[nodiscard]] std::uint64_t remaining_cap(
      std::uint64_t max_events, std::uint64_t processed_at_entry) const;
  void check_budget(std::uint64_t max_events,
                    std::uint64_t processed_at_entry) const;

  sim::SimDuration epoch_;
  std::size_t workers_ = 1;
  sim::SimTime now_;
  std::uint64_t processed_ = 0;
  std::uint64_t last_run_processed_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;
  /// ASN -> home shard (open-addressing: shard_of sits on every schedule()).
  core::FlatMap<std::uint32_t, std::uint32_t> home_;
  /// Per-source-shard mailboxes: written only by the worker driving the
  /// source shard during a window, drained by the barrier.
  std::vector<std::vector<Mail>> outbox_;
  std::vector<std::uint64_t> fired_;  ///< per-shard window event counts
  /// Scratch for run_epoch: shards holding an event before the window end.
  /// A small delta (one flap) leaves most shards idle; the epoch loop runs
  /// the active ones inline instead of waking the worker pool for them.
  std::vector<std::size_t> active_;
  /// Exceptions an event action raised on a pool thread, captured per
  /// shard so the barrier can complete before run() rethrows the first
  /// (lowest shard index — deterministic) on the caller.
  std::vector<std::exception_ptr> errors_;

  // Worker pool (spawned lazily; the run() caller acts as worker 0).
  std::vector<std::thread> threads_;
  std::mutex mu_;
  std::condition_variable cv_start_;
  std::condition_variable cv_done_;
  std::uint64_t generation_ = 0;
  std::size_t pending_ = 0;
  bool stop_ = false;
  sim::SimTime window_end_;
  std::uint64_t window_cap_ = 0;
};

}  // namespace lispcp::routing
