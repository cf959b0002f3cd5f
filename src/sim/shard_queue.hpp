// shard_queue.hpp — the per-shard event queue behind the sharded BGP
// convergence engine (routing/shard_engine.hpp).
//
// The global EventQueue breaks same-instant ties by insertion order, which
// makes a single-threaded run deterministic but couples the tie-break to
// *execution* order: partition the simulation across K queues and the
// insertion sequence — and with it the result — would depend on K.  This
// queue instead orders events by an **identity key** that is a pure
// function of simulation facts:
//
//     (fire time, cause time, content tag, insertion seq)
//
// where the cause time is the virtual instant the event was scheduled at
// and the tag names the event itself (message endpoints + event kind).  Two
// runs that generate the same event set — regardless of how the speakers
// are sharded or on how many workers the shards execute — fire the events
// in the same order.  The insertion seq is a last-resort stabiliser only:
// engine clients must choose tags so that no two distinct simultaneous
// events at the same state-carrying endpoint ever collide on (cause, tag)
// (see DESIGN.md §"Sharded BGP execution" for the BGP argument).
//
// Not thread-safe by itself: one worker drives a shard's window at a time,
// and the engine's epoch barrier publishes cross-shard insertions.
#pragma once

#include <compare>
#include <cstdint>
#include <vector>

#include "core/inline_function.hpp"
#include "sim/time.hpp"

namespace lispcp::sim {

/// Same inline-capture closure type as the global EventQueue (the alias is
/// redeclared identically in event_queue.hpp; either header suffices).
using EventAction = core::InlineFunction<void(), 88>;

/// The execution-independent part of an event's ordering key.
struct EventKey {
  /// Virtual time the event was scheduled at (its cause's fire time).
  std::int64_t cause_ns = 0;
  /// Content tag naming the event (kind bit + endpoint ids); see
  /// routing::ConvergenceEngine for the BGP encoding.
  std::uint64_t tag = 0;

  friend constexpr auto operator<=>(const EventKey&,
                                    const EventKey&) noexcept = default;
};

/// A deterministic, identity-keyed event queue for one shard.
class ShardQueue {
 public:
  ShardQueue() = default;

  ShardQueue(const ShardQueue&) = delete;
  ShardQueue& operator=(const ShardQueue&) = delete;

  /// Enqueues `action` to fire at absolute time `at` (>= now()).
  void schedule(SimTime at, EventKey key, EventAction action);

  [[nodiscard]] bool empty() const noexcept { return heap_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return heap_.size(); }

  /// Fire time of the earliest event; meaningful only when !empty().
  [[nodiscard]] SimTime next_time() const noexcept;

  /// Fires every event with time < `end` in (time, key, seq) order,
  /// advancing now() through each.  Events scheduled *during* the window
  /// with fire times before `end` fire in the same call.  Stops early once
  /// `max_events` have fired (0 = unlimited); returns the number fired.
  std::uint64_t run_window(SimTime end, std::uint64_t max_events = 0);

  /// The shard's local clock: the fire time of the last event run_window
  /// processed (or whatever set_now installed).
  [[nodiscard]] SimTime now() const noexcept { return now_; }
  /// Barrier synchronisation hook: the engine aligns all shard clocks to
  /// the global convergence instant when a run completes.
  void set_now(SimTime t) noexcept { now_ = t; }

 private:
  struct Entry {
    SimTime time;
    EventKey key;
    std::uint64_t seq;
    EventAction action;
  };
  /// Min-heap order over (time, key, seq).
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const noexcept {
      if (a.time != b.time) return a.time > b.time;
      if (a.key != b.key) return a.key > b.key;
      return a.seq > b.seq;
    }
  };

  std::vector<Entry> heap_;
  SimTime now_;
  std::uint64_t seq_ = 0;
};

}  // namespace lispcp::sim
