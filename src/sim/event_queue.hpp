// event_queue.hpp — the discrete-event scheduler core of both simulators.
//
// A binary-heap priority queue of events ordered by (fire time, tie-break
// key, insertion seq), which makes every run deterministic.  The packet
// simulation's sim::EventQueue has no key, so same-instant events fire in
// scheduling order.  The sharded BGP engine (routing/shard_engine.hpp)
// keys each event by an EventKey, a pure function of simulation facts: its
// order then does not depend on how the work is split across K shard
// queues, as an insertion sequence would.  Cancellation is O(1) via a
// tombstone flag; cancelled entries are discarded lazily when popped.
//
// Storage: event records live in a slab pool (core/arena.hpp) owned by the
// queue, not in one shared_ptr allocation per event — scheduling in steady
// state allocates nothing (the action's capture is inline in the pooled
// record, see core/inline_function.hpp), and a heap sift moves only the
// small (time, key, seq, slot) entry.  Handles stay safe across every
// destruction order the nodes exercise: an EventHandle names a record by
// (pool, index, generation); firing or cancelling releases the slot and
// bumps its generation, so a stale handle to a recycled slot can never
// cancel the wrong event, and a handle that outlives the queue simply
// finds the pool gone.
#pragma once

#include <compare>
#include <cstdint>
#include <memory>
#include <queue>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "core/arena.hpp"
#include "core/inline_function.hpp"
#include "sim/time.hpp"

namespace lispcp::sim {

/// The event-closure type: captures up to the inline capacity live in the
/// pooled record itself (larger ones fall back to one heap allocation).
using EventAction = core::InlineFunction<void(), 88>;

/// The tie-break key of sim::EventQueue: empty, so same-instant events fire
/// in insertion order.
struct NoKey {
  friend constexpr auto operator<=>(const NoKey&, const NoKey&) noexcept =
      default;
};

/// The execution-independent tie-break key of the sharded BGP engine.
struct EventKey {
  /// Virtual time the event was scheduled at (its cause's fire time).
  std::int64_t cause_ns = 0;
  /// Content tag naming the event (kind bit + endpoint ids); see
  /// routing::ConvergenceEngine for the BGP encoding.
  std::uint64_t tag = 0;

  friend constexpr auto operator<=>(const EventKey&,
                                    const EventKey&) noexcept = default;
};

namespace detail {

/// The pooled record store behind one queue, shared (via weak_ptr) with the
/// handles it issued.
struct EventRecordPool {
  struct Record {
    EventAction action;
    bool cancelled = false;
    bool daemon = false;
  };

  core::Pool<Record> records;
  /// Exact live-foreground count (cancellation adjusts it immediately).
  std::uint64_t foreground_live = 0;

  [[nodiscard]] bool matches(std::uint32_t index,
                             std::uint32_t generation) const noexcept {
    return records.generation(index) == generation;
  }

  bool cancel(std::uint32_t index, std::uint32_t generation) noexcept {
    if (!matches(index, generation)) return false;
    Record& record = records[index];
    if (record.cancelled) return false;
    record.cancelled = true;
    record.action.reset();  // release captured state eagerly
    if (!record.daemon) --foreground_live;
    return true;
  }

  [[nodiscard]] bool pending(std::uint32_t index,
                             std::uint32_t generation) const noexcept {
    return matches(index, generation) && !records[index].cancelled;
  }
};

}  // namespace detail

/// Handle for cancelling a scheduled event.  Default-constructed handles are
/// inert; cancelling twice is harmless.
class EventHandle {
 public:
  EventHandle() = default;

  /// Cancels the event if it has not fired yet.  Returns true iff this call
  /// transitioned the event from pending to cancelled.
  bool cancel() noexcept {
    auto pool = pool_.lock();
    return pool && pool->cancel(index_, generation_);
  }

  /// True while the event is still scheduled to fire.
  [[nodiscard]] bool pending() const noexcept {
    auto pool = pool_.lock();
    return pool && pool->pending(index_, generation_);
  }

 private:
  template <typename Key>
  friend class BasicEventQueue;
  EventHandle(std::weak_ptr<detail::EventRecordPool> pool, std::uint32_t index,
              std::uint32_t generation)
      : pool_(std::move(pool)), index_(index), generation_(generation) {}

  std::weak_ptr<detail::EventRecordPool> pool_;
  std::uint32_t index_ = 0;
  std::uint32_t generation_ = 0;
};

/// Time-ordered event queue, same-instant ties broken by `Key` and then by
/// insertion order.  Not thread-safe: one thread drives a queue at a time
/// (see DESIGN.md, determinism).
template <typename Key>
class BasicEventQueue {
 public:
  /// Enqueues `action` to fire at absolute time `at`.  A *daemon* event
  /// (periodic background maintenance: IRC refresh, RLOC probe cycles, NERD
  /// push timers) fires in time order like any other, but does not keep the
  /// simulation alive: Simulator::run() drains the queue only while
  /// foreground work remains.
  EventHandle schedule(SimTime at, Key key, EventAction action,
                       bool daemon = false) {
    const std::uint32_t index = pool_->records.allocate();
    auto& record = pool_->records[index];
    record.action = std::move(action);
    record.cancelled = false;
    record.daemon = daemon;
    if (!daemon) ++pool_->foreground_live;
    heap_.push(Entry{at, key, seq_++, index});
    return EventHandle(pool_, index, pool_->records.generation(index));
  }

  /// The key-less form: ties fire in insertion order.
  EventHandle schedule(SimTime at, EventAction action, bool daemon = false)
    requires std::is_empty_v<Key>
  {
    return schedule(at, Key{}, std::move(action), daemon);
  }

  /// Removes and returns the next live event, skipping tombstones.
  /// Returns false when the queue is empty (of live events).
  struct Fired {
    SimTime time;
    EventAction action;
    bool daemon = false;
  };
  bool pop(Fired& out) {
    prune();
    if (heap_.empty()) return false;
    const Entry entry = heap_.top();
    heap_.pop();
    auto& record = pool_->records[entry.index];
    out.time = entry.time;
    out.action = std::move(record.action);
    out.daemon = record.daemon;
    record.action.reset();
    if (!record.daemon) --pool_->foreground_live;
    // Releasing bumps the generation, so handles to the fired event report
    // !pending() and cancel() returns false.
    pool_->records.release(entry.index);
    return true;
  }

  /// Time of the next live event without popping it; throws
  /// std::logic_error when the queue is empty.
  [[nodiscard]] SimTime next_time() {
    prune();
    if (heap_.empty()) {
      throw std::logic_error("EventQueue::next_time on empty queue");
    }
    return heap_.top().time;
  }

  [[nodiscard]] bool empty() {
    prune();
    return heap_.empty();
  }

  /// True while at least one live non-daemon event is queued.  Exact (not
  /// lazy): cancellation adjusts the count immediately.
  [[nodiscard]] bool has_foreground() const noexcept {
    return pool_->foreground_live > 0;
  }

  /// Queued entries.  Upper bound on live events: cancelled entries that
  /// have not yet bubbled to the front are still counted (lazy deletion).
  [[nodiscard]] std::size_t size() const noexcept { return heap_.size(); }

 private:
  struct Entry {
    SimTime time;
    [[no_unique_address]] Key key;
    std::uint64_t seq;
    std::uint32_t index;  ///< record slot in the pool
  };
  // The packet simulation's hot heap: an empty key must cost no entry bytes.
  static_assert(!std::is_empty_v<Key> || sizeof(Entry) == 24);

  /// Min-heap order over (time, key, seq).
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const noexcept {
      if (a.time != b.time) return a.time > b.time;
      if (a.key != b.key) return a.key > b.key;
      return a.seq > b.seq;
    }
  };

  /// Drops cancelled entries from the front so top() is live.  They already
  /// gave back their foreground count in EventHandle::cancel(); here they
  /// are only physically discarded and their slots returned to the pool.
  void prune() {
    while (!heap_.empty() && pool_->records[heap_.top().index].cancelled) {
      pool_->records.release(heap_.top().index);
      heap_.pop();
    }
  }

  std::priority_queue<Entry, std::vector<Entry>, Later> heap_;
  std::shared_ptr<detail::EventRecordPool> pool_ =
      std::make_shared<detail::EventRecordPool>();
  std::uint64_t seq_ = 0;
};

/// The packet simulation's queue: same-instant ties fire FIFO.
using EventQueue = BasicEventQueue<NoKey>;

}  // namespace lispcp::sim
