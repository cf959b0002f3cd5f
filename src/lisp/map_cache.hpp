// map_cache.hpp — the ITR's EID-to-RLOC map-cache.
//
// Longest-prefix-match cache with TTL aging and LRU capacity eviction.  The
// paper's claim (i) hinges on this component's behaviour: "a hit might not
// necessarily be found, either because the mapping has aged out, or simply
// because it was never requested before" (§1).  Experiment E1 sweeps its
// capacity and the workload skew to regenerate exactly those miss causes.
//
// Storage layout: entries live in a flat slot vector with an intrusive
// doubly-linked LRU (prev/next slot indices), and the PrefixTrie maps an
// address straight to its slot index — the per-packet hit path is one trie
// walk plus one array access, with no node-based containers and no hash
// find.  The exact-match operations (insert/erase/failover) go through a
// FlatMap<prefix, slot>.  Anything order-sensitive (distinct_rlocs feeds
// the probe scheduler) is emitted from a sorted snapshot, never from hash
// order.
#pragma once

#include <cstdint>
#include <vector>

#include "core/flat_map.hpp"
#include "lisp/map_entry.hpp"
#include "net/prefix_trie.hpp"
#include "sim/time.hpp"

namespace lispcp::lisp {

struct MapCacheStats {
  std::uint64_t lookups = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses_absent = 0;   ///< never inserted (cold miss)
  std::uint64_t misses_expired = 0;  ///< entry present but TTL-aged out
  std::uint64_t inserts = 0;
  std::uint64_t updates = 0;
  std::uint64_t evictions = 0;  ///< LRU capacity evictions

  [[nodiscard]] double hit_ratio() const noexcept {
    return lookups == 0 ? 0.0
                        : static_cast<double>(hits) / static_cast<double>(lookups);
  }
};

/// Not a Node: a passive data structure embedded in the ITR (and, under
/// NERD, doubling as the full local database with capacity = 0 = unlimited).
class MapCache {
 public:
  /// `capacity` = maximum number of entries (0 means unlimited).
  explicit MapCache(std::size_t capacity = 0) : capacity_(capacity) {}

  /// LPM lookup of `eid` at time `now`, returning a view of the entry (valid
  /// until the next mutating call) or nullptr.  Expired entries are removed
  /// and counted as expired misses.  A hit refreshes LRU recency.
  [[nodiscard]] const MapEntry* lookup(net::Ipv4Address eid, sim::SimTime now) {
    return lookup_batch(eid, 1, now);
  }

  /// Batch form for the flow-aggregate workload engine: one LPM walk and one
  /// LRU touch, stats advanced by `count` lookups (all hit or all miss — a
  /// batch models same-epoch flows to one destination, which in packet mode
  /// would indeed probe the same entry back to back).
  [[nodiscard]] const MapEntry* lookup_batch(net::Ipv4Address eid,
                                             std::uint64_t count,
                                             sim::SimTime now);

  /// Inserts or replaces the entry for its EID prefix, stamped at `now`.
  /// Eviction runs if the cache is over capacity.
  void insert(const MapEntry& entry, sim::SimTime now);

  /// Marks one RLOC of an entry unreachable/reachable (failover handling).
  /// Returns false if no exact entry for `prefix` exists.
  bool set_rloc_reachability(const net::Ipv4Prefix& prefix,
                             net::Ipv4Address rloc, bool reachable);

  /// Marks `rloc` up/down in every entry that references it; returns the
  /// number of entries touched.  Used when locator-status propagation or a
  /// failover controller reports a locator change.  O(entries referencing
  /// `rloc`) via the reverse index — this is the failover hot path, and a
  /// full-cache scan would melt at f2_rib_scaling cache sizes.
  std::size_t set_rloc_reachability_all(net::Ipv4Address rloc, bool reachable);

  /// Every distinct locator address referenced by live entries (the RLOC
  /// probing working set), ascending.  Sorted because the probe scheduler
  /// turns this list into event order — it must not reflect table layout.
  [[nodiscard]] std::vector<net::Ipv4Address> distinct_rlocs() const;

  /// Number of live entries whose RLOC set references `rloc`.
  [[nodiscard]] std::size_t entries_referencing(net::Ipv4Address rloc) const;

  /// Removes the exact entry; returns true iff it existed.
  bool erase(const net::Ipv4Prefix& prefix);

  [[nodiscard]] std::size_t size() const noexcept { return live_; }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] const MapCacheStats& stats() const noexcept { return stats_; }

  void clear();

 private:
  static constexpr std::uint32_t kNone = static_cast<std::uint32_t>(-1);

  struct Slot {
    MapEntry entry;
    sim::SimTime expiry;
    std::uint32_t lru_prev = kNone;
    std::uint32_t lru_next = kNone;
  };

  [[nodiscard]] std::uint32_t acquire_slot();
  void erase_slot(std::uint32_t index);
  void touch(std::uint32_t index);
  void link_front(std::uint32_t index);
  void unlink(std::uint32_t index);
  void evict_if_needed();
  void index_rlocs(const MapEntry& entry);
  void unindex_rlocs(const MapEntry& entry);

  std::size_t capacity_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;  ///< retired slot indices (buffers kept)
  std::size_t live_ = 0;
  std::uint32_t lru_head_ = kNone;  ///< most recently used
  std::uint32_t lru_tail_ = kNone;  ///< eviction victim
  net::PrefixTrie<std::uint32_t> index_;  ///< LPM -> slot index
  core::FlatMap<net::Ipv4Prefix, std::uint32_t> by_prefix_;
  /// Reverse index: RLOC -> prefixes of entries referencing it, so locator
  /// flaps touch only the affected entries.
  core::FlatMap<net::Ipv4Address, core::FlatSet<net::Ipv4Prefix>> rloc_index_;
  MapCacheStats stats_;
};

}  // namespace lispcp::lisp
