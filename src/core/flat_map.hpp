// flat_map.hpp — open-addressing hash containers with SoA slot storage.
//
// For the point-lookup tables on the hot paths: the BGP fabric's prefix
// and AS indexes, the shard engine's home map, the map-cache's prefix and
// RLOC indexes, and the aggregate engine's per-destination state.  None
// of them needs ordered iteration on the hot path; where order matters,
// callers take an explicit sorted snapshot.  The containers are
// linear-probing open addressing over parallel key/value/state arrays
// (structure-of-arrays: a probe run touches only the key array), power-of-
// two capacity, tombstone deletion with same-size rehash when tombstones
// accumulate.
//
// Iteration (for_each) runs in *slot* order, which depends on capacity
// history — callers that need a reproducible order must sort, which is the
// point of sorted_keys(): the byte-identical-records contract must never
// rest on hash-table order (DESIGN.md "Memory layout and the perf
// ratchet").
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

namespace lispcp::core {

namespace detail {
/// splitmix64 finaliser: the element hashes here (addresses, prefixes,
/// ASNs) are mostly identity functions over structured values, whose low
/// bits are often constant (site blocks are /20-aligned) — exactly the bits
/// a power-of-two mask keeps.
inline std::size_t mix_hash(std::size_t h) noexcept {
  std::uint64_t x = h;
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return static_cast<std::size_t>(x);
}
}  // namespace detail

template <typename K, typename V, typename Hash = std::hash<K>>
class FlatMap {
  enum : std::uint8_t { kEmpty = 0, kFull = 1, kTombstone = 2 };

 public:
  FlatMap() = default;

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }

  [[nodiscard]] V* find(const K& key) noexcept {
    const std::size_t i = locate(key);
    return i == npos ? nullptr : &values_[i];
  }
  [[nodiscard]] const V* find(const K& key) const noexcept {
    const std::size_t i = locate(key);
    return i == npos ? nullptr : &values_[i];
  }
  [[nodiscard]] bool contains(const K& key) const noexcept {
    return locate(key) != npos;
  }

  /// The value for `key`, default-constructed on first access.
  V& operator[](const K& key) { return *insert_slot(key).first; }

  /// Returns (value*, inserted).
  std::pair<V*, bool> try_emplace(const K& key) { return insert_slot(key); }

  void insert_or_assign(const K& key, V value) {
    *insert_slot(key).first = std::move(value);
  }

  /// Removes `key`; returns 1 if it was present.  The slot's value is
  /// reset so erased entries do not pin their buffers.
  std::size_t erase(const K& key) {
    const std::size_t i = locate(key);
    if (i == npos) return 0;
    state_[i] = kTombstone;
    values_[i] = V{};
    --size_;
    return 1;
  }

  void clear() {
    keys_.clear();
    values_.clear();
    state_.clear();
    size_ = 0;
    used_ = 0;
  }

  /// Pre-sizes the table for `n` live entries: capacity jumps straight to
  /// the power-of-two the growth policy would reach anyway, so a build-up
  /// of known size (a BGP origination storm filling a RIB) performs zero
  /// intermediate rehashes.  Capacity history affects only slot order,
  /// which no sanctioned output depends on (sorted_keys() sorts).  No-op
  /// if the table is already at least that big.
  void reserve(std::size_t n) {
    const std::size_t capacity = capacity_for(n);
    if (capacity > state_.size()) rehash(capacity);
  }

  /// Visits every (key, value) in slot order (NOT deterministic across
  /// capacity histories — sort before anything order-sensitive).
  template <typename F>
  void for_each(F&& fn) const {
    for (std::size_t i = 0; i < state_.size(); ++i) {
      if (state_[i] == kFull) fn(keys_[i], values_[i]);
    }
  }
  template <typename F>
  void for_each(F&& fn) {
    for (std::size_t i = 0; i < state_.size(); ++i) {
      if (state_[i] == kFull) fn(keys_[i], values_[i]);
    }
  }

  /// The sorted-snapshot view: every key, ascending.  This is the only
  /// sanctioned way to iterate into output or event order.
  [[nodiscard]] std::vector<K> sorted_keys() const {
    std::vector<K> out;
    out.reserve(size_);
    for (std::size_t i = 0; i < state_.size(); ++i) {
      if (state_[i] == kFull) out.push_back(keys_[i]);
    }
    std::sort(out.begin(), out.end());
    return out;
  }

 private:
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  [[nodiscard]] std::size_t locate(const K& key) const noexcept {
    if (state_.empty()) return npos;
    const std::size_t mask = state_.size() - 1;
    std::size_t i = detail::mix_hash(Hash{}(key)) & mask;
    for (;;) {
      if (state_[i] == kEmpty) return npos;
      if (state_[i] == kFull && keys_[i] == key) return i;
      i = (i + 1) & mask;
    }
  }

  std::pair<V*, bool> insert_slot(const K& key) {
    if (state_.empty() || (used_ + 1) * 8 > state_.size() * 7) rehash();
    const std::size_t mask = state_.size() - 1;
    std::size_t i = detail::mix_hash(Hash{}(key)) & mask;
    std::size_t first_tombstone = npos;
    for (;;) {
      if (state_[i] == kFull) {
        if (keys_[i] == key) return {&values_[i], false};
      } else if (state_[i] == kTombstone) {
        if (first_tombstone == npos) first_tombstone = i;
      } else {  // empty: key is absent, insert here or at an earlier grave
        if (first_tombstone != npos) {
          i = first_tombstone;
        } else {
          ++used_;
        }
        state_[i] = kFull;
        keys_[i] = key;
        ++size_;
        return {&values_[i], true};
      }
      i = (i + 1) & mask;
    }
  }

  [[nodiscard]] static std::size_t capacity_for(std::size_t n) noexcept {
    std::size_t capacity = 16;
    while (capacity < n * 4) capacity *= 2;
    return capacity;
  }

  // Grow when genuinely full; a tombstone-heavy table rehashes in place.
  void rehash() { rehash(capacity_for(size_)); }

  void rehash(std::size_t capacity) {
    std::vector<K> old_keys = std::move(keys_);
    std::vector<V> old_values = std::move(values_);
    std::vector<std::uint8_t> old_state = std::move(state_);
    keys_.assign(capacity, K{});
    values_.assign(capacity, V{});
    state_.assign(capacity, kEmpty);
    size_ = 0;
    used_ = 0;
    const std::size_t mask = capacity - 1;
    for (std::size_t i = 0; i < old_state.size(); ++i) {
      if (old_state[i] != kFull) continue;
      std::size_t j = detail::mix_hash(Hash{}(old_keys[i])) & mask;
      while (state_[j] == kFull) j = (j + 1) & mask;
      state_[j] = kFull;
      keys_[j] = std::move(old_keys[i]);
      values_[j] = std::move(old_values[i]);
      ++size_;
      ++used_;
    }
  }

  std::vector<K> keys_;
  std::vector<V> values_;
  std::vector<std::uint8_t> state_;  ///< parallel to keys_/values_
  std::size_t size_ = 0;             ///< live entries
  std::size_t used_ = 0;             ///< live + tombstoned slots
};

/// Set counterpart, sharing FlatMap's probe logic.
template <typename K, typename Hash = std::hash<K>>
class FlatSet {
 public:
  [[nodiscard]] std::size_t size() const noexcept { return map_.size(); }
  [[nodiscard]] bool empty() const noexcept { return map_.empty(); }
  [[nodiscard]] bool contains(const K& key) const noexcept {
    return map_.contains(key);
  }
  /// Returns true iff newly inserted.
  bool insert(const K& key) { return map_.try_emplace(key).second; }
  std::size_t erase(const K& key) { return map_.erase(key); }
  void clear() { map_.clear(); }
  void reserve(std::size_t n) { map_.reserve(n); }
  /// Visits every key in slot order (NOT deterministic — see FlatMap).
  template <typename F>
  void for_each(F&& fn) const {
    map_.for_each([&fn](const K& key, const auto&) { fn(key); });
  }
  [[nodiscard]] std::vector<K> sorted_keys() const {
    return map_.sorted_keys();
  }

 private:
  struct Nothing {};
  FlatMap<K, Nothing, Hash> map_;
};

}  // namespace lispcp::core
