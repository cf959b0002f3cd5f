#include "reference.hpp"

#include <algorithm>
#include <numeric>
#include <utility>

#include "common.hpp"

namespace lispcp::benchmark {

namespace {

constexpr std::size_t kSlots = std::size_t{1} << 22;  // 16 MB of uint32
constexpr std::size_t kTableSlots = std::size_t{1} << 17;  // 1 MB
constexpr int kChaseSteps = 400'000;
constexpr int kTableInserts = 60'000;
constexpr int kHeapPushes = 60'000;

[[nodiscard]] std::uint64_t xorshift(std::uint64_t& x) {
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  return x;
}

}  // namespace

HostReference::HostReference() : next_(kSlots), table_(kTableSlots) {
  // Sattolo's shuffle: a uniformly random single cycle through every slot,
  // so the chase never settles into a cached loop.
  std::iota(next_.begin(), next_.end(), 0u);
  std::uint64_t x = 88172645463325252ull;
  for (std::size_t i = kSlots - 1; i > 0; --i) {
    std::swap(next_[i], next_[xorshift(x) % i]);
  }
  heap_.reserve(kHeapPushes);
}

std::uint64_t HostReference::work(int chase_steps) {
  std::uint32_t p = 0;
  for (int i = 0; i < chase_steps; ++i) p = next_[p];
  std::uint64_t x = 2463534242ull + p;
  std::fill(table_.begin(), table_.end(), 0);
  for (int i = 0; i < kTableInserts; ++i) {
    const std::uint64_t key = (xorshift(x) & 0xfffff) | 1;
    std::size_t slot = key & (kTableSlots - 1);
    while (table_[slot] != 0 && table_[slot] != key) {
      slot = (slot + 1) & (kTableSlots - 1);
    }
    table_[slot] = key;
  }
  heap_.clear();
  for (int i = 0; i < kHeapPushes; ++i) {
    heap_.push_back(xorshift(x));
    std::push_heap(heap_.begin(), heap_.end());
    if (i % 3 == 0) {
      std::pop_heap(heap_.begin(), heap_.end());
      heap_.pop_back();
    }
  }
  return p + heap_.front() + table_[x & (kTableSlots - 1)];
}

void HostReference::sample() {
  // Untimed: pull the working set back into the caches and TLB.
  sink_ += std::accumulate(next_.begin(), next_.end(), std::uint64_t{0});
  sink_ += work(kChaseSteps / 8);
  const double start = thread_cpu_s();
  sink_ += work(kChaseSteps);
  samples_.push_back(thread_cpu_s() - start);
}

double HostReference::footprint_mb() const {
  return static_cast<double>(next_.size() * sizeof(std::uint32_t) +
                             table_.size() * sizeof(std::uint64_t) +
                             heap_.capacity() * sizeof(std::uint64_t)) /
         (1024.0 * 1024.0);
}

}  // namespace lispcp::benchmark
