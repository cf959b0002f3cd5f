#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "lisp/map_cache.hpp"

#include "sim/rng.hpp"

namespace lispcp::lisp {
namespace {

MapEntry entry_for(int i, std::uint32_t ttl = 900) {
  MapEntry entry;
  entry.eid_prefix = net::Ipv4Prefix(
      net::Ipv4Address(100, 64, static_cast<std::uint8_t>(i), 0), 24);
  entry.rlocs = {Rloc{net::Ipv4Address(10, 0, static_cast<std::uint8_t>(i), 1),
                      1, 100, true}};
  entry.ttl_seconds = ttl;
  return entry;
}

net::Ipv4Address eid_in(int i) {
  return net::Ipv4Address(100, 64, static_cast<std::uint8_t>(i), 10);
}

sim::SimTime at_seconds(int s) {
  return sim::SimTime::zero() + sim::SimDuration::seconds(s);
}

TEST(MapCache, MissOnEmpty) {
  MapCache cache;
  EXPECT_FALSE(cache.lookup(eid_in(1), at_seconds(0)) != nullptr);
  EXPECT_EQ(cache.stats().misses_absent, 1u);
  EXPECT_EQ(cache.stats().lookups, 1u);
}

TEST(MapCache, HitAfterInsert) {
  MapCache cache;
  cache.insert(entry_for(1), at_seconds(0));
  auto hit = cache.lookup(eid_in(1), at_seconds(1));
  ASSERT_TRUE(hit != nullptr);
  EXPECT_EQ(hit->eid_prefix, entry_for(1).eid_prefix);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_DOUBLE_EQ(cache.stats().hit_ratio(), 1.0);
}

TEST(MapCache, LongestPrefixMatchWithinCache) {
  MapCache cache;
  MapEntry wide;
  wide.eid_prefix = net::Ipv4Prefix::from_string("100.64.0.0/16");
  wide.rlocs = {Rloc{net::Ipv4Address(10, 9, 9, 9), 1, 100, true}};
  cache.insert(wide, at_seconds(0));
  cache.insert(entry_for(1), at_seconds(0));

  auto specific = cache.lookup(eid_in(1), at_seconds(1));
  ASSERT_TRUE(specific != nullptr);
  EXPECT_EQ(specific->rlocs[0].address, net::Ipv4Address(10, 0, 1, 1));

  auto fallback = cache.lookup(eid_in(7), at_seconds(1));
  ASSERT_TRUE(fallback != nullptr);
  EXPECT_EQ(fallback->rlocs[0].address, net::Ipv4Address(10, 9, 9, 9));
}

TEST(MapCache, TtlExpiryCountsAsExpiredMiss) {
  MapCache cache;
  cache.insert(entry_for(1, /*ttl=*/60), at_seconds(0));
  EXPECT_TRUE(cache.lookup(eid_in(1), at_seconds(59)) != nullptr);
  EXPECT_FALSE(cache.lookup(eid_in(1), at_seconds(60)) != nullptr);
  EXPECT_EQ(cache.stats().misses_expired, 1u);
  EXPECT_EQ(cache.size(), 0u);  // expired entry removed
}

TEST(MapCache, ReinsertRefreshesTtl) {
  MapCache cache;
  cache.insert(entry_for(1, 60), at_seconds(0));
  cache.insert(entry_for(1, 60), at_seconds(50));
  EXPECT_TRUE(cache.lookup(eid_in(1), at_seconds(100)) != nullptr);
  EXPECT_EQ(cache.stats().inserts, 1u);
  EXPECT_EQ(cache.stats().updates, 1u);
}

TEST(MapCache, LruEvictionAtCapacity) {
  MapCache cache(3);
  cache.insert(entry_for(1), at_seconds(0));
  cache.insert(entry_for(2), at_seconds(0));
  cache.insert(entry_for(3), at_seconds(0));
  // Touch 1 so 2 becomes the LRU victim.
  EXPECT_TRUE(cache.lookup(eid_in(1), at_seconds(1)) != nullptr);
  cache.insert(entry_for(4), at_seconds(2));
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_TRUE(cache.lookup(eid_in(1), at_seconds(3)) != nullptr);
  EXPECT_FALSE(cache.lookup(eid_in(2), at_seconds(3)) != nullptr);
  EXPECT_TRUE(cache.lookup(eid_in(3), at_seconds(3)) != nullptr);
  EXPECT_TRUE(cache.lookup(eid_in(4), at_seconds(3)) != nullptr);
}

TEST(MapCache, UnlimitedCapacityNeverEvicts) {
  MapCache cache(0);
  for (int i = 0; i < 200; ++i) cache.insert(entry_for(i % 250), at_seconds(0));
  EXPECT_EQ(cache.stats().evictions, 0u);
}

TEST(MapCache, EraseRemovesEntry) {
  MapCache cache;
  cache.insert(entry_for(1), at_seconds(0));
  EXPECT_TRUE(cache.erase(entry_for(1).eid_prefix));
  EXPECT_FALSE(cache.erase(entry_for(1).eid_prefix));
  EXPECT_FALSE(cache.lookup(eid_in(1), at_seconds(1)) != nullptr);
}

TEST(MapCache, ReachabilityUpdateByPrefix) {
  MapCache cache;
  cache.insert(entry_for(1), at_seconds(0));
  EXPECT_TRUE(cache.set_rloc_reachability(entry_for(1).eid_prefix,
                                          net::Ipv4Address(10, 0, 1, 1), false));
  auto entry = cache.lookup(eid_in(1), at_seconds(1));
  ASSERT_TRUE(entry != nullptr);
  EXPECT_FALSE(entry->rlocs[0].reachable);
  EXPECT_FALSE(cache.set_rloc_reachability(entry_for(2).eid_prefix,
                                           net::Ipv4Address(10, 0, 2, 1), false));
}

TEST(MapCache, ReachabilityUpdateAcrossAllEntries) {
  MapCache cache;
  MapEntry a = entry_for(1);
  MapEntry b = entry_for(2);
  const auto shared_rloc = net::Ipv4Address(10, 5, 5, 5);
  a.rlocs.push_back(Rloc{shared_rloc, 2, 100, true});
  b.rlocs.push_back(Rloc{shared_rloc, 2, 100, true});
  cache.insert(a, at_seconds(0));
  cache.insert(b, at_seconds(0));
  EXPECT_EQ(cache.set_rloc_reachability_all(shared_rloc, false), 2u);
  EXPECT_EQ(cache.set_rloc_reachability_all(shared_rloc, false), 0u);  // idempotent
}

TEST(MapCache, ClearResetsContents) {
  MapCache cache;
  cache.insert(entry_for(1), at_seconds(0));
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.lookup(eid_in(1), at_seconds(1)) != nullptr);
}

/// Property sweep: with a Zipf-skewed reference stream, the hit ratio must
/// increase strictly with capacity (the E1 mechanism).
TEST(MapCache, HitRatioGrowsWithCapacity) {
  std::vector<double> ratios;
  for (const std::size_t capacity : {4, 16, 64, 200}) {
    sim::Rng rng(99);
    sim::ZipfDistribution zipf(200, 0.9);
    MapCache cache(capacity);
    for (int i = 0; i < 20'000; ++i) {
      const int site = static_cast<int>(zipf(rng));
      const auto now = at_seconds(i / 100);
      if (cache.lookup(eid_in(site % 250), now) == nullptr) {
        cache.insert(entry_for(site % 250), now);
      }
    }
    ratios.push_back(cache.stats().hit_ratio());
  }
  for (std::size_t i = 1; i < ratios.size(); ++i) {
    EXPECT_GT(ratios[i], ratios[i - 1]) << "capacity step " << i;
  }
  EXPECT_GT(ratios.back(), 0.98);  // capacity 200: everything fits
}

// --- Reverse RLOC index (locator-flap hot path) -----------------------------

MapEntry shared_rloc_entry(int i, net::Ipv4Address rloc) {
  MapEntry entry = entry_for(i);
  entry.rlocs = {Rloc{rloc, 1, 100, true},
                 Rloc{net::Ipv4Address(10, 9, static_cast<std::uint8_t>(i), 1),
                      2, 100, true}};
  return entry;
}

TEST(MapCacheRlocIndex, FlapTouchesOnlyReferencingEntries) {
  MapCache cache;
  const net::Ipv4Address shared(10, 0, 0, 99);
  cache.insert(shared_rloc_entry(1, shared), at_seconds(0));
  cache.insert(shared_rloc_entry(2, shared), at_seconds(0));
  cache.insert(entry_for(3), at_seconds(0));  // does not reference `shared`

  EXPECT_EQ(cache.entries_referencing(shared), 2u);
  EXPECT_EQ(cache.set_rloc_reachability_all(shared, false), 2u);
  // Idempotent: already down, nothing flips.
  EXPECT_EQ(cache.set_rloc_reachability_all(shared, false), 0u);
  EXPECT_EQ(cache.set_rloc_reachability_all(shared, true), 2u);
  // Unknown locator: no entries, no work.
  EXPECT_EQ(cache.set_rloc_reachability_all(net::Ipv4Address(10, 0, 0, 98),
                                            false),
            0u);
}

TEST(MapCacheRlocIndex, EraseAndReplaceMaintainTheIndex) {
  MapCache cache;
  const net::Ipv4Address shared(10, 0, 0, 99);
  cache.insert(shared_rloc_entry(1, shared), at_seconds(0));
  cache.insert(shared_rloc_entry(2, shared), at_seconds(0));
  cache.erase(shared_rloc_entry(1, shared).eid_prefix);
  EXPECT_EQ(cache.entries_referencing(shared), 1u);

  // Replacing an entry with a different locator set must unindex the old
  // RLOCs — otherwise a later flap would chase stale prefixes.
  cache.insert(entry_for(2), at_seconds(1));
  EXPECT_EQ(cache.entries_referencing(shared), 0u);
  EXPECT_EQ(cache.set_rloc_reachability_all(shared, false), 0u);

  cache.clear();
  EXPECT_TRUE(cache.distinct_rlocs().empty());
}

TEST(MapCacheRlocIndex, DistinctRlocsMatchesLiveEntries) {
  MapCache cache;
  const net::Ipv4Address shared(10, 0, 0, 99);
  cache.insert(shared_rloc_entry(1, shared), at_seconds(0));
  cache.insert(shared_rloc_entry(2, shared), at_seconds(0));
  auto rlocs = cache.distinct_rlocs();
  // `shared` plus the two per-entry secondaries.
  EXPECT_EQ(rlocs.size(), 3u);
  EXPECT_NE(std::find(rlocs.begin(), rlocs.end(), shared), rlocs.end());
}

TEST(MapCacheRlocIndex, EvictionUnindexesTheVictim) {
  MapCache cache(/*capacity=*/1);
  const net::Ipv4Address shared(10, 0, 0, 99);
  cache.insert(shared_rloc_entry(1, shared), at_seconds(0));
  cache.insert(entry_for(2), at_seconds(0));  // evicts entry 1 (LRU)
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.entries_referencing(shared), 0u);
}

}  // namespace
}  // namespace lispcp::lisp
