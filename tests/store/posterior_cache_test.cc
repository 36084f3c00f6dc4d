#include "store/posterior_cache.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"

namespace ltm {
namespace store {
namespace {

TEST(PosteriorCacheTest, HitAfterPut) {
  obs::MetricsRegistry metrics;
  PosteriorCache cache(4, &metrics);
  cache.Put("hp\tradcliffe", 7, 0.9);
  auto hit = cache.Get("hp\tradcliffe", 7);
  ASSERT_TRUE(hit.has_value());
  EXPECT_DOUBLE_EQ(*hit, 0.9);
  EXPECT_EQ(metrics.CounterValue("ltm_cache_posterior_hits_total"), 1u);
  EXPECT_EQ(metrics.CounterValue("ltm_cache_posterior_misses_total"), 0u);
}

TEST(PosteriorCacheTest, MissOnUnknownKey) {
  obs::MetricsRegistry metrics;
  PosteriorCache cache(4, &metrics);
  EXPECT_FALSE(cache.Get("nope", 1).has_value());
  EXPECT_EQ(metrics.CounterValue("ltm_cache_posterior_misses_total"), 1u);
}

TEST(PosteriorCacheTest, StaleEpochIsAMissAndEvicts) {
  PosteriorCache cache(4);
  cache.Put("k", 1, 0.4);
  // New evidence arrived (epoch advanced): the cached posterior no longer
  // reflects the store and must not be served.
  EXPECT_FALSE(cache.Get("k", 2).has_value());
  EXPECT_EQ(cache.size(), 0u);
  // Even asking again with the original epoch misses now.
  EXPECT_FALSE(cache.Get("k", 1).has_value());
}

TEST(PosteriorCacheTest, LruEvictionDropsTheColdestEntry) {
  PosteriorCache cache(2);
  cache.Put("a", 1, 0.1);
  cache.Put("b", 1, 0.2);
  ASSERT_TRUE(cache.Get("a", 1).has_value());  // warms "a"
  cache.Put("c", 1, 0.3);                      // evicts "b"
  EXPECT_TRUE(cache.Get("a", 1).has_value());
  EXPECT_FALSE(cache.Get("b", 1).has_value());
  EXPECT_TRUE(cache.Get("c", 1).has_value());
  EXPECT_EQ(cache.size(), 2u);
}

// Two writers race a store advance: writer A materializes at epoch 1,
// the store advances, writer B recomputes and publishes at epoch 2, and
// only then does slow A finish its Put. A's stale posterior must not
// clobber B's — readers at epoch 2 keep getting B's value, and A's
// pre-advance value is gone for good.
TEST(PosteriorCacheTest, SlowWriterCannotDowngradeEpoch) {
  PosteriorCache cache(4);
  cache.Put("k", 2, 0.9);  // writer B, fresh evidence
  cache.Put("k", 1, 0.1);  // writer A, stale epoch — dropped
  auto hit = cache.Get("k", 2);
  ASSERT_TRUE(hit.has_value());
  EXPECT_DOUBLE_EQ(*hit, 0.9);
  EXPECT_FALSE(cache.Get("k", 1).has_value());
  // The lagging Get above must NOT have evicted the fresher entry —
  // otherwise A's full miss-then-recompute-then-Put cycle would launder
  // its stale posterior past the downgrade guard via an empty slot.
  auto still_fresh = cache.Get("k", 2);
  ASSERT_TRUE(still_fresh.has_value());
  EXPECT_DOUBLE_EQ(*still_fresh, 0.9);
}

// The full slow-reader cycle: Get at the old epoch (miss), recompute,
// Put at the old epoch. The fresher posterior must survive the whole
// sequence, not just a bare Put.
TEST(PosteriorCacheTest, StaleGetThenPutCannotEvictFresherEntry) {
  PosteriorCache cache(4);
  cache.Put("k", 2, 0.9);
  EXPECT_FALSE(cache.Get("k", 1).has_value());  // lagging reader misses
  cache.Put("k", 1, 0.1);                       // ...and republishes stale
  auto hit = cache.Get("k", 2);
  ASSERT_TRUE(hit.has_value());
  EXPECT_DOUBLE_EQ(*hit, 0.9);
}

TEST(PosteriorCacheTest, SameEpochPutRefreshes) {
  PosteriorCache cache(4);
  cache.Put("k", 3, 0.4);
  cache.Put("k", 3, 0.6);  // idempotent recomputation wins
  auto hit = cache.Get("k", 3);
  ASSERT_TRUE(hit.has_value());
  EXPECT_DOUBLE_EQ(*hit, 0.6);
}

// The concurrent shape of the same regression: one thread keeps
// publishing at the old epoch while another publishes at the new one.
// Whatever the interleaving, the entry's final epoch must be the newer
// one — Get(new) never misses because a stale writer won the race.
TEST(PosteriorCacheTest, ConcurrentStaleWriterNeverWins) {
  PosteriorCache cache(8);
  cache.Put("k", 2, 0.9);
  std::thread stale([&] {
    for (int i = 0; i < 1000; ++i) {
      (void)cache.Get("k", 1);  // the real serving cycle: miss first...
      cache.Put("k", 1, 0.1);   // ...then republish at the old epoch
    }
  });
  std::thread fresh([&] {
    for (int i = 0; i < 1000; ++i) cache.Put("k", 2, 0.9);
  });
  stale.join();
  fresh.join();
  auto hit = cache.Get("k", 2);
  ASSERT_TRUE(hit.has_value());
  EXPECT_DOUBLE_EQ(*hit, 0.9);
}

TEST(PosteriorCacheTest, PutRefreshesExistingKey) {
  PosteriorCache cache(2);
  cache.Put("k", 1, 0.1);
  cache.Put("k", 2, 0.9);
  EXPECT_EQ(cache.size(), 1u);
  auto hit = cache.Get("k", 2);
  ASSERT_TRUE(hit.has_value());
  EXPECT_DOUBLE_EQ(*hit, 0.9);
}

TEST(PosteriorCacheTest, ZeroCapacityDisablesCaching) {
  PosteriorCache cache(0);
  cache.Put("k", 1, 0.5);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.Get("k", 1).has_value());
}

TEST(PosteriorCacheTest, ClearEmptiesTheCache) {
  PosteriorCache cache(4);
  cache.Put("a", 1, 0.1);
  cache.Put("b", 1, 0.2);
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.Get("a", 1).has_value());
}

TEST(PosteriorCacheTest, StatsSnapshotCountsEverything) {
  obs::MetricsRegistry metrics;
  PosteriorCache cache(2, &metrics);
  const auto count = [&metrics](const std::string& what) {
    return metrics.CounterValue("ltm_cache_posterior_" + what + "_total");
  };
  cache.Put("a", 1, 0.1);
  cache.Put("b", 1, 0.2);
  (void)cache.Get("a", 1);   // hit
  (void)cache.Get("c", 1);   // miss
  cache.Put("c", 1, 0.3);    // LRU-evicts "b"
  EXPECT_EQ(count("puts"), 3u);
  EXPECT_EQ(count("hits"), 1u);
  EXPECT_EQ(count("misses"), 1u);
  EXPECT_EQ(count("evictions"), 1u);
  // Same-thread hits are not coalesced reads.
  EXPECT_EQ(count("coalesced"), 0u);
  EXPECT_EQ(metrics.GaugeValue("ltm_cache_posterior_size"), 2);
  EXPECT_EQ(metrics.GaugeValue("ltm_cache_posterior_capacity"), 2);
  // Stale-epoch eviction and Clear both count as evictions.
  (void)cache.Get("a", 9);
  EXPECT_EQ(count("evictions"), 2u);
  cache.Clear();
  EXPECT_EQ(count("evictions"), 3u);
  EXPECT_EQ(metrics.GaugeValue("ltm_cache_posterior_size"), 0);
}

// A hit from any thread other than the entry's writer is a coalesced
// read — the signal that one materialization served several clients.
TEST(PosteriorCacheTest, CoalescedCountsOnlyCrossThreadHits) {
  obs::MetricsRegistry metrics;
  PosteriorCache cache(4, &metrics);
  cache.Put("k", 1, 0.5);
  ASSERT_TRUE(cache.Get("k", 1).has_value());  // writer's own hit
  EXPECT_EQ(metrics.CounterValue("ltm_cache_posterior_coalesced_total"), 0u);
  std::thread other([&] { ASSERT_TRUE(cache.Get("k", 1).has_value()); });
  other.join();
  EXPECT_EQ(metrics.CounterValue("ltm_cache_posterior_hits_total"), 2u);
  EXPECT_EQ(metrics.CounterValue("ltm_cache_posterior_coalesced_total"), 1u);
}

// TSan-covered: concurrent Put/Get and registry reads from several
// threads. Once the writers join, the counters must be consistent —
// every Get resolved to exactly one of hit or miss.
TEST(PosteriorCacheTest, ConcurrentStatsStayConsistent) {
  obs::MetricsRegistry metrics;
  PosteriorCache cache(64, &metrics);
  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, &metrics, t] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        const std::string key = "k" + std::to_string(i % 32);
        if (i % 3 == t % 3) cache.Put(key, 1, 0.5);
        (void)cache.Get(key, 1);
        if (i % 50 == 0) (void)metrics.RenderText();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const uint64_t hits = metrics.CounterValue("ltm_cache_posterior_hits_total");
  EXPECT_EQ(hits + metrics.CounterValue("ltm_cache_posterior_misses_total"),
            static_cast<uint64_t>(kThreads) * kOpsPerThread);
  EXPECT_LE(metrics.CounterValue("ltm_cache_posterior_coalesced_total"), hits);
  EXPECT_LE(metrics.GaugeValue("ltm_cache_posterior_size"),
            metrics.GaugeValue("ltm_cache_posterior_capacity"));
  EXPECT_EQ(metrics.GaugeValue("ltm_cache_posterior_size"),
            static_cast<int64_t>(cache.size()));
}

}  // namespace
}  // namespace store
}  // namespace ltm
