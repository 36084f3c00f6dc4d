#include "store/block_cache.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "obs/metrics.h"

namespace ltm {
namespace store {
namespace {

std::shared_ptr<const std::string> Block(size_t bytes, char fill = 'x') {
  return std::make_shared<const std::string>(bytes, fill);
}

/// The cache counts into the registry a test injects.
uint64_t Count(const obs::MetricsRegistry& metrics, const std::string& what) {
  return metrics.CounterValue("ltm_cache_block_" + what + "_total");
}

int64_t SizeBytes(const obs::MetricsRegistry& metrics) {
  return metrics.GaugeValue("ltm_cache_block_size_bytes");
}

TEST(BlockCacheTest, HitsMissesAndInsertsAreAccounted) {
  obs::MetricsRegistry metrics;
  BlockCache cache(/*capacity_bytes=*/1024, /*num_shards=*/1, &metrics);
  EXPECT_EQ(cache.Get(1, 0), nullptr);

  cache.Insert(1, 0, Block(100, 'a'));
  auto hit = cache.Get(1, 0);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->size(), 100u);
  EXPECT_EQ((*hit)[0], 'a');
  // Same segment, different offset: a distinct key.
  EXPECT_EQ(cache.Get(1, 1), nullptr);

  EXPECT_EQ(Count(metrics, "hits"), 1u);
  EXPECT_EQ(Count(metrics, "misses"), 2u);
  EXPECT_EQ(Count(metrics, "inserts"), 1u);
  EXPECT_EQ(Count(metrics, "evictions"), 0u);
  EXPECT_EQ(SizeBytes(metrics), 100);
  EXPECT_EQ(metrics.GaugeValue("ltm_cache_block_capacity_bytes"), 1024);
  // Exactly one entry: the inserted key hits, its neighbour misses.
  EXPECT_NE(cache.Get(1, 0), nullptr);
  EXPECT_EQ(cache.Get(1, 1), nullptr);
  EXPECT_EQ(Count(metrics, "hits"), 2u);
}

TEST(BlockCacheTest, EvictsLeastRecentlyUsedFirst) {
  // One shard so the LRU order is global and deterministic.
  obs::MetricsRegistry metrics;
  BlockCache cache(/*capacity_bytes=*/100, /*num_shards=*/1, &metrics);
  cache.Insert(1, 0, Block(40));
  cache.Insert(1, 1, Block(40));
  // Touch (1,0) so (1,1) is now the coldest entry.
  ASSERT_NE(cache.Get(1, 0), nullptr);

  cache.Insert(1, 2, Block(40));  // 120 > 100: one eviction
  EXPECT_EQ(Count(metrics, "evictions"), 1u);
  EXPECT_EQ(cache.Get(1, 1), nullptr);     // the cold one went
  EXPECT_NE(cache.Get(1, 0), nullptr);     // the touched one stayed
  EXPECT_NE(cache.Get(1, 2), nullptr);
  EXPECT_LE(SizeBytes(metrics), 100);
}

TEST(BlockCacheTest, ReinsertingAKeyReplacesInPlace) {
  obs::MetricsRegistry metrics;
  BlockCache cache(1024, 1, &metrics);
  cache.Insert(1, 0, Block(100, 'a'));
  cache.Insert(1, 0, Block(60, 'b'));
  EXPECT_EQ(SizeBytes(metrics), 60);
  EXPECT_EQ(Count(metrics, "inserts"), 2u);
  // One entry, holding the second block.
  auto got = cache.Get(1, 0);
  ASSERT_NE(got, nullptr);
  EXPECT_EQ((*got)[0], 'b');
  EXPECT_EQ(Count(metrics, "hits"), 1u);
}

TEST(BlockCacheTest, OversizedEntryIsKeptAndEverythingElseEvicted) {
  // A single block larger than the budget must still be cacheable —
  // otherwise a hot oversized block would re-read from disk forever.
  obs::MetricsRegistry metrics;
  BlockCache cache(100, 1, &metrics);
  cache.Insert(1, 0, Block(40));
  cache.Insert(1, 1, Block(300));
  EXPECT_EQ(cache.Get(1, 0), nullptr);
  EXPECT_NE(cache.Get(1, 1), nullptr);
  // One entry left: of the two keys, only the oversized one hits.
  EXPECT_EQ(Count(metrics, "hits"), 1u);
  EXPECT_EQ(SizeBytes(metrics), 300);
}

TEST(BlockCacheTest, EraseSegmentDropsOnlyThatSegmentsBlocks) {
  obs::MetricsRegistry metrics;
  BlockCache cache(1 << 20, 4, &metrics);
  for (uint64_t off = 0; off < 8; ++off) {
    cache.Insert(1, off, Block(10));
    cache.Insert(2, off, Block(10));
  }
  const uint64_t evictions_before = Count(metrics, "evictions");
  cache.EraseSegment(1);
  // Purging a dead segment is not an eviction (capacity pressure).
  EXPECT_EQ(Count(metrics, "evictions"), evictions_before);
  EXPECT_EQ(SizeBytes(metrics), 80);
  for (uint64_t off = 0; off < 8; ++off) {
    EXPECT_EQ(cache.Get(1, off), nullptr);
    EXPECT_NE(cache.Get(2, off), nullptr);
  }
  // Eight entries survive: exactly segment 2's lookups hit.
  EXPECT_EQ(Count(metrics, "hits"), 8u);
}

TEST(BlockCacheTest, ZeroCapacityDisablesTheCache) {
  obs::MetricsRegistry metrics;
  BlockCache cache(0, 8, &metrics);
  cache.Insert(1, 0, Block(10));
  EXPECT_EQ(cache.Get(1, 0), nullptr);
  EXPECT_EQ(Count(metrics, "hits"), 0u);
  EXPECT_EQ(SizeBytes(metrics), 0);
}

TEST(BlockCacheTest, ShardsPartitionTheCapacity) {
  // Keys spread over many shards; total size must respect the global
  // budget even though each shard enforces only its share.
  obs::MetricsRegistry metrics;
  BlockCache cache(/*capacity_bytes=*/1024, /*num_shards=*/8, &metrics);
  for (uint64_t seg = 0; seg < 16; ++seg) {
    for (uint64_t off = 0; off < 16; ++off) {
      cache.Insert(seg, off, Block(64));
    }
  }
  EXPECT_GT(Count(metrics, "evictions"), 0u);
  // Every shard may briefly hold one oversized resident beyond its
  // share; with 64-byte blocks the steady state stays within budget.
  EXPECT_LE(SizeBytes(metrics), 1024 + 8 * 64);
  EXPECT_EQ(Count(metrics, "inserts"), 16u * 16u);
}

// Caches sharing one registry add up, and a destroyed cache takes its
// bytes and capacity back out.
TEST(BlockCacheTest, GaugesSumAcrossCachesAndDropWithTheCache) {
  obs::MetricsRegistry metrics;
  BlockCache kept(1000, 1, &metrics);
  kept.Insert(1, 0, Block(10));
  {
    BlockCache dropped(500, 1, &metrics);
    dropped.Insert(1, 0, Block(30));
    EXPECT_EQ(SizeBytes(metrics), 40);
    EXPECT_EQ(metrics.GaugeValue("ltm_cache_block_capacity_bytes"), 1500);
  }
  EXPECT_EQ(SizeBytes(metrics), 10);
  EXPECT_EQ(metrics.GaugeValue("ltm_cache_block_capacity_bytes"), 1000);
}

}  // namespace
}  // namespace store
}  // namespace ltm
