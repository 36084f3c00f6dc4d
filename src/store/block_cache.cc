#include "store/block_cache.h"

#include <utility>

namespace ltm {
namespace store {

namespace {

size_t RoundUpToPowerOfTwo(size_t v) {
  size_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

}  // namespace

BlockCache::BlockCache(uint64_t capacity_bytes, size_t num_shards,
                       obs::MetricsRegistry* metrics)
    : capacity_bytes_(capacity_bytes),
      per_shard_capacity_(capacity_bytes /
                          RoundUpToPowerOfTwo(num_shards < 1 ? 1 : num_shards)),
      owned_metrics_(metrics == nullptr
                         ? std::make_unique<obs::MetricsRegistry>()
                         : nullptr) {
  obs::MetricsRegistry* reg =
      metrics != nullptr ? metrics : owned_metrics_.get();
  hits_ = reg->counter("ltm_cache_block_hits_total");
  misses_ = reg->counter("ltm_cache_block_misses_total");
  inserts_ = reg->counter("ltm_cache_block_inserts_total");
  evictions_ = reg->counter("ltm_cache_block_evictions_total");
  size_bytes_gauge_ = reg->gauge("ltm_cache_block_size_bytes");
  capacity_bytes_gauge_ = reg->gauge("ltm_cache_block_capacity_bytes");
  capacity_bytes_gauge_->Add(static_cast<int64_t>(capacity_bytes_));
  const size_t shards = RoundUpToPowerOfTwo(num_shards < 1 ? 1 : num_shards);
  shards_.reserve(shards);
  for (size_t i = 0; i < shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

BlockCache::~BlockCache() {
  for (const std::unique_ptr<Shard>& shard : shards_) {
    MutexLock lock(shard->mu);
    size_bytes_gauge_->Add(-static_cast<int64_t>(shard->size_bytes));
  }
  capacity_bytes_gauge_->Add(-static_cast<int64_t>(capacity_bytes_));
}

BlockCache::Shard& BlockCache::ShardFor(uint64_t segment_id, uint64_t offset) {
  const size_t h = KeyHash{}(Key{segment_id, offset});
  // shards_.size() is a power of two, so the mask picks a shard uniformly.
  return *shards_[(h >> 16) & (shards_.size() - 1)];
}

std::shared_ptr<const std::string> BlockCache::Get(uint64_t segment_id,
                                                   uint64_t offset) {
  Shard& shard = ShardFor(segment_id, offset);
  MutexLock lock(shard.mu);
  const auto it = shard.index.find(Key{segment_id, offset});
  if (it == shard.index.end()) {
    misses_->Increment();
    return nullptr;
  }
  hits_->Increment();
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  return it->second->block;
}

void BlockCache::Insert(uint64_t segment_id, uint64_t offset,
                        std::shared_ptr<const std::string> block) {
  if (capacity_bytes_ == 0 || block == nullptr) return;
  Shard& shard = ShardFor(segment_id, offset);
  const Key key{segment_id, offset};
  MutexLock lock(shard.mu);
  inserts_->Increment();
  const auto it = shard.index.find(key);
  if (it != shard.index.end()) {
    size_bytes_gauge_->Add(static_cast<int64_t>(block->size()) -
                           static_cast<int64_t>(it->second->block->size()));
    shard.size_bytes -= it->second->block->size();
    shard.size_bytes += block->size();
    it->second->block = std::move(block);
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  } else {
    shard.lru.push_front(Entry{key, std::move(block)});
    shard.index.emplace(key, shard.lru.begin());
    shard.size_bytes += shard.lru.front().block->size();
    size_bytes_gauge_->Add(
        static_cast<int64_t>(shard.lru.front().block->size()));
  }
  // Evict cold entries beyond this shard's share, but always keep the one
  // just touched — a single block larger than the shard budget must still
  // be cacheable or a hot oversized block would thrash forever.
  while (shard.size_bytes > per_shard_capacity_ && shard.lru.size() > 1) {
    const Entry& victim = shard.lru.back();
    shard.size_bytes -= victim.block->size();
    size_bytes_gauge_->Add(-static_cast<int64_t>(victim.block->size()));
    shard.index.erase(victim.key);
    shard.lru.pop_back();
    evictions_->Increment();
  }
}

void BlockCache::EraseSegment(uint64_t segment_id) {
  for (const std::unique_ptr<Shard>& shard : shards_) {
    MutexLock lock(shard->mu);
    for (auto it = shard->lru.begin(); it != shard->lru.end();) {
      if (it->key.segment_id == segment_id) {
        shard->size_bytes -= it->block->size();
        size_bytes_gauge_->Add(-static_cast<int64_t>(it->block->size()));
        shard->index.erase(it->key);
        it = shard->lru.erase(it);
      } else {
        ++it;
      }
    }
  }
}

}  // namespace store
}  // namespace ltm
