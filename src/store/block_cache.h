#ifndef LTM_STORE_BLOCK_CACHE_H_
#define LTM_STORE_BLOCK_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "obs/metrics.h"

namespace ltm {
namespace store {

/// Sharded LRU cache of verified data-block bytes, keyed
/// (segment id, block offset) and charged by block size — the layer under
/// PosteriorCache that turns a repeat point lookup's one block read into
/// zero. Sharding splits the key space over independent LRU lists with
/// one mutex each, so concurrent readers on different blocks rarely
/// contend on a lock.
///
/// Values are shared_ptr<const string>: a lookup pins the bytes it got
/// even if an eviction races it, so readers never copy a block and never
/// observe a freed one. Segment ids are never reused (the manifest's
/// next_segment_id is monotonic), so stale aliasing is impossible; a
/// segment file reclaimed from disk is still purged eagerly with
/// EraseSegment to release memory.
///
/// Thread-safe. A capacity of 0 disables caching (every Get misses,
/// Insert drops).
///
/// The cache keeps no stats of its own: it counts into the registry's
/// `ltm_cache_block_{hits,misses,inserts,evictions}_total` counters, and
/// keeps `ltm_cache_block_{size,capacity}_bytes` by deltas, so every
/// partition's cache in one registry adds up and a destroyed cache (a
/// closed store, a reaped partition) takes its share back out.
class BlockCache {
 public:
  /// `metrics` is where the `ltm_cache_block_*` counters register (must
  /// outlive the cache); null gives the cache a private registry so
  /// standalone instances stay isolated.
  explicit BlockCache(uint64_t capacity_bytes, size_t num_shards = 8,
                      obs::MetricsRegistry* metrics = nullptr);
  ~BlockCache();

  BlockCache(const BlockCache&) = delete;
  BlockCache& operator=(const BlockCache&) = delete;
  BlockCache(BlockCache&&) = delete;
  BlockCache& operator=(BlockCache&&) = delete;

  /// The cached block, or null on a miss. A hit moves the entry to the
  /// front of its shard's LRU list.
  std::shared_ptr<const std::string> Get(uint64_t segment_id, uint64_t offset);

  /// Inserts (or refreshes) a block, evicting least-recently-used entries
  /// until the shard fits its share of the budget.
  void Insert(uint64_t segment_id, uint64_t offset,
              std::shared_ptr<const std::string> block);

  /// Drops every cached block of one segment (called when the segment's
  /// file is deleted or reclaimed). Dropped entries do not count as
  /// capacity evictions.
  void EraseSegment(uint64_t segment_id);

  uint64_t capacity_bytes() const { return capacity_bytes_; }

 private:
  struct Key {
    uint64_t segment_id;
    uint64_t offset;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    size_t operator()(const Key& k) const {
      uint64_t h = k.segment_id * 0x9e3779b97f4a7c15ULL;
      h ^= k.offset + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
      h ^= h >> 29;
      return static_cast<size_t>(h);
    }
  };
  struct Entry {
    Key key;
    std::shared_ptr<const std::string> block;
  };
  struct Shard {
    mutable Mutex mu;
    std::list<Entry> lru LTM_GUARDED_BY(mu);  ///< front = most recent
    std::unordered_map<Key, std::list<Entry>::iterator, KeyHash> index
        LTM_GUARDED_BY(mu);
    uint64_t size_bytes LTM_GUARDED_BY(mu) = 0;
  };

  Shard& ShardFor(uint64_t segment_id, uint64_t offset);

  const uint64_t capacity_bytes_;
  const uint64_t per_shard_capacity_;
  /// Backs the metric pointers when no registry was injected.
  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;
  obs::Counter* hits_;
  obs::Counter* misses_;
  obs::Counter* inserts_;
  obs::Counter* evictions_;
  obs::Gauge* size_bytes_gauge_;
  std::vector<std::unique_ptr<Shard>> shards_;
  /// Touched only by the constructor and destructor, so it sits after
  /// the members every Get/Insert reads.
  obs::Gauge* capacity_bytes_gauge_;
};

}  // namespace store
}  // namespace ltm

#endif  // LTM_STORE_BLOCK_CACHE_H_
