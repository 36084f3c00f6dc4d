#ifndef LTM_STORE_POSTERIOR_CACHE_H_
#define LTM_STORE_POSTERIOR_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "obs/metrics.h"

namespace ltm {
namespace store {

/// Thread-safe LRU cache of served fact posteriors, keyed on
/// (fact key, store epoch). The epoch is the TruthStore's in-memory data
/// version — it advances on every append and every manifest commit — so
/// an entry computed before new evidence arrived can never be served
/// afterwards: a Get with a newer epoch treats the stale entry as a miss
/// and evicts it. This is what lets StreamingPipeline answer repeated
/// online reads without refitting (§5.4 serving).
///
/// The cache keeps no stats of its own: it counts into the registry's
/// `ltm_cache_posterior_{hits,misses,coalesced,puts,evictions}_total`
/// counters, and keeps `ltm_cache_posterior_{size,capacity}` by deltas,
/// so caches sharing one registry (one per partition) add up and a
/// destroyed cache takes its share back out.
class PosteriorCache {
 public:
  /// `metrics` is where the `ltm_cache_posterior_*` counters register
  /// (must outlive the cache); null gives the cache a private registry
  /// so standalone instances stay isolated.
  explicit PosteriorCache(size_t capacity,
                          obs::MetricsRegistry* metrics = nullptr);
  ~PosteriorCache();

  /// The LRU list's iterators are self-referential and the mutex is not
  /// movable; copying a live cache is never meaningful, so neither is
  /// allowed.
  PosteriorCache(const PosteriorCache&) = delete;
  PosteriorCache& operator=(const PosteriorCache&) = delete;
  PosteriorCache(PosteriorCache&&) = delete;
  PosteriorCache& operator=(PosteriorCache&&) = delete;

  /// Returns the cached posterior for `fact_key` when present *and*
  /// computed at exactly `epoch`. An entry older than the reader's epoch
  /// is erased and reported as a miss; a reader *behind* the cached
  /// epoch just misses (the fresher entry stays, so a lagging reader's
  /// later Put cannot sneak a stale value past the downgrade guard).
  std::optional<double> Get(const std::string& fact_key, uint64_t epoch)
      LTM_EXCLUDES(mutex_);

  /// Inserts or refreshes an entry, evicting least-recently-used entries
  /// beyond capacity. A write whose epoch is older than the cached
  /// entry's is dropped: a slow writer racing a store advance must not
  /// overwrite a posterior computed against fresher evidence. A capacity
  /// of 0 disables caching.
  void Put(const std::string& fact_key, uint64_t epoch, double posterior)
      LTM_EXCLUDES(mutex_);

  void Clear() LTM_EXCLUDES(mutex_);

  size_t size() const LTM_EXCLUDES(mutex_);
  size_t capacity() const { return capacity_; }

 private:
  struct Entry {
    std::string key;
    uint64_t epoch;
    double posterior;
    /// Thread that wrote the entry; a hit from any other thread counts
    /// as a coalesced read (it reused work it did not do itself).
    std::thread::id writer;
  };

  const size_t capacity_;
  /// Backs the metric pointers when no registry was injected.
  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;
  obs::Counter* hits_;
  obs::Counter* misses_;
  obs::Counter* coalesced_;
  obs::Counter* puts_;
  obs::Counter* evictions_;
  obs::Gauge* size_gauge_;
  mutable Mutex mutex_;
  /// front = most recently used
  std::list<Entry> lru_ LTM_GUARDED_BY(mutex_);
  /// Keys view the owning list entry's `key` (list nodes never move), so
  /// a Put copies the key once.
  std::unordered_map<std::string_view, std::list<Entry>::iterator> index_
      LTM_GUARDED_BY(mutex_);
  /// Touched only by the constructor and destructor, so it sits after
  /// the members every Get/Put reads.
  obs::Gauge* capacity_gauge_;
};

}  // namespace store
}  // namespace ltm

#endif  // LTM_STORE_POSTERIOR_CACHE_H_
