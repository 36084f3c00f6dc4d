#include "store/posterior_cache.h"

#include <iterator>

namespace ltm {
namespace store {

PosteriorCache::PosteriorCache(size_t capacity, obs::MetricsRegistry* metrics)
    : capacity_(capacity),
      owned_metrics_(metrics == nullptr
                         ? std::make_unique<obs::MetricsRegistry>()
                         : nullptr) {
  obs::MetricsRegistry* reg =
      metrics != nullptr ? metrics : owned_metrics_.get();
  hits_ = reg->counter("ltm_cache_posterior_hits_total");
  misses_ = reg->counter("ltm_cache_posterior_misses_total");
  coalesced_ = reg->counter("ltm_cache_posterior_coalesced_total");
  puts_ = reg->counter("ltm_cache_posterior_puts_total");
  evictions_ = reg->counter("ltm_cache_posterior_evictions_total");
  size_gauge_ = reg->gauge("ltm_cache_posterior_size");
  capacity_gauge_ = reg->gauge("ltm_cache_posterior_capacity");
  capacity_gauge_->Add(static_cast<int64_t>(capacity_));
}

PosteriorCache::~PosteriorCache() {
  MutexLock lock(mutex_);
  size_gauge_->Add(-static_cast<int64_t>(lru_.size()));
  capacity_gauge_->Add(-static_cast<int64_t>(capacity_));
}

std::optional<double> PosteriorCache::Get(const std::string& fact_key,
                                          uint64_t epoch) {
  MutexLock lock(mutex_);
  auto it = index_.find(fact_key);
  if (it == index_.end()) {
    misses_->Increment();
    return std::nullopt;
  }
  if (it->second->epoch != epoch) {
    if (epoch > it->second->epoch) {
      // Stale entry: computed against evidence older than the reader's.
      // Evict eagerly so the slot is free for the recomputed value.
      // Index first: its key views the list entry.
      const auto entry = it->second;
      index_.erase(it);
      lru_.erase(entry);
      evictions_->Increment();
      size_gauge_->Add(-1);
    }
    // A reader still at an older epoch just misses: the cached entry is
    // fresher than the reader, so evicting it here would let that
    // reader's follow-up Put re-insert a stale posterior unguarded —
    // the same clobber Put's downgrade check exists to stop.
    misses_->Increment();
    return std::nullopt;
  }
  hits_->Increment();
  if (it->second->writer != std::this_thread::get_id()) {
    coalesced_->Increment();
  }
  lru_.splice(lru_.begin(), lru_, it->second);
  return it->second->posterior;
}

void PosteriorCache::Put(const std::string& fact_key, uint64_t epoch,
                         double posterior) {
  if (capacity_ == 0) return;
  MutexLock lock(mutex_);
  puts_->Increment();
  auto it = index_.find(fact_key);
  if (it != index_.end()) {
    // A slow writer that materialized against an older store state must
    // not clobber a posterior computed after the epoch advanced — serving
    // would then hand out evidence-stale values until the next advance.
    // Same-epoch writes refresh (recomputation is idempotent).
    if (epoch < it->second->epoch) return;
    it->second->epoch = epoch;
    it->second->posterior = posterior;
    it->second->writer = std::this_thread::get_id();
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  if (lru_.size() >= capacity_) {
    // Full: recycle the least-recently-used node, and its key's buffer,
    // for the new entry instead of freeing one and allocating another.
    index_.erase(lru_.back().key);
    evictions_->Increment();
    lru_.splice(lru_.begin(), lru_, std::prev(lru_.end()));
    Entry& entry = lru_.front();
    entry.key.assign(fact_key);
    entry.epoch = epoch;
    entry.posterior = posterior;
    entry.writer = std::this_thread::get_id();
  } else {
    lru_.push_front(
        Entry{fact_key, epoch, posterior, std::this_thread::get_id()});
    size_gauge_->Add(1);
  }
  index_.emplace(lru_.front().key, lru_.begin());
}

void PosteriorCache::Clear() {
  MutexLock lock(mutex_);
  evictions_->Increment(lru_.size());
  size_gauge_->Add(-static_cast<int64_t>(lru_.size()));
  index_.clear();
  lru_.clear();
}

size_t PosteriorCache::size() const {
  MutexLock lock(mutex_);
  return lru_.size();
}

}  // namespace store
}  // namespace ltm
