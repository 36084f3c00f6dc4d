#ifndef LTM_SERVE_SERVE_SESSION_H_
#define LTM_SERVE_SERVE_SESSION_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "common/thread_pool.h"
#include "ext/streaming.h"
#include "obs/histogram.h"
#include "obs/metrics.h"
#include "serve/fact_scoring.h"
#include "serve/refit_scheduler.h"
#include "serve/serve_options.h"
#include "store/partitioned_store.h"
#include "store/posterior_cache.h"
#include "truth/truth_method.h"

namespace ltm {
namespace serve {

/// A client-visible fact identifier: (entity, attribute) by name. The
/// dataset-local numeric FactId is an artifact of one materialization
/// and is meaningless across epochs, so the serving API keys on names.
struct FactRef {
  std::string entity;
  std::string attribute;
};

/// One scored fact from a range query.
struct ServedFact {
  std::string entity;
  std::string attribute;
  double posterior = 0.0;
};

class ServeSnapshot;

/// The client-facing online serving front-end (the redesigned read API):
/// many concurrent clients query posteriors against a StreamingPipeline's
/// attached PartitionedTruthStore through one ServeSession. Every
/// snapshot pins all partitions at a consistent vector epoch, so
/// cross-partition reads (QueryEntityRange included) stay MVCC-correct.
///
///   - One miss path (ResolveMiss) for live and snapshot queries: a
///     fact-bloom short-circuit, then the entity's rows as views straight
///     from the block bytes, scored against per-source Eq. 3 log tables
///     precomputed at quality install — bit-identical to materializing
///     the entity's slice and running LtmIncremental, with no Dataset
///     built and no log taken per query.
///   - Reads never block ingest: every read runs against an
///     epoch-pinned MVCC snapshot (PartitionedTruthStore::PinSnapshot), so
///     appends, flushes, compactions, and partition rebalances proceed
///     concurrently and a compaction can never delete a segment file out
///     from under a reader.
///   - Duplicate-query coalescing: concurrent cache-missing lookups for
///     the same (entity, quality version) share one entity read + score
///     and one PosteriorCache fill (singleflight); a
///     leader may linger ServeOptions::batch_window_us before computing
///     so near-simultaneous lookups pile on.
///   - Admission control: at most ServeOptions::max_inflight distinct
///     slice computations run at once; a query that would start one more
///     is shed with ResourceExhausted (cache hits and coalesced joins
///     are always admitted).
///   - Background refits: with ServeOptions::refit_debounce_epochs > 0,
///     epoch advances debounce into Gibbs refits on a ThreadPool (see
///     RefitScheduler); queries keep serving the previous quality until
///     the new fit installs (the install bumps the quality version and
///     clears the cache).
///   - Observability: the session counts into the store's registry
///     (`ltm_serve_*`, next to the store's and caches' series) and keeps
///     no stats of its own.
///
/// Coalescing semantics: a coalesced read returns the posterior at the
/// epoch its leader pinned, which is never older than the leader's call
/// entry — bounded staleness of one in-flight computation. Cache entries
/// are keyed (fact, quality version) and validated against the store
/// epoch on every read, so nothing stale outlives the computation that
/// produced it.
///
/// Thread-safe. The pipeline, its store, and the pool must outlive the
/// session. While a session with a refit scheduler is live, all other
/// pipeline mutation (Observe/ObserveToStore/Bootstrap) must be
/// externally serialized against it — ingest that bypasses the pipeline
/// (PartitionedTruthStore::Append*) plus NotifyIngest() is always safe.
class ServeSession {
 public:
  /// Validates options, captures the pipeline's current quality, and —
  /// when options.refit_debounce_epochs > 0 — starts the background
  /// refit scheduler on `pool` (ThreadPool::Shared() when null).
  /// FailedPrecondition when the pipeline has no attached store.
  static Result<std::unique_ptr<ServeSession>> Create(
      ext::StreamingPipeline* pipeline, ServeOptions options,
      ThreadPool* pool = nullptr);

  /// Drains the refit scheduler. Outstanding ServeSnapshots must already
  /// be destroyed.
  ~ServeSession();

  /// Owns mutexes and is captured by scheduler jobs; copying or moving a
  /// live session could never be correct.
  ServeSession(const ServeSession&) = delete;
  ServeSession& operator=(const ServeSession&) = delete;
  ServeSession(ServeSession&&) = delete;
  ServeSession& operator=(ServeSession&&) = delete;

  /// Posterior truth probability of `fact` under the current quality at
  /// the current store epoch (Eq. 3). Facts with no durable claims score
  /// at the beta prior mean. Honors ctx cancel/deadline (a miss checks
  /// it before reading; a waiter gives up). ResourceExhausted when shed
  /// by admission control.
  Result<double> Query(const FactRef& fact,
                       const RunContext& ctx = RunContext());

  /// Queries in order; posteriors align with `facts`. One deadline
  /// budget spans the whole batch. Duplicate entities resolve from the
  /// cache filled by the first.
  Result<std::vector<double>> QueryBatch(
      const std::vector<FactRef>& facts,
      const RunContext& ctx = RunContext());

  /// Every known fact with entity in [min_entity, max_entity]
  /// (lexicographic, inclusive), scored at one pinned epoch, in global
  /// lexicographic entity order (facts of one entity stay in ingest
  /// order) — the same order regardless of how the store is partitioned.
  /// Warms the cache for point reads.
  Result<std::vector<ServedFact>> QueryEntityRange(
      const std::string& min_entity, const std::string& max_entity,
      const RunContext& ctx = RunContext());

  /// An epoch-pinned read handle: every query through it sees exactly
  /// the store state and quality of the acquisition instant, regardless
  /// of concurrent ingest, compaction, or refits. Must not outlive the
  /// session.
  std::unique_ptr<ServeSnapshot> AcquireSnapshot();

  /// Tells the refit scheduler the store advanced (call after out-of-band
  /// store appends). Returns the scheduler's admission Status
  /// (ResourceExhausted when the trigger shed an older one); OK when the
  /// scheduler is disabled.
  Status NotifyIngest();

  /// Rebuilds the quality view from the pipeline (bumping the quality
  /// version and clearing the cache). Call after driving the pipeline
  /// directly (e.g. an ObserveToStore that refit). Sessions with a
  /// scheduler do this automatically after their own background refits.
  Status RefreshQuality() LTM_EXCLUDES(pipeline_mu_);

  store::PartitionedTruthStore* store() const { return store_; }

 private:
  friend class ServeSnapshot;

  /// Immutable once published; swapped atomically under mu_ on refit.
  struct VersionedQuality {
    uint64_t version = 0;
    QualityLookup lookup;
  };

  /// One entity's scored facts at one epoch, shared by coalesced
  /// waiters.
  struct SliceScore {
    uint64_t epoch = 0;
    std::vector<std::pair<std::string, double>> posteriors;  // attribute, p

    /// The attribute's posterior, or null when the entity has no such
    /// fact.
    const double* Find(std::string_view attribute) const;
  };

  /// Singleflight cell. Fields are written once by the leader (under
  /// mu_, done last) and read by waiters only after observing done.
  struct Inflight {
    bool done = false;
    Status error;
    std::shared_ptr<const SliceScore> score;
  };

  ServeSession(ext::StreamingPipeline* pipeline, ServeOptions options);

  std::shared_ptr<const VersionedQuality> CurrentQuality() const
      LTM_EXCLUDES(mu_);

  /// Query minus latency accounting.
  Result<double> QueryInner(const FactRef& fact, const RunContext& ctx);

  /// The miss path both Query flavours share, at `pin` under `quality`:
  /// a fact-bloom short-circuit to the no-claim prior, else the entity's
  /// score (ScoreEntity, wrapped in singleflight and admission control
  /// when `coalesce`), then the queried fact's posterior — the no-claim
  /// prior, cached under `cache_key`, when the entity has no such fact.
  Result<double> ResolveMiss(const store::StorePin& pin, const FactRef& fact,
                             const std::string& cache_key,
                             const VersionedQuality& quality, bool coalesce,
                             const RunObserver& obs);

  /// Reads `entity`'s rows at `pin`, scores every fact of the entity
  /// (ScoreEntityRows over the installed log tables) and caches each
  /// posterior under the pin's epoch.
  Result<std::shared_ptr<const SliceScore>> ScoreEntity(
      const store::StorePin& pin, const std::string& entity,
      const VersionedQuality& quality);

  /// ScoreEntity behind singleflight — one computation per (entity,
  /// quality version) at a time, everyone else waits for it — and
  /// admission control (ResourceExhausted beyond max_inflight).
  Result<std::shared_ptr<const SliceScore>> ScoreEntityCoalesced(
      const store::StorePin& pin, const std::string& entity,
      const VersionedQuality& quality, const RunObserver& obs);

  /// Rebuilds the lookup from the pipeline and publishes it (new
  /// version, cache cleared).
  void InstallQualityLocked() LTM_REQUIRES(pipeline_mu_);

  /// The cache slot serving `entity` — per-partition, so one hot
  /// partition cannot evict the whole working set.
  store::PosteriorCache& cache_for(std::string_view entity) {
    return store_->posterior_cache_for(entity);
  }

  /// "<entity>\t<attribute>\t#q<quality version>", built in one
  /// allocation.
  static std::string CacheKey(std::string_view entity,
                              std::string_view attribute, uint64_t version);

  ext::StreamingPipeline* const pipeline_;
  store::PartitionedTruthStore* const store_;
  const ServeOptions options_;
  const LtmOptions ltm_options_;

  /// Serializes every touch of pipeline_ (background refits and quality
  /// rebuilds). Ordered before mu_: a thread holding mu_ never acquires
  /// pipeline_mu_.
  Mutex pipeline_mu_;

  mutable Mutex mu_;
  CondVar cv_;
  std::shared_ptr<const VersionedQuality> quality_ LTM_GUARDED_BY(mu_);
  uint64_t quality_versions_installed_ LTM_GUARDED_BY(mu_) = 0;
  std::unordered_map<std::string, std::shared_ptr<Inflight>> inflight_
      LTM_GUARDED_BY(mu_);

  std::unique_ptr<RefitScheduler> scheduler_;  ///< Null when disabled.

  /// `ltm_serve_*` metrics, registered in the store's registry (see
  /// PartitionedTruthStore::metrics()) so one RenderText covers the whole
  /// stack.
  obs::Counter* queries_;
  obs::Counter* snapshot_queries_;
  obs::Counter* range_queries_;
  obs::Counter* coalesced_;
  obs::Counter* shed_;
  obs::Counter* slice_computes_;
  obs::Histogram* query_micros_;
  obs::Gauge* quality_version_gauge_;
};

/// An MVCC read handle from ServeSession::AcquireSnapshot(): holds a
/// store pin spanning every partition plus the quality view of the
/// acquisition instant, so repeated queries are mutually consistent — and bit-identical to a sequential
/// read at that epoch — no matter what ingest, compaction, partition
/// rebalances, or refits run concurrently. Reads through a snapshot
/// still use (and fill) the posterior cache under the snapshot's own
/// quality version and epoch.
///
/// Thread-safe for concurrent Query calls. Drop the snapshot to release
/// its pin (retained superseded segment files are then reclaimed).
class ServeSnapshot {
 public:
  ~ServeSnapshot() = default;

  ServeSnapshot(const ServeSnapshot&) = delete;
  ServeSnapshot& operator=(const ServeSnapshot&) = delete;
  ServeSnapshot(ServeSnapshot&&) = delete;
  ServeSnapshot& operator=(ServeSnapshot&&) = delete;

  /// Posterior of `fact` at exactly this snapshot's epoch and quality.
  Result<double> Query(const FactRef& fact,
                       const RunContext& ctx = RunContext());

  /// Queries in order; posteriors align with `facts`.
  Result<std::vector<double>> QueryBatch(
      const std::vector<FactRef>& facts,
      const RunContext& ctx = RunContext());

  /// The store epoch this snapshot pinned.
  uint64_t epoch() const { return pin_->epoch(); }
  uint64_t quality_version() const { return quality_->version; }

 private:
  friend class ServeSession;
  ServeSnapshot(ServeSession* session, std::unique_ptr<store::StorePin> pin,
                std::shared_ptr<const ServeSession::VersionedQuality> quality)
      : session_(session), pin_(std::move(pin)), quality_(std::move(quality)) {}

  ServeSession* const session_;
  const std::unique_ptr<store::StorePin> pin_;
  const std::shared_ptr<const ServeSession::VersionedQuality> quality_;
};

}  // namespace serve
}  // namespace ltm

#endif  // LTM_SERVE_SERVE_SESSION_H_
