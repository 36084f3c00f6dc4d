#ifndef LTM_STORE_PARTITIONED_STORE_H_
#define LTM_STORE_PARTITIONED_STORE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "data/dataset.h"
#include "obs/metrics.h"
#include "store/partition_map.h"
#include "store/posterior_cache.h"
#include "store/truth_store.h"
#include "store/wal.h"

namespace ltm {
namespace store {

class PartitionedTruthStore;

/// Knobs for a PartitionedTruthStore.
struct PartitionedStoreOptions {
  /// Template for every child store. Per-child fields are overridden by
  /// the router: metrics points at the router's registry, metrics_label
  /// gets `partition="<id>"` when the layout has more than one partition
  /// (a one-partition store keeps the unlabeled `ltm_store_*` names), and
  /// block_cache_mb / posterior_cache_capacity are divided across the
  /// partitions so the configured budgets stay totals.
  TruthStoreOptions store;

  /// Initial partition count when creating a fresh store (>= 1). An
  /// existing PARTMAP wins — reopening never repartitions — and a legacy
  /// single-store directory only converts to one partition.
  size_t partitions = 1;
  /// Optional explicit initial split points (ascending, strictly unique,
  /// non-empty; entity e routes to the first range whose upper bound
  /// exceeds it). Size must be partitions - 1 when non-empty; empty
  /// synthesizes evenly spaced single-byte boundaries.
  std::vector<std::string> initial_boundaries;

  /// CompactOnce() splits a partition once it holds more than this many
  /// rows (segments + memtable). 0 disables splitting.
  uint64_t split_threshold_rows = 0;
  /// CompactOnce() merges two adjacent partitions once their combined
  /// row count falls below this. 0 disables merging.
  uint64_t merge_threshold_rows = 0;
  /// Splits never grow the store past this many partitions.
  size_t max_partitions = kMaxPartitions;
};

/// An MVCC read snapshot of a PartitionedTruthStore: one EpochPin per
/// partition, all acquired under the routing-table lock so no split/merge
/// can interleave — a consistent vector epoch across the whole keyspace.
/// Reads through it never race a compaction's file removals and are
/// bit-reproducible at the captured epoch. Holds shared ownership of
/// every pinned child, so a partition retired by a later rebalance stays
/// readable until the pin drops. Must not outlive the issuing store and
/// must only be passed back to it.
class StorePin {
 public:
  ~StorePin();

  StorePin(const StorePin&) = delete;
  StorePin& operator=(const StorePin&) = delete;

  /// The composite store epoch this pin captured, for posterior-cache
  /// keying: the rebalance offset plus the sum over the pinned
  /// per-partition epochs — one scalar that changes whenever any
  /// partition's data does.
  uint64_t epoch() const { return epoch_; }

 private:
  friend class PartitionedTruthStore;
  StorePin(const PartitionedTruthStore* store, uint64_t epoch,
           std::vector<PartitionMapEntry> entries,
           std::vector<std::shared_ptr<TruthStore>> children,
           std::vector<std::unique_ptr<EpochPin>> pins)
      : store_(store),
        epoch_(epoch),
        entries_(std::move(entries)),
        children_(std::move(children)),
        pins_(std::move(pins)) {}

  const PartitionedTruthStore* store_;
  uint64_t epoch_;
  /// The partition boundaries frozen at pin time (point-read routing).
  std::vector<PartitionMapEntry> entries_;
  std::vector<std::shared_ptr<TruthStore>> children_;
  std::vector<std::unique_ptr<EpochPin>> pins_;
};

/// Per-partition slice of a partitioned verify run.
struct PartitionVerifyReport {
  PartitionMapEntry entry;
  StoreVerifyReport report;
};

/// Offline integrity report for a store directory (see
/// PartitionedTruthStore::Verify). `errors` collects every invariant
/// violation — range overlap or gap in the map, a child that fails its
/// own verify, an unreferenced partition directory — instead of stopping
/// at the first, so one run shows the whole damage.
struct PartitionedVerifyReport {
  /// Set for a legacy single-store directory (a root MANIFEST, no
  /// PARTMAP): its own report. The other fields stay empty.
  std::optional<StoreVerifyReport> legacy;
  PartitionMap map;
  std::vector<PartitionVerifyReport> partitions;
  std::vector<std::string> orphan_dirs;
  std::vector<std::string> errors;

  bool ok() const { return errors.empty(); }
  std::string Summary() const;
};

/// The truth store: an entity-range router over N child TruthStores
/// (one by default), each owning one contiguous range of the entity
/// keyspace with its own WAL, memtable, leveled segments, block-cache
/// share, and MANIFEST, under one top-level checksummed PARTMAP (see
/// partition_map.h) that records the range boundaries and is the atomic
/// commit point of every split/merge. On disk:
///
///   <dir>/PARTMAP        the committed partition map
///   <dir>/p-000001/      a child: MANIFEST, wal-*.log, seg-*.blk
///   <dir>/p-000002/ ...
///
/// Appends route by entity under a shared (reader) lock and carry a
/// global ingest sequence number from one atomic counter, which the
/// children persist through their WALs and segments. A cross-partition
/// read therefore merges child rows back into exact global ingest order
/// — because the model factorizes by entity AND replay order is
/// reproduced bit for bit, posteriors computed against any partitioning
/// are bit-identical to a batch load of the same rows (pinned by test
/// under kernel=reference).
///
/// CompactOnce() fans the leveled step across partitions, then
/// rebalances: a partition past split_threshold_rows splits at its
/// median entity, an adjacent pair under merge_threshold_rows merges.
/// Rebalance copies the pinned rows (original seqs preserved) into fresh
/// child directories, flushes them, commits the new PARTMAP, and swaps
/// the routing table under the exclusive lock; the old children retire
/// but stay alive (and on disk) until every StorePin referencing them
/// drops. A crash on either side of the PARTMAP rename recovers to
/// exactly the old or exactly the new partitioning, never a mix — the
/// loser's directories are reaped as orphans on the next Open.
///
/// Thread-safe with the TruthStore contract per partition; routing reads
/// (append/pin/flush) share the table lock, only a rebalance takes it
/// exclusively. Not multi-process-safe.
class PartitionedTruthStore {
 public:
  /// Opens (or initializes) the store rooted at `dir`:
  ///   - a fresh directory is carved into `options.partitions` ranges
  ///     (FailedPrecondition instead if it holds root segments or a
  ///     non-empty WAL but no MANIFEST: a store that lost its MANIFEST,
  ///     left untouched);
  ///   - an existing PARTMAP is validated and its children reopened
  ///     (orphan partition directories from an interrupted rebalance, and
  ///     root-level files left by an interrupted legacy conversion, are
  ///     removed);
  ///   - a legacy single-store directory (a root MANIFEST, no PARTMAP) is
  ///     converted once into a one-partition layout: its rows are copied,
  ///     in the order that layout replayed them, into a fresh child, the
  ///     PARTMAP commit makes the conversion durable, and the root files
  ///     are then removed. options.partitions > 1 is refused
  ///     (FailedPrecondition) for such a directory.
  static Result<std::unique_ptr<PartitionedTruthStore>> Open(
      const std::string& dir,
      PartitionedStoreOptions options = PartitionedStoreOptions());

  ~PartitionedTruthStore();

  PartitionedTruthStore(const PartitionedTruthStore&) = delete;
  PartitionedTruthStore& operator=(const PartitionedTruthStore&) = delete;

  /// Appends one observation (WAL first, then the memtable), routed by
  /// entity, under the next global ingest sequence number.
  Status Append(const WalRecord& record) LTM_EXCLUDES(table_mu_);
  /// Appends every row of `raw` (in row order) and then syncs — one
  /// durable group commit per partition the chunk touches.
  Status AppendRaw(const RawDatabase& raw) LTM_EXCLUDES(table_mu_);
  /// Makes all buffered appends durable (WAL fsync, all partitions).
  Status Sync() LTM_EXCLUDES(table_mu_);
  /// Flushes every memtable into an immutable L0 segment.
  Status Flush() LTM_EXCLUDES(table_mu_);
  /// Major compaction of every partition.
  Status Compact() LTM_EXCLUDES(table_mu_);
  /// One leveled step on every partition, then at most one rebalance
  /// (split or merge). True when any partition compacted or the
  /// partition layout changed.
  Result<bool> CompactOnce() LTM_EXCLUDES(table_mu_);

  /// Acquires an MVCC read snapshot of every partition at one consistent
  /// vector epoch (see StorePin). Memtable rows are copied only within
  /// [*min_entity, *max_entity] when the bounds are non-null, so later
  /// reads through the pin must stay within them.
  std::unique_ptr<StorePin> PinSnapshot(
      const std::string* min_entity = nullptr,
      const std::string* max_entity = nullptr) const
      LTM_EXCLUDES(table_mu_);

  /// The one store read: every row with entity in
  /// [*min_entity, *max_entity] (null = unbounded) visible at `pin`, as
  /// views sorted by global ingest sequence — the replay order of a batch
  /// load, regardless of partitioning. Segments are skipped by zone
  /// stats; when *min_entity == *max_entity (a point read) also by the
  /// entity bloom, and the read is served by the one partition owning the
  /// entity, seeking inside one block through its restart array instead
  /// of decoding it whole. The views alias buffers the result holds, the
  /// pin's memtable records and — on a point read — `*min_entity` itself,
  /// so the result must outlive neither `pin` nor the bounds. `pin` must
  /// have been issued by this store (else InvalidArgument).
  Result<RowViews> ReadRowsAt(const StorePin& pin,
                              const std::string* min_entity,
                              const std::string* max_entity,
                              RangeScanStats* stats = nullptr) const;

  /// ReadRowsAt interned into a Dataset.
  Result<Dataset> MaterializeSnapshot(const StorePin& pin,
                                      const std::string* min_entity = nullptr,
                                      const std::string* max_entity = nullptr,
                                      RangeScanStats* stats = nullptr) const;

  /// Bloom-only point probe against a pinned snapshot: false means the
  /// fact definitely does not exist at the pin's epoch.
  Result<bool> SnapshotFactMayExist(const StorePin& pin,
                                    const std::string& entity,
                                    const std::string& attribute) const;

  /// Full rebuild in global ingest order. When `epoch_out` is non-null
  /// it receives the epoch the materialized data corresponds to.
  Result<Dataset> Materialize(uint64_t* epoch_out = nullptr) const;

  /// Rebuild restricted to entities in [min_entity, max_entity].
  Result<Dataset> MaterializeEntityRange(const std::string& min_entity,
                                         const std::string& max_entity,
                                         RangeScanStats* stats = nullptr,
                                         uint64_t* epoch_out = nullptr) const;

  /// Composite epoch: a rebalance-stable offset plus the sum of the
  /// child epochs — advances on every append and every commit anywhere,
  /// and stays strictly monotone across splits/merges.
  uint64_t epoch() const LTM_EXCLUDES(table_mu_);
  TruthStoreStats Stats() const LTM_EXCLUDES(table_mu_);

  size_t num_partitions() const LTM_EXCLUDES(table_mu_);
  /// Per-partition epochs, in partition (entity-range) order — the
  /// vector the RefitScheduler debounces on.
  std::vector<uint64_t> PartitionEpochs() const LTM_EXCLUDES(table_mu_);

  /// Copy of the current partition map (observability: store_cli
  /// inspect/verify print it).
  PartitionMap partition_map() const LTM_EXCLUDES(table_mu_);
  /// Per-partition segment listings aligned with partition_map() order.
  std::vector<std::vector<SegmentInfo>> PartitionSegments() const
      LTM_EXCLUDES(table_mu_);
  /// Per-partition stats aligned with partition_map() order.
  std::vector<TruthStoreStats> PartitionStats() const
      LTM_EXCLUDES(table_mu_);

  /// The posterior cache that serves `entity` — per-partition, so one hot
  /// partition cannot evict the whole working set.
  PosteriorCache& posterior_cache_for(std::string_view entity)
      LTM_EXCLUDES(table_mu_);
  /// Clears every partition's posterior cache (quality version bumps).
  void ClearPosteriorCaches() LTM_EXCLUDES(table_mu_);
  /// Aggregated posterior-cache counters across partitions.
  CacheStats PosteriorCacheStats() const LTM_EXCLUDES(table_mu_);

  /// Live StorePin handles outstanding (observability + tests).
  size_t num_pinned_epochs() const;
  /// Retired (split/merged-away) partitions whose directories are kept
  /// for live pins.
  size_t num_retired_partitions() const LTM_EXCLUDES(retired_mu_);

  /// The registry this store, its children and the serving components
  /// layered on it publish into: the injected options.store.metrics, or
  /// a private one. Never null.
  obs::MetricsRegistry* metrics() const { return metrics_; }
  const std::string& dir() const { return dir_; }

  /// Offline integrity check, never modifying the directory: PARTMAP
  /// parses, its ranges cover the keyspace with no overlap or gap, every
  /// child passes TruthStore::Verify, and unreferenced partition
  /// directories are reported. A legacy single-store directory is
  /// reported as such (PartitionedVerifyReport::legacy). Returns the
  /// report even when errors were found (check report.ok()); non-OK
  /// Status only for an unreadable PARTMAP or legacy root.
  static Result<PartitionedVerifyReport> Verify(const std::string& dir);

 private:
  friend class StorePin;

  PartitionedTruthStore(std::string dir, PartitionedStoreOptions options);

  /// Child options for partition `id` in a layout of `count` partitions
  /// (shared registry, partition label, divided cache budgets).
  TruthStoreOptions ChildOptions(uint64_t id, size_t count) const;

  /// Open() on a directory with no PARTMAP: carve options_.partitions
  /// fresh ranges, or convert the legacy single store at the root. Both
  /// end with the PARTMAP commit; Open then loads it like any other.
  Status CarveFresh();
  Status ConvertLegacy();

  uint64_t CompositeEpochLocked() const LTM_REQUIRES_SHARED(table_mu_);

  /// At most one split or merge per call, per the row thresholds. Takes
  /// the table lock exclusively. True when the layout changed.
  Result<bool> MaybeRebalance() LTM_EXCLUDES(table_mu_);
  /// Builds a fresh child for `entry`, replays `rows` into it (seqs
  /// preserved) and flushes. Used by split and merge.
  Result<std::shared_ptr<TruthStore>> BuildChild(
      const PartitionMapEntry& entry, const std::vector<RowView>& rows,
      size_t partition_count) const;
  /// Commits `next_map`, swaps `next_children` into the routing table
  /// (epoch offset adjusted for monotonicity), and retires the replaced
  /// children. Requires the exclusive table lock.
  Status SwapTableLocked(PartitionMap next_map,
                         std::vector<std::shared_ptr<TruthStore>> next_children)
      LTM_REQUIRES(table_mu_);

  /// StorePin's destructor: unpins and reclaims retired partitions whose
  /// last pin dropped.
  void ReleasePin() const;
  /// Deletes retired children with no remaining pins or references.
  void ReapRetired() const LTM_EXCLUDES(retired_mu_);

  const std::string dir_;
  const PartitionedStoreOptions options_;

  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;
  obs::MetricsRegistry* metrics_;  // never null
  obs::Gauge* partitions_gauge_;
  obs::Gauge* map_generation_gauge_;
  obs::Counter* splits_;
  obs::Counter* merges_;
  obs::Counter* rebalance_rows_moved_;

  /// Routing table: map_ and children_ move in lockstep (children_[i]
  /// serves map_.entries[i]). Appends/reads take the lock shared; only a
  /// split/merge swap takes it exclusive.
  mutable SharedMutex table_mu_;
  PartitionMap map_ LTM_GUARDED_BY(table_mu_);
  std::vector<std::shared_ptr<TruthStore>> children_ LTM_GUARDED_BY(table_mu_);
  /// Per-slot posterior caches, owned by the router (NOT the children)
  /// so a rebalance cannot invalidate a reference a serving thread
  /// holds: the vector only ever grows (a merge leaves its tail slots
  /// idle) and the pointed-to caches are never destroyed before the
  /// store. Composite epochs advance on every swap, so entries cached
  /// for a previous layout simply miss.
  mutable std::vector<std::unique_ptr<PosteriorCache>> caches_
      LTM_GUARDED_BY(table_mu_);

  /// Global ingest sequence counter; recovered on open as the max child
  /// NextRowSeq().
  std::atomic<uint64_t> next_seq_{0};
  /// Keeps the composite epoch strictly monotone across rebalance swaps
  /// (signed: a swap may need to pull the child-epoch sum down).
  std::atomic<int64_t> epoch_offset_{0};
  /// Live StorePin handles.
  mutable std::atomic<uint64_t> live_pins_{0};
  /// One rebalance at a time (CompactOnce may be called concurrently).
  std::atomic<bool> rebalancing_{false};

  /// Children swapped out by a rebalance, kept alive (object + files)
  /// until no StorePin references them.
  mutable Mutex retired_mu_;
  mutable std::vector<std::shared_ptr<TruthStore>> retired_
      LTM_GUARDED_BY(retired_mu_);
};

/// The benchmark driver under perfbench/ names the store
/// `store::TruthStoreBase`; this alias keeps that name compiling until
/// the driver names PartitionedTruthStore. Nothing else uses it.
using TruthStoreBase = PartitionedTruthStore;

}  // namespace store
}  // namespace ltm

#endif  // LTM_STORE_PARTITIONED_STORE_H_
