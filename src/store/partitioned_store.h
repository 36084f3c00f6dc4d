#ifndef LTM_STORE_PARTITIONED_STORE_H_
#define LTM_STORE_PARTITIONED_STORE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "obs/metrics.h"
#include "store/partition_map.h"
#include "store/store_base.h"
#include "store/truth_store.h"

namespace ltm {
namespace store {

class PartitionedTruthStore;

/// Knobs for a PartitionedTruthStore.
struct PartitionedStoreOptions {
  /// Template for every child store. Per-child fields are overridden by
  /// the router: external_sequencing is forced on, metrics_label gets
  /// `partition="<index>"`, metrics points at the router's registry, and
  /// block_cache_mb / posterior_cache_capacity are divided across the
  /// partitions so the configured budgets stay totals.
  TruthStoreOptions store;

  /// Initial partition count when creating a fresh store (>= 1). An
  /// existing PARTMAP wins — reopening never repartitions.
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
  size_t max_partitions = 64;
};

/// The composite MVCC snapshot a PartitionedTruthStore issues: one
/// EpochPin per partition, all acquired under the routing-table lock so
/// no split/merge can interleave — a consistent vector epoch across the
/// whole keyspace. Holds shared ownership of every pinned child, so a
/// partition retired by a later rebalance stays readable until the pin
/// drops. Must not outlive the issuing store.
class CompositePin : public StorePin {
 public:
  ~CompositePin() override;

  uint64_t epoch() const override { return epoch_; }
  const CompositePin* AsCompositePin() const override { return this; }

  size_t num_partitions() const { return pins_.size(); }
  /// The partition boundaries frozen at pin time (routing for point
  /// probes against this pin).
  const std::vector<PartitionMapEntry>& entries() const { return entries_; }

 private:
  friend class PartitionedTruthStore;
  CompositePin(const PartitionedTruthStore* store, uint64_t epoch,
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
  std::vector<PartitionMapEntry> entries_;
  std::vector<std::shared_ptr<TruthStore>> children_;
  std::vector<std::unique_ptr<EpochPin>> pins_;
};

/// Per-partition slice of a partitioned verify run.
struct PartitionVerifyReport {
  PartitionMapEntry entry;
  StoreVerifyReport report;
};

/// Offline integrity report for a partitioned store directory (see
/// PartitionedTruthStore::Verify). `errors` collects every invariant
/// violation — range overlap or gap in the map, a child that fails its
/// own verify, an unreferenced partition directory — instead of stopping
/// at the first, so one run shows the whole damage.
struct PartitionedVerifyReport {
  PartitionMap map;
  std::vector<PartitionVerifyReport> partitions;
  std::vector<std::string> orphan_dirs;
  std::vector<std::string> errors;

  bool ok() const { return errors.empty(); }
  std::string Summary() const;
};

/// An entity-range partitioned TruthStore: a router over N child
/// TruthStores, each owning one contiguous range of the entity keyspace
/// with its own WAL, memtable, leveled segments, block-cache share, and
/// MANIFEST, under one top-level checksummed PARTMAP (see
/// partition_map.h) that records the range boundaries and is the atomic
/// commit point of every split/merge.
///
/// Appends route by entity under a shared (reader) lock and carry a
/// global ingest sequence number from one atomic counter; children run
/// in external-sequencing mode, persisting those seqs through their WALs
/// and segments. A cross-partition materialize therefore merges child
/// rows back into exact global ingest order — because the model
/// factorizes by entity AND replay order is reproduced bit for bit,
/// posteriors computed against a partitioned store are bit-identical to
/// a single store's (pinned by test under kernel=reference).
///
/// CompactOnce() fans the leveled step across partitions, then
/// rebalances: a partition past split_threshold_rows splits at its
/// median entity, an adjacent pair under merge_threshold_rows merges.
/// Rebalance copies the pinned rows (original seqs preserved) into fresh
/// child directories, flushes them, commits the new PARTMAP, and swaps
/// the routing table under the exclusive lock; the old children retire
/// but stay alive (and on disk) until every CompositePin referencing
/// them drops. A crash on either side of the PARTMAP rename recovers to
/// exactly the old or exactly the new partitioning, never a mix — the
/// loser's directories are reaped as orphans on the next Open.
///
/// Thread-safe with the TruthStore contract per partition; routing reads
/// (append/pin/flush) share the table lock, only a rebalance takes it
/// exclusively. Not multi-process-safe.
class PartitionedTruthStore : public TruthStoreBase {
 public:
  /// Opens (or initializes) the partitioned store rooted at `dir`. A
  /// fresh directory is carved into `options.partitions` ranges; an
  /// existing PARTMAP is validated and its children reopened (orphan
  /// partition directories from an interrupted rebalance are removed).
  static Result<std::unique_ptr<PartitionedTruthStore>> Open(
      const std::string& dir,
      PartitionedStoreOptions options = PartitionedStoreOptions());

  ~PartitionedTruthStore() override;

  Status Append(const WalRecord& record) override LTM_EXCLUDES(table_mu_);
  Status AppendRaw(const RawDatabase& raw) override LTM_EXCLUDES(table_mu_);
  Status Sync() override LTM_EXCLUDES(table_mu_);
  Status Flush() override LTM_EXCLUDES(table_mu_);
  Status Compact() override LTM_EXCLUDES(table_mu_);
  /// One leveled step on every partition, then at most one rebalance
  /// (split or merge). True when any partition compacted or the
  /// partition layout changed.
  Result<bool> CompactOnce() override LTM_EXCLUDES(table_mu_);

  std::unique_ptr<StorePin> PinSnapshot(
      const std::string* min_entity = nullptr,
      const std::string* max_entity = nullptr) const override
      LTM_EXCLUDES(table_mu_);
  Result<RowViews> ReadRowsAt(const StorePin& pin,
                              const std::string* min_entity,
                              const std::string* max_entity,
                              RangeScanStats* stats = nullptr) const override;
  Result<bool> SnapshotFactMayExist(const StorePin& pin,
                                    const std::string& entity,
                                    const std::string& attribute)
      const override;

  /// Composite epoch: a rebalance-stable offset plus the sum of the
  /// child epochs — advances on every append and every commit anywhere,
  /// and stays strictly monotone across splits/merges.
  uint64_t epoch() const override LTM_EXCLUDES(table_mu_);
  TruthStoreStats Stats() const override LTM_EXCLUDES(table_mu_);

  size_t num_partitions() const override LTM_EXCLUDES(table_mu_);
  std::vector<uint64_t> PartitionEpochs() const override
      LTM_EXCLUDES(table_mu_);

  /// Copy of the current partition map (observability: store_cli
  /// inspect/verify print it).
  PartitionMap partition_map() const LTM_EXCLUDES(table_mu_);
  /// Per-partition segment listings aligned with partition_map() order.
  std::vector<std::vector<SegmentInfo>> PartitionSegments() const
      LTM_EXCLUDES(table_mu_);
  /// Per-partition stats aligned with partition_map() order.
  std::vector<TruthStoreStats> PartitionStats() const
      LTM_EXCLUDES(table_mu_);

  PosteriorCache& posterior_cache_for(std::string_view entity) override
      LTM_EXCLUDES(table_mu_);
  void ClearPosteriorCaches() override LTM_EXCLUDES(table_mu_);
  CacheStats PosteriorCacheStats() const override LTM_EXCLUDES(table_mu_);

  size_t num_pinned_epochs() const override;
  /// Retired (split/merged-away) partitions whose directories are kept
  /// for live pins.
  size_t num_retired_partitions() const LTM_EXCLUDES(retired_mu_);

  obs::MetricsRegistry* metrics() const override { return metrics_; }
  const std::string& dir() const override { return dir_; }

  /// Offline integrity check: PARTMAP parses, its ranges cover the
  /// keyspace with no overlap or gap, every child passes
  /// TruthStore::Verify, and unreferenced partition directories are
  /// reported. Returns the report even when errors were found (check
  /// report.ok()); non-OK Status only for an unreadable PARTMAP.
  static Result<PartitionedVerifyReport> Verify(const std::string& dir);

 private:
  friend class CompositePin;

  PartitionedTruthStore(std::string dir, PartitionedStoreOptions options);

  /// Child options for partition `id` in a layout of `count` partitions
  /// (external sequencing, partition label, divided cache budgets).
  TruthStoreOptions ChildOptions(uint64_t id, size_t count) const;

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

  /// CompositePin's destructor: unpins and reclaims retired partitions
  /// whose last pin dropped.
  void ReleaseCompositePin() const;
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
  /// Live CompositePin handles.
  mutable std::atomic<uint64_t> live_pins_{0};
  /// One rebalance at a time (CompactOnce may be called concurrently).
  std::atomic<bool> rebalancing_{false};

  /// Children swapped out by a rebalance, kept alive (object + files)
  /// until no CompositePin references them.
  mutable Mutex retired_mu_;
  mutable std::vector<std::shared_ptr<TruthStore>> retired_
      LTM_GUARDED_BY(retired_mu_);
};

/// Opens the store rooted at `dir` in whichever mode the directory is
/// in: a PARTMAP means partitioned (regardless of options.partitions), a
/// MANIFEST means single-store (options.partitions must then be <= 1 —
/// reopening a single store partitioned is refused, not silently
/// migrated), and a fresh directory follows options.partitions.
Result<std::unique_ptr<TruthStoreBase>> OpenTruthStoreAuto(
    const std::string& dir,
    PartitionedStoreOptions options = PartitionedStoreOptions());

}  // namespace store
}  // namespace ltm

#endif  // LTM_STORE_PARTITIONED_STORE_H_
