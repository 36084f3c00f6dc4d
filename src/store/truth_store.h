#ifndef LTM_STORE_TRUTH_STORE_H_
#define LTM_STORE_TRUTH_STORE_H_

#include <atomic>
#include <cstdint>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "common/thread_pool.h"
#include "data/dataset.h"
#include "obs/metrics.h"
#include "store/block_cache.h"
#include "store/block_format.h"
#include "store/manifest.h"
#include "store/posterior_cache.h"
#include "store/segment.h"
#include "store/store_base.h"
#include "store/wal.h"

namespace ltm {
namespace store {

/// Knobs for a TruthStore instance.
struct TruthStoreOptions {
  /// Auto-flush the memtable into a segment once it holds this many rows
  /// (0 = flush only when Flush() is called).
  size_t memtable_flush_rows = 0;
  /// Capacity of the served-posterior LRU cache (0 disables it).
  size_t posterior_cache_capacity = 4096;
  /// fsync the WAL after every append. Off by default: appends are
  /// durable at the next Sync()/Flush() (group commit), and a crash loses
  /// at most the unsynced suffix.
  bool sync_every_append = false;

  // Block-segment layout (see segment.h).
  size_t block_size_bytes = 4096;
  size_t restart_interval = 16;
  /// Bloom filter bits per key in each segment (0 disables blooms).
  uint32_t bloom_bits_per_key = 10;
  /// Sharded block cache budget in MiB (0 disables the cache).
  size_t block_cache_mb = 8;

  // Leveled compaction shape.
  /// CompactOnce() merges L0 into L1 once this many L0 segments exist.
  size_t l0_compaction_trigger = 4;
  /// Byte budget of L1; each deeper level gets 10x the previous.
  uint64_t level_base_bytes = 4ull << 20;
  /// Compaction splits its output at entity boundaries near this size.
  uint64_t segment_target_bytes = 4ull << 20;
  /// Fold the manifest edit log into a fresh snapshot every N edits.
  size_t manifest_snapshot_every = 32;

  /// Router-assigned ingest sequence numbers. Off (the default): the
  /// store assigns contiguous sequence numbers itself at flush time.
  /// On — the PartitionedTruthStore child mode — every Append must carry
  /// the caller's global sequence number in WalRecord::seq; the store
  /// persists it in the (version-2) WAL, carries it through flush into
  /// segment rows, and Materialize orders rows by it. This is what makes
  /// a cross-partition merge reproduce the router's global ingest order
  /// bit for bit.
  bool external_sequencing = false;

  /// Label text merged into every `ltm_store_*` metric name this store
  /// registers (e.g. `partition="3"` makes
  /// `ltm_store_flushes_total{partition="3"}`). Empty (the default)
  /// keeps the unlabeled names. The partitioned router labels each child
  /// so one registry exposes per-partition series side by side.
  std::string metrics_label;

  /// Registry the store (and its caches / serving session) publishes
  /// `ltm_store_*` / `ltm_cache_*` / `ltm_serve_*` metrics into. Null
  /// (the default) gives the store a private registry — instances stay
  /// isolated, which is what tests want. Processes with one exposition
  /// surface (the CLIs, the benches) pass
  /// `&obs::MetricsRegistry::Global()`. Must outlive the store.
  obs::MetricsRegistry* metrics = nullptr;
};

class TruthStore;

/// A ref-counted MVCC read snapshot of the store at one epoch: the
/// committed segment list plus a copy of the memtable rows at pin time.
/// While a pin is alive, compaction defers deleting any segment file the
/// pin references, so reads against the pin never race file removal and
/// never block appends, flushes, or compaction. Dropping the last pin on
/// a superseded segment reclaims its file.
///
/// Obtained from TruthStore::PinEpoch(); read via
/// TruthStore::MaterializeFromPin(). A pin created with entity bounds
/// only holds the memtable rows inside those bounds — materializing a
/// wider range from it would silently miss rows, so keep requests within
/// the pin's bounds (MaterializeFromPin re-applies its own bounds on top).
///
/// Thread-safe for concurrent reads; the handle itself must be destroyed
/// on one thread. Must not outlive the TruthStore that issued it.
class EpochPin : public StorePin {
 public:
  ~EpochPin() override;

  /// Holds a back-reference into the issuing store's refcount table;
  /// duplicating it would double-release.
  EpochPin(EpochPin&&) = delete;
  EpochPin& operator=(EpochPin&&) = delete;

  /// The store epoch this pin captured (for posterior-cache keying).
  uint64_t epoch() const override { return epoch_; }
  const EpochPin* AsEpochPin() const override { return this; }
  const std::vector<SegmentInfo>& segments() const { return segments_; }
  const std::vector<WalRecord>& memtable_rows() const {
    return memtable_rows_;
  }

 private:
  friend class TruthStore;
  EpochPin(const TruthStore* store, uint64_t epoch,
           std::vector<SegmentInfo> segments,
           std::vector<WalRecord> memtable_rows)
      : store_(store),
        epoch_(epoch),
        segments_(std::move(segments)),
        memtable_rows_(std::move(memtable_rows)) {}

  const TruthStore* store_;
  uint64_t epoch_;
  std::vector<SegmentInfo> segments_;
  std::vector<WalRecord> memtable_rows_;
};

/// Offline integrity report (see TruthStore::Verify).
struct StoreVerifyReport {
  uint64_t generation = 0;
  size_t segments = 0;
  uint64_t segment_rows = 0;
  uint32_t max_level = 0;
  uint64_t manifest_edits = 0;
  bool manifest_torn_tail = false;
  uint64_t wal_records = 0;
  bool wal_torn_tail = false;
  std::vector<std::string> orphan_files;

  std::string Summary() const;
};

/// A WAL-backed incremental claim store: the durable substrate for the
/// §5.4 deployment story (LTMinc answers online while batch LTM refits
/// periodically). A leveled LSM:
///
///   Append ─► WAL (checksummed records, group-commit fsync)
///          └► memtable (an in-memory RawDatabase delta)
///   Flush  ─► the memtable's rows get contiguous global ingest sequence
///             numbers and become an immutable block segment at L0
///             (restartable prefix-compressed blocks + block index +
///             bloom filter, see segment.h) + the WAL rotates + one
///             version-edit record appends to the MANIFEST
///   CompactOnce ─► one leveled step: L0 segments (overlapping ranges)
///                  merge into L1; an over-budget level spills one
///                  segment into the next. L1+ entity ranges within a
///                  level are disjoint, so a point read touches at most
///                  one segment per deep level.
///   Compact ─► major: every segment merges into the bottom level.
///
/// Every commit appends one checksummed version-edit record (O(delta),
/// not O(segments)), folding into a fresh snapshot every
/// `manifest_snapshot_every` edits via the atomic temp + fsync + rename
/// protocol — so every crash lands on a well-defined state: the committed
/// segment set plus the active WAL's intact record prefix. Open() replays
/// that WAL tail over the newest segment set, truncates any torn WAL or
/// MANIFEST suffix, and removes orphan files from interrupted
/// flushes/compactions.
///
/// Replay order is carried by the rows themselves: every row holds the
/// global ingest sequence number assigned at flush. Materialize() sorts
/// the selected rows by that sequence and re-adds them in order — the
/// exact row order batch ingestion would have seen, regardless of which
/// level compaction moved a row to — so downstream posteriors are
/// bit-identical to a one-shot batch load. Point reads go bloom filter →
/// block index binary search → ONE data block (through the shared block
/// cache); MaterializeEntityRange() additionally skips whole segments via
/// manifest zone stats.
///
/// Thread-safe: appends, flushes, reads, and one background compaction
/// may run concurrently. Not multi-process-safe — one TruthStore instance
/// owns a directory at a time.
class TruthStore : public TruthStoreBase {
 public:
  /// Opens (or initializes) the store at `dir`, creating the directory if
  /// needed, and runs crash recovery as described above.
  static Result<std::unique_ptr<TruthStore>> Open(
      const std::string& dir, TruthStoreOptions options = TruthStoreOptions());

  /// Joins any in-flight background compaction before tearing down.
  ~TruthStore() override;

  /// Owns a directory, a WAL appender, and a mutex — copying or moving a
  /// live store could never be correct, so both are compile errors.
  TruthStore(TruthStore&&) = delete;
  TruthStore& operator=(TruthStore&&) = delete;

  /// Appends one observation: WAL first, then the memtable. Records with
  /// observation != 1 are rejected (explicit negative claims are reserved
  /// in the record format but not yet served). May trigger an auto-flush
  /// per `memtable_flush_rows`. Under external_sequencing the record's
  /// `seq` is persisted as given; otherwise it is ignored (flush assigns
  /// sequence numbers).
  Status Append(const WalRecord& record) override LTM_EXCLUDES(mu_);

  /// Appends every row of `raw` (in row order) and then Sync()s — one
  /// durable group commit per chunk. The ingest fast path: no fact table
  /// or claim graph is needed or built.
  Status AppendRaw(const RawDatabase& raw) override LTM_EXCLUDES(mu_);

  /// Appends `records` in order under one lock hold, then Sync()s — the
  /// batched group-commit path the partitioned router uses after
  /// splitting a chunk by entity range (each record carrying its
  /// router-assigned seq).
  Status AppendRecords(const std::vector<WalRecord>& records)
      LTM_EXCLUDES(mu_);

  /// Makes all buffered appends durable (WAL fsync).
  Status Sync() override LTM_EXCLUDES(mu_);

  /// Writes the memtable as a new immutable L0 block segment, rotates the
  /// WAL, and appends a manifest edit. No-op on an empty memtable.
  Status Flush() override LTM_EXCLUDES(mu_);

  /// Major compaction: merges every segment into the bottom level
  /// (duplicate (entity, attribute, source) rows collapse to their
  /// first-ingested occurrence), splitting outputs at entity boundaries
  /// near `segment_target_bytes`. No-op with fewer than two segments.
  /// Appends may proceed concurrently; segments flushed while the merge
  /// runs survive unmerged. At most one compaction (sync or async) at a
  /// time — a second concurrent call fails with FailedPrecondition.
  Status Compact() override LTM_EXCLUDES(mu_);

  /// One leveled compaction step, or nothing: merges all of L0 into L1
  /// once `l0_compaction_trigger` L0 segments exist, else spills one
  /// segment from the shallowest over-budget level into the next (a
  /// segment with no next-level overlap is relinked without rewriting).
  /// Returns false when no level needed work. Same single-compaction
  /// exclusivity as Compact().
  Result<bool> CompactOnce() override LTM_EXCLUDES(mu_);

  /// Runs Compact() as a background job on `pool`; the future resolves
  /// to FailedPrecondition when a compaction is already in flight. The
  /// store's destructor joins the job, so destroying the store without
  /// waiting on the future is safe (the pool must outlive the store).
  std::shared_future<Status> CompactAsync(ThreadPool& pool)
      LTM_EXCLUDES(mu_);

  /// Acquires an MVCC read snapshot at the current epoch: copies the
  /// committed segment list (bumping each segment's pin refcount so
  /// compaction defers deleting its file) and the memtable rows
  /// (restricted to [*min_entity, *max_entity] when non-null). Cheap for
  /// point reads — only the matching memtable rows are copied. The pin
  /// must not outlive this store.
  std::unique_ptr<EpochPin> PinEpoch(
      const std::string* min_entity = nullptr,
      const std::string* max_entity = nullptr) const LTM_EXCLUDES(mu_);

  /// Materializes from a pinned snapshot: CollectPinnedRows interned in
  /// seq order — the same replay order a sequential materialize at the
  /// pin's epoch uses, so posteriors computed from a pin are
  /// bit-identical. Never retries: the pin's refcounts guarantee every
  /// referenced segment file still exists. `min_entity`/`max_entity`
  /// further restrict the read (must be within the pin's own bounds, if
  /// it has them).
  Result<Dataset> MaterializeFromPin(const EpochPin& pin,
                                     const std::string* min_entity = nullptr,
                                     const std::string* max_entity = nullptr,
                                     RangeScanStats* stats = nullptr) const;

  /// The rows behind a pin as seq-sorted views (see
  /// TruthStoreBase::ReadRowsAt): every in-range segment row — read
  /// through the block cache, seeking inside one block on a point read —
  /// plus the pin's memtable rows. The building block of the partitioned
  /// store's cross-partition merge (child memtable rows only carry
  /// meaningful seqs under external_sequencing). The rows are NOT
  /// deduplicated; callers replay them through a RawDatabase in order.
  Result<RowViews> CollectPinnedRows(const EpochPin& pin,
                                     const std::string* min_entity = nullptr,
                                     const std::string* max_entity = nullptr,
                                     RangeScanStats* stats = nullptr) const;

  /// Bloom-only point probe: can fact (entity, attribute) possibly exist
  /// at the pin's epoch? Checks the pin's memtable rows exactly, then
  /// probes the bloom filter of every zone-overlapping segment — no data
  /// block is read. False means definitely absent (blooms have no false
  /// negatives), so the caller can serve the no-claim prior without
  /// materializing anything; such all-negative probes are counted in
  /// TruthStoreStats::bloom_point_skips.
  Result<bool> PinnedFactMayExist(const EpochPin& pin,
                                  const std::string& entity,
                                  const std::string& attribute) const;

  // TruthStoreBase snapshot surface: the polymorphic spellings of
  // PinEpoch / CollectPinnedRows / PinnedFactMayExist. A pin passed
  // back must be one this store issued (checked, InvalidArgument).
  std::unique_ptr<StorePin> PinSnapshot(
      const std::string* min_entity = nullptr,
      const std::string* max_entity = nullptr) const override;
  Result<RowViews> ReadRowsAt(const StorePin& pin,
                              const std::string* min_entity,
                              const std::string* max_entity,
                              RangeScanStats* stats = nullptr) const override;
  Result<bool> SnapshotFactMayExist(const StorePin& pin,
                                    const std::string& entity,
                                    const std::string& attribute)
      const override;

  /// In-memory data version: advances on every append and every manifest
  /// commit. Keys the posterior cache.
  uint64_t epoch() const override LTM_EXCLUDES(mu_);

  TruthStoreStats Stats() const override LTM_EXCLUDES(mu_);

  /// Copy of the committed segment list (observability: store_cli
  /// inspect walks it to print per-level layout and bloom geometry).
  std::vector<SegmentInfo> segments() const LTM_EXCLUDES(mu_);

  /// Live EpochPin handles outstanding (observability + tests).
  size_t num_pinned_epochs() const override LTM_EXCLUDES(mu_);
  /// Superseded segments whose files are retained for live pins.
  size_t num_deferred_segments() const LTM_EXCLUDES(mu_);

  /// The next ingest sequence number this store would accept/assign:
  /// manifest next_row_seq, or one past the largest externally sequenced
  /// row still in the memtable. The partitioned router recovers its
  /// global sequence counter from the max of this over all children.
  uint64_t NextRowSeq() const LTM_EXCLUDES(mu_);

  PosteriorCache& posterior_cache() { return cache_; }
  PosteriorCache& posterior_cache_for(std::string_view entity) override {
    (void)entity;
    return cache_;
  }
  void ClearPosteriorCaches() override { cache_.Clear(); }
  CacheStats PosteriorCacheStats() const override { return cache_.Stats(); }
  /// The shared data-block cache (internally thread-safe).
  BlockCache& block_cache() const { return block_cache_; }

  /// The registry this store publishes into: the injected
  /// TruthStoreOptions::metrics, or the store's own private registry.
  /// Serving components layered on the store (ServeSession,
  /// RefitScheduler) register their metrics here so one RenderText()
  /// covers the whole stack. Never null.
  obs::MetricsRegistry* metrics() const override { return metrics_; }

  const std::string& dir() const override { return dir_; }

  /// Offline integrity check of a store directory: manifest readable,
  /// every segment parses with valid checksums end to end and matches its
  /// manifest zone stats, levels >= 1 hold disjoint entity ranges, the
  /// WAL replays (reporting torn tails), and orphan files are listed.
  /// Does not modify anything.
  static Result<StoreVerifyReport> Verify(const std::string& dir);

 private:
  friend class EpochPin;

  TruthStore(std::string dir, TruthStoreOptions options);

  /// EpochPin's destructor: drops the pin's segment references and
  /// deletes any deferred segment file whose last reference this was.
  void ReleasePin(const EpochPin& pin) const LTM_EXCLUDES(mu_);

  Status FlushLocked() LTM_REQUIRES(mu_);
  Status AppendLocked(const WalRecord& record) LTM_REQUIRES(mu_);
  /// Merges `inputs` into `output_level`, commits, and defers or deletes
  /// the superseded files. Runs with the compacting_ flag held; takes and
  /// releases mu_ around its capture and commit phases.
  Status CompactSegmentsInner(const std::vector<SegmentInfo>& inputs,
                              uint32_t output_level) LTM_EXCLUDES(mu_);
  /// Relinks `seg` to `output_level` without rewriting its file.
  Status TrivialMoveInner(const SegmentInfo& seg, uint32_t output_level)
      LTM_EXCLUDES(mu_);
  /// Commits `next` (already validated), appending `edit` or folding the
  /// log into a snapshot per `manifest_snapshot_every`. Returns false for
  /// a clean commit, true when the new state is visible on disk but its
  /// durability degraded (the caller must then keep superseded files so a
  /// power-loss rollback still finds them). Other failures propagate.
  Result<bool> CommitVersionLocked(const Manifest& next,
                                   const VersionEdit& edit) LTM_REQUIRES(mu_);
  /// Cached random-access reader for `seg`, opened on first use.
  Result<std::shared_ptr<BlockSegmentReader>> GetReader(
      const SegmentInfo& seg) const LTM_EXCLUDES(readers_mu_);
  /// Drops the cached reader and every cached block of segment `id`
  /// (called just before its file is deleted).
  void DropSegmentCaches(uint64_t id) const LTM_EXCLUDES(readers_mu_);
  BlockSegmentWriterOptions WriterOptions() const;
  std::string SegmentPath(const SegmentInfo& seg) const;
  std::string WalPath(const std::string& file) const;

  const std::string dir_;
  const TruthStoreOptions options_;

  mutable Mutex mu_;
  Manifest manifest_ LTM_GUARDED_BY(mu_);
  RawDatabase memtable_ LTM_GUARDED_BY(mu_);
  /// Under external_sequencing: the caller-assigned seq of memtable row
  /// i (the memtable dedups, so a seq is recorded only when its Add grew
  /// the row count — keeping the FIRST occurrence's seq, the same rule
  /// compaction applies). Empty in internal mode.
  std::vector<uint64_t> memtable_seqs_ LTM_GUARDED_BY(mu_);
  std::optional<WalWriter> wal_ LTM_GUARDED_BY(mu_);
  uint64_t epoch_ LTM_GUARDED_BY(mu_) = 0;
  uint64_t wal_records_replayed_ LTM_GUARDED_BY(mu_) = 0;
  bool recovered_torn_tail_ LTM_GUARDED_BY(mu_) = false;
  bool compacting_ LTM_GUARDED_BY(mu_) = false;
  size_t edits_since_snapshot_ LTM_GUARDED_BY(mu_) = 0;
  /// Outstanding CompactAsync jobs (each captures `this`); pruned as they
  /// resolve and joined by the destructor.
  std::vector<std::shared_future<Status>> pending_compactions_
      LTM_GUARDED_BY(mu_);

  /// MVCC pin state (mutable: pinning is a const read-side operation).
  /// pin_refs_ maps segment id -> number of live pins referencing it;
  /// deferred_segments_ holds segments compacted out of the manifest
  /// whose files must survive until their refcount drops to zero.
  mutable std::unordered_map<uint64_t, uint32_t> pin_refs_
      LTM_GUARDED_BY(mu_);
  mutable size_t live_pins_ LTM_GUARDED_BY(mu_) = 0;
  mutable std::vector<SegmentInfo> deferred_segments_ LTM_GUARDED_BY(mu_);

  /// Open segment readers, keyed by segment id (ids are never reused).
  mutable Mutex readers_mu_;
  mutable std::unordered_map<uint64_t, std::shared_ptr<BlockSegmentReader>>
      readers_ LTM_GUARDED_BY(readers_mu_);

  /// Registry plumbing. owned_metrics_ backs metrics_ when no registry
  /// was injected; both are declared before the caches so the registry
  /// exists when their constructors register `ltm_cache_*` metrics.
  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;
  obs::MetricsRegistry* metrics_;  // never null

  /// `ltm_store_*` metrics, resolved once in the constructor. Counter
  /// increments happen inside the same mu_-held regions that used to
  /// mutate the ad-hoc stats structs, so cross-counter invariants (e.g.
  /// input vs output segment totals) stay consistent under the lock.
  obs::Counter* wal_appends_;
  obs::Counter* wal_syncs_;
  obs::Histogram* wal_append_micros_;
  obs::Histogram* wal_sync_micros_;
  obs::Counter* flushes_;
  obs::Counter* flush_rows_;
  obs::Histogram* flush_micros_;
  obs::Counter* compactions_;
  obs::Counter* compaction_trivial_moves_;
  obs::Counter* compaction_input_segments_;
  obs::Counter* compaction_output_segments_;
  obs::Counter* compaction_bytes_read_;
  obs::Counter* compaction_bytes_written_;
  obs::Counter* compaction_rows_dropped_;
  obs::Histogram* compaction_micros_;
  /// All-negative PinnedFactMayExist probes (zero blocks read).
  obs::Counter* bloom_point_skips_;
  obs::Gauge* epoch_gauge_;
  obs::Gauge* memtable_rows_gauge_;
  obs::Gauge* live_pins_gauge_;

  PosteriorCache cache_;
  mutable BlockCache block_cache_;
};

/// Formats a segment filename ("seg-000042.blk") / WAL filename
/// ("wal-000007.log") for `id`.
std::string SegmentFileName(uint64_t id);
std::string WalFileName(uint64_t seq);

}  // namespace store
}  // namespace ltm

#endif  // LTM_STORE_TRUTH_STORE_H_
