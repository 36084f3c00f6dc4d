#ifndef LTM_STORE_TRUTH_STORE_H_
#define LTM_STORE_TRUTH_STORE_H_

#include <atomic>
#include <cstdint>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
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
#include "store/segment.h"
#include "store/wal.h"

namespace ltm {
namespace store {

/// Read-path counters reported per materialization call.
struct RangeScanStats {
  size_t segments_scanned = 0;
  /// Segments excluded by manifest zone stats (entity range).
  size_t segments_skipped = 0;
  /// Segments excluded by a negative bloom probe (point reads only).
  size_t segments_skipped_bloom = 0;
  /// Data blocks decoded (cache hits + disk reads).
  uint64_t blocks_read = 0;
  /// Of those, served from the block cache.
  uint64_t block_cache_hits = 0;
  /// Bytes actually read from disk for data blocks.
  uint64_t bytes_read = 0;
};

/// Interns `rows` in order into a Dataset (RawDatabase dedup keeps each
/// (entity, attribute, source) triple's first row).
Dataset DatasetFromRows(std::string name, const RowViews& rows);

/// Cumulative compaction work counters (write-amplification accounting).
struct CompactionStats {
  uint64_t compactions = 0;       ///< merge passes that committed
  uint64_t trivial_moves = 0;     ///< segments relinked down a level, no IO
  uint64_t input_segments = 0;
  uint64_t output_segments = 0;
  uint64_t bytes_read = 0;        ///< sum of input segment file bytes
  uint64_t bytes_written = 0;     ///< sum of output segment file bytes
  uint64_t rows_dropped = 0;      ///< duplicate (entity, attr, source) rows
};

/// Point-in-time store counters. PartitionedTruthStore::Stats() reports
/// the aggregate over every partition (counts summed, max_level taken as
/// the max, epoch/generation the composite values).
struct TruthStoreStats {
  uint64_t epoch = 0;
  uint64_t generation = 0;
  size_t num_segments = 0;
  uint64_t segment_rows = 0;
  size_t memtable_rows = 0;
  uint64_t wal_records_replayed = 0;
  bool recovered_torn_tail = false;
  /// Live pin handles (MVCC read snapshots) outstanding right now.
  size_t live_pins = 0;
  /// Segments compacted away but kept on disk because a live pin still
  /// references them; reclaimed when the last referencing pin drops.
  size_t deferred_segments = 0;

  /// Deepest populated level and the L0 (overlapping) segment count.
  uint32_t max_level = 0;
  size_t l0_segments = 0;
  uint64_t next_row_seq = 0;
  /// Edit records appended since the last manifest snapshot fold.
  uint64_t manifest_edits_since_snapshot = 0;
  /// Point probes answered "fact cannot exist" purely from blooms,
  /// reading zero data blocks (cumulative).
  uint64_t bloom_point_skips = 0;
  BlockCacheStats block_cache;
  CompactionStats compaction;
};

/// Knobs for a TruthStore instance.
struct TruthStoreOptions {
  /// Auto-flush the memtable into a segment once it holds this many rows
  /// (0 = flush only when Flush() is called).
  size_t memtable_flush_rows = 0;
  /// Total capacity of the served-posterior LRU caches (0 disables
  /// them). Read from the PartitionedTruthStore's template, which splits
  /// it across its per-partition caches; a child keeps no cache.
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

/// A ref-counted MVCC read snapshot of one TruthStore at one epoch: the
/// committed segment list plus a copy of the memtable rows at pin time.
/// While a pin is alive, compaction defers deleting any segment file the
/// pin references, so reads against the pin never race file removal and
/// never block appends, flushes, or compaction. Dropping the last pin on
/// a superseded segment reclaims its file.
///
/// Obtained from TruthStore::PinEpoch(); read via
/// TruthStore::CollectPinnedRows(). A pin created with entity bounds only
/// holds the memtable rows inside those bounds — reading a wider range
/// from it would silently miss rows, so keep requests within the pin's
/// bounds (CollectPinnedRows re-applies its own bounds on top).
///
/// Thread-safe for concurrent reads; the handle itself must be destroyed
/// on one thread. Must not outlive the TruthStore that issued it.
class EpochPin {
 public:
  ~EpochPin();

  /// Holds a back-reference into the issuing store's refcount table;
  /// duplicating it would double-release.
  EpochPin(EpochPin&&) = delete;
  EpochPin& operator=(EpochPin&&) = delete;

  /// The store epoch this pin captured.
  uint64_t epoch() const { return epoch_; }
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

/// One partition of a PartitionedTruthStore — the store every caller
/// opens — which owns one contiguous entity range in its own directory.
/// A leveled LSM:
///
///   Append ─► WAL (checksummed records carrying the router-assigned
///          │   global ingest sequence number, group-commit fsync)
///          └► memtable (an in-memory RawDatabase delta)
///   Flush  ─► the memtable's rows, each with its ingest sequence number,
///             become an immutable block segment at L0
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
/// global ingest sequence number the router assigned, persisted through
/// the WAL and every segment. CollectPinnedRows() returns rows sorted by
/// it — the exact row order batch ingestion would have seen, regardless
/// of which level compaction moved a row to — so downstream posteriors
/// are bit-identical to a one-shot batch load. Point reads go bloom
/// filter → block index binary search → ONE data block (through the
/// shared block cache); range reads additionally skip whole segments via
/// manifest zone stats.
///
/// Thread-safe: appends, flushes, reads, and one background compaction
/// may run concurrently. Not multi-process-safe — one TruthStore instance
/// owns a directory at a time.
class TruthStore {
 public:
  /// Opens (or initializes) the store at `dir`, creating the directory if
  /// needed, and runs crash recovery as described above.
  static Result<std::unique_ptr<TruthStore>> Open(
      const std::string& dir, TruthStoreOptions options = TruthStoreOptions());

  /// Joins any in-flight background compaction before tearing down.
  ~TruthStore();

  /// Owns a directory, a WAL appender, and a mutex — copying or moving a
  /// live store could never be correct, so both are compile errors.
  TruthStore(TruthStore&&) = delete;
  TruthStore& operator=(TruthStore&&) = delete;

  /// Appends one observation: WAL first, then the memtable. Records with
  /// observation != 1 are rejected (explicit negative claims are reserved
  /// in the record format but not yet served). May trigger an auto-flush
  /// per `memtable_flush_rows`. The record's `seq` is persisted as
  /// given.
  Status Append(const WalRecord& record) LTM_EXCLUDES(mu_);

  /// Appends `records` in order under one lock hold, then Sync()s — the
  /// batched group-commit path the partitioned router uses after
  /// splitting a chunk by entity range (each record carrying its
  /// router-assigned seq).
  Status AppendRecords(const std::vector<WalRecord>& records)
      LTM_EXCLUDES(mu_);

  /// Makes all buffered appends durable (WAL fsync).
  Status Sync() LTM_EXCLUDES(mu_);

  /// Writes the memtable as a new immutable L0 block segment, rotates the
  /// WAL, and appends a manifest edit. No-op on an empty memtable.
  Status Flush() LTM_EXCLUDES(mu_);

  /// Major compaction: merges every segment into the bottom level
  /// (duplicate (entity, attribute, source) rows collapse to their
  /// first-ingested occurrence), splitting outputs at entity boundaries
  /// near `segment_target_bytes`. No-op with fewer than two segments.
  /// Appends may proceed concurrently; segments flushed while the merge
  /// runs survive unmerged. At most one compaction (sync or async) at a
  /// time — a second concurrent call fails with FailedPrecondition.
  Status Compact() LTM_EXCLUDES(mu_);

  /// One leveled compaction step, or nothing: merges all of L0 into L1
  /// once `l0_compaction_trigger` L0 segments exist, else spills one
  /// segment from the shallowest over-budget level into the next (a
  /// segment with no next-level overlap is relinked without rewriting).
  /// Returns false when no level needed work. Same single-compaction
  /// exclusivity as Compact().
  Result<bool> CompactOnce() LTM_EXCLUDES(mu_);

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

  /// The rows behind a pin as seq-sorted views (see
  /// PartitionedTruthStore::ReadRowsAt): every in-range segment row —
  /// read through the block cache, seeking inside one block on a point
  /// read — plus the pin's memtable rows. Never retries: the pin's
  /// refcounts guarantee every referenced segment file still exists. The
  /// rows are NOT deduplicated; callers replay them through a RawDatabase
  /// in order.
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

  /// In-memory data version: advances on every append and every manifest
  /// commit.
  uint64_t epoch() const LTM_EXCLUDES(mu_);

  TruthStoreStats Stats() const LTM_EXCLUDES(mu_);

  /// Copy of the committed segment list (observability: store_cli
  /// inspect walks it to print per-level layout and bloom geometry).
  std::vector<SegmentInfo> segments() const LTM_EXCLUDES(mu_);

  /// Live EpochPin handles outstanding (observability + tests).
  size_t num_pinned_epochs() const LTM_EXCLUDES(mu_);
  /// Superseded segments whose files are retained for live pins.
  size_t num_deferred_segments() const LTM_EXCLUDES(mu_);

  /// One past the largest ingest sequence number this store holds:
  /// manifest next_row_seq, or one past the largest memtable row's seq.
  /// The partitioned router recovers its global sequence counter from the
  /// max of this over all children.
  uint64_t NextRowSeq() const LTM_EXCLUDES(mu_);

  const std::string& dir() const { return dir_; }

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
  /// The caller-assigned seq of memtable row i (the memtable dedups, so a
  /// seq is recorded only when its Add grew the row count — keeping the
  /// FIRST occurrence's seq, the same rule compaction applies).
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
  /// was injected; both are declared before the block cache so the
  /// registry exists when its constructor registers metrics.
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

  mutable BlockCache block_cache_;
};

/// Formats a segment filename ("seg-000042.blk") / WAL filename
/// ("wal-000007.log") for `id`.
std::string SegmentFileName(uint64_t id);
std::string WalFileName(uint64_t seq);

/// True for the name of a file a TruthStore directory holds: its
/// MANIFEST, a WAL ("wal-*.log"), a segment ("seg-*.blk", or a
/// pre-block-format "seg-*.snap"), or the ".tmp" file of an atomic write
/// of one of them.
bool IsStoreFileName(std::string_view name);

/// Checks that `dir`, which holds no MANIFEST, holds no committed store
/// data either: no segment and no WAL longer than its header. A crashed
/// first open leaves at most a header-sized WAL, so anything more means
/// a store that lost its MANIFEST, and initializing a fresh store over it
/// would destroy that data. FailedPrecondition names the first such file.
Status CheckNoUnmanifestedData(const std::string& dir);

/// Replays WAL `records` (read from `wal_path`) into the deduplicating
/// `memtable` the way TruthStore::Open recovers its tail: the first
/// occurrence of an (entity, attribute, source) row wins, and each new
/// row appends its record's seq to `seqs`. Records with observation != 1
/// are rejected with InvalidArgument.
Status ReplayWalIntoMemtable(const std::vector<WalRecord>& records,
                             const std::string& wal_path,
                             RawDatabase* memtable,
                             std::vector<uint64_t>* seqs);

}  // namespace store
}  // namespace ltm

#endif  // LTM_STORE_TRUTH_STORE_H_
