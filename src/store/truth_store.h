#ifndef LTM_STORE_TRUTH_STORE_H_
#define LTM_STORE_TRUTH_STORE_H_

#include <atomic>
#include <cstdint>
#include <future>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
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

/// The order a store read returns its rows in.
enum class RowOrder {
  /// Global ingest sequence: the replay order of a batch load, which
  /// serving and DatasetFromRows consume.
  kSeq,
  /// RowViewOrder — (entity, attribute, seq), the order segments hold
  /// rows in — so each fact's rows form one run starting at its first
  /// seq. ClaimGraphFromRows consumes it.
  kKey,
};

/// Sorts `*rows` by `order`, given that each run
/// [run_starts[k], run_starts[k + 1]) (the last one ending at
/// rows->size()) is already sorted by it. Runs already in order across
/// their boundary are joined without a merge; the rest merge pairwise,
/// the adjacent pair with the fewest rows first, O(rows * log runs).
/// `run_starts` ascends and may repeat (empty runs).
void MergeSortedRuns(RowOrder order, std::span<const size_t> run_starts,
                     std::vector<RowView>* rows);

/// Interns `rows` in order into a Dataset (RawDatabase dedup keeps each
/// (entity, attribute, source) triple's first row). Given a RowOrder::kSeq
/// read, the slow-path oracle of ClaimGraphFromRows.
Dataset DatasetFromRows(std::string name, const RowViews& rows);

/// What a batch refit needs of the store's rows: the claim graph and the
/// source names its ids index.
struct RowGraph {
  ClaimGraph graph;
  StringInterner sources;
};

/// Builds the claim graph of `rows`, which must be in RowOrder::kKey
/// (else InvalidArgument), by one walk of that order — no RawDatabase,
/// FactTable or Dataset, and no per-row fact lookup: a fact starts where
/// the (entity, attribute) key changes, and sources go through a small
/// flat table. Per-fact and per-entity source sets are sort-uniqued over
/// their contiguous runs, which also collapses repeated triples (an
/// uncompacted store can hold some).
///
/// Fact and source ids are then renumbered into first-appearance order
/// by ingest seq (a fact's first seq is its run's first row), the order
/// a seq-order read interns them in. So the result equals
/// DatasetFromRows(seq-order read).graph bit for bit, with `sources`
/// equal to its raw.sources(), and every golden pinned on the Dataset
/// path holds for the store refit. Key-order ids would save the
/// renumbering but move every such golden. New facts carry later seqs
/// and sort last, so a fact keeps its id from one fit to the next.
/// Returns ClaimGraph::ValidateIdBounds' Status when the ids overflow,
/// and InvalidArgument when the rows or claims reach 2^32.
/// The views must stay valid for the call only.
Result<RowGraph> ClaimGraphFromRows(const RowViews& rows);

/// Point-in-time store layout. PartitionedTruthStore::Stats() reports
/// the aggregate over every partition (counts summed, max_level taken as
/// the max, epoch/generation the composite values). Work counters —
/// compactions, block-cache traffic, bloom skips — are not copied here:
/// read them from the store's MetricsRegistry (`ltm_store_*`,
/// `ltm_cache_block_*`).
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

class SegmentFile;  // truth_store.cc: one segment's file and reader

/// One committed state of a TruthStore, immutable once published: the
/// MANIFEST of one commit plus a shared handle per listed segment
/// (files[i] backs manifest.segments[i]), which a later Version listing
/// the segment shares. Held by shared_ptr — by the store as its current
/// state, by each EpochPin, by a running compaction — so a superseded
/// segment's file goes when the last Version naming it drops.
struct Version {
  Manifest manifest;
  std::vector<std::shared_ptr<SegmentFile>> files;

  /// The handle of segment `id`; null when this Version does not list it.
  std::shared_ptr<SegmentFile> File(uint64_t id) const;
};

/// An MVCC read snapshot of one TruthStore at one epoch: the Version
/// current at pin time plus a copy of the memtable rows. The Version
/// keeps every segment file it names, so reads through the pin never
/// race a file removal and never block appends, flushes, or compaction.
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
  /// The store epoch this pin captured.
  uint64_t epoch() const { return epoch_; }
  const std::vector<SegmentInfo>& segments() const {
    return version_->manifest.segments;
  }
  const std::vector<WalRecord>& memtable_rows() const {
    return memtable_rows_;
  }

 private:
  friend class TruthStore;
  EpochPin(obs::GaugeTerm* live_pins, uint64_t epoch,
           std::shared_ptr<const Version> version,
           std::vector<WalRecord> memtable_rows)
      : live_(live_pins),
        epoch_(epoch),
        version_(std::move(version)),
        memtable_rows_(std::move(memtable_rows)) {}

  obs::GaugeTerm::Hold live_;  // one of the store's live pins
  uint64_t epoch_;
  std::shared_ptr<const Version> version_;
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
/// it by default — the exact row order batch ingestion would have seen,
/// regardless of which level compaction moved a row to — so downstream
/// posteriors are bit-identical to a one-shot batch load; in key order,
/// every fact's first row still carries its first seq. Point reads go
/// bloom filter → block index binary search → ONE data block (through
/// the shared block cache); range reads additionally skip whole segments
/// via manifest zone stats.
///
/// Read state has one ownership rule, shared_ptr: each MANIFEST commit
/// publishes a Version (above) under `mu_`, and a pin copies the pointer.
/// A compaction whose commit landed cleanly marks its inputs obsolete, so
/// each input's reader, cached blocks and file go with the last Version
/// naming it — at once, or when the last pin on an older Version drops.
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

  /// Acquires an MVCC read snapshot at the current epoch: references the
  /// current Version (which keeps its segment files) and copies the
  /// memtable rows (restricted to [*min_entity, *max_entity] when
  /// non-null). Cheap for point reads — only the matching memtable rows
  /// are copied. The pin must not outlive this store.
  std::unique_ptr<EpochPin> PinEpoch(
      const std::string* min_entity = nullptr,
      const std::string* max_entity = nullptr) const LTM_EXCLUDES(mu_);

  /// The rows behind a pin as views in `order` (see
  /// PartitionedTruthStore::ReadRowsAt): every in-range segment row —
  /// read through the block cache, seeking inside one block on a point
  /// read — plus the pin's memtable rows. Each segment yields one run in
  /// key order; RowOrder::kSeq sorts everything by seq, RowOrder::kKey
  /// sorts only the pinned memtable rows and merges the runs (visiting
  /// segments by level and first entity, so each level >= 1 is one). Never
  /// retries: the pin's Version keeps every segment file it names on
  /// disk. The rows are NOT deduplicated; callers replay them through a
  /// RawDatabase in seq order, or collapse them per key.
  Result<RowViews> CollectPinnedRows(const EpochPin& pin,
                                     const std::string* min_entity = nullptr,
                                     const std::string* max_entity = nullptr,
                                     RangeScanStats* stats = nullptr,
                                     RowOrder order = RowOrder::kSeq) const;

  /// Bloom-only point probe: can fact (entity, attribute) possibly exist
  /// at the pin's epoch? Checks the pin's memtable rows exactly, then
  /// probes the bloom filter of every zone-overlapping segment — no data
  /// block is read. False means definitely absent (blooms have no false
  /// negatives), so the caller can serve the no-claim prior without
  /// materializing anything; such all-negative probes are counted in
  /// `ltm_store_bloom_point_skips_total`.
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
  size_t num_pinned_epochs() const;
  /// Segments a committed compaction superseded whose files an older
  /// Version (a live pin's) still keeps.
  size_t num_deferred_segments() const;

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
  friend class SegmentFile;

  TruthStore(std::string dir, TruthStoreOptions options);

  Status FlushLocked() LTM_REQUIRES(mu_);
  Status AppendLocked(const WalRecord& record) LTM_REQUIRES(mu_);
  /// Merges `inputs`, which `base` lists, into `output_level`, commits,
  /// and marks the inputs obsolete. Runs with the compacting_ flag held;
  /// takes mu_ to reserve output ids and to commit.
  Status CompactSegmentsInner(const std::shared_ptr<const Version>& base,
                              const std::vector<SegmentInfo>& inputs,
                              uint32_t output_level) LTM_EXCLUDES(mu_);
  /// Relinks `seg` to `output_level` without rewriting its file.
  Status TrivialMoveInner(const SegmentInfo& seg, uint32_t output_level)
      LTM_EXCLUDES(mu_);
  /// An edit carrying the current manifest one generation forward.
  VersionEdit NextEditLocked() const LTM_REQUIRES(mu_);
  /// Applies `edit` (`what` names it in errors), commits it — appending
  /// it, or folding the log into a snapshot per manifest_snapshot_every —
  /// and publishes the new Version and epoch. Returns false for a clean
  /// commit, true when the new state is visible on disk but its
  /// durability degraded (the caller must then keep superseded files so a
  /// power-loss rollback still finds them). Other failures propagate and
  /// publish nothing.
  Result<bool> CommitVersionLocked(const VersionEdit& edit,
                                   const std::string& what) LTM_REQUIRES(mu_);
  /// The Version of `manifest`, sharing the handles `prev` (may be null)
  /// has for the segments both list.
  std::shared_ptr<const Version> MakeVersion(Manifest manifest,
                                             const Version* prev);
  BlockSegmentWriterOptions WriterOptions() const;
  std::string SegmentPath(const SegmentInfo& seg) const;
  std::string WalPath(const std::string& file) const;

  const std::string dir_;
  const TruthStoreOptions options_;

  mutable Mutex mu_;
  /// The id the next flush takes: the committed manifest's, plus the ids
  /// a running compaction reserved for its outputs.
  uint64_t next_segment_id_ LTM_GUARDED_BY(mu_) = 1;
  RawDatabase memtable_ LTM_GUARDED_BY(mu_);
  /// The caller-assigned seq of memtable row i (the memtable dedups, so a
  /// seq is recorded only when its Add grew the row count — keeping the
  /// FIRST occurrence's seq, the same rule compaction applies).
  std::vector<uint64_t> memtable_seqs_ LTM_GUARDED_BY(mu_);
  std::optional<WalWriter> wal_ LTM_GUARDED_BY(mu_);
  uint64_t wal_records_replayed_ LTM_GUARDED_BY(mu_) = 0;
  bool recovered_torn_tail_ LTM_GUARDED_BY(mu_) = false;
  bool compacting_ LTM_GUARDED_BY(mu_) = false;
  size_t edits_since_snapshot_ LTM_GUARDED_BY(mu_) = 0;
  /// Outstanding CompactAsync jobs (each captures `this`); pruned as they
  /// resolve and joined by the destructor.
  std::vector<std::shared_future<Status>> pending_compactions_
      LTM_GUARDED_BY(mu_);

  /// Registry plumbing. owned_metrics_ backs metrics_ when no registry
  /// was injected; both are declared before the block cache so the
  /// registry exists when its constructor registers metrics.
  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;
  obs::MetricsRegistry* metrics_;  // never null

  /// `ltm_store_*` metrics, resolved once in the constructor.
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
  /// This store's terms of `ltm_store_{epoch,memtable_rows,live_pins}`,
  /// taken back out when the store closes; the first two change only
  /// under mu_. Each EpochPin counts itself on live_pins_, each obsolete
  /// segment handle on obsolete_segments_.
  obs::GaugeTerm epoch_;
  obs::GaugeTerm memtable_rows_gauge_;
  mutable obs::GaugeTerm live_pins_;
  obs::GaugeTerm obsolete_segments_;

  mutable BlockCache block_cache_;

  /// The current Version. Declared last so it is destroyed first, while
  /// the block cache its handles evict from still exists.
  std::shared_ptr<const Version> current_ LTM_GUARDED_BY(mu_);
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
