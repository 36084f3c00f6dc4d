#ifndef LTM_STORE_STORE_BASE_H_
#define LTM_STORE_STORE_BASE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "data/dataset.h"
#include "obs/metrics.h"
#include "store/block_cache.h"
#include "store/block_format.h"
#include "store/posterior_cache.h"
#include "store/wal.h"

namespace ltm {
namespace store {

class EpochPin;      // truth_store.h
class CompositePin;  // partitioned_store.h

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

/// Point-in-time store counters. For a PartitionedTruthStore this is the
/// aggregate over every child partition (counts summed, max_level taken
/// as the max, epoch/generation the composite values).
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

/// An abstract MVCC read snapshot handle: a TruthStore issues an
/// EpochPin, a PartitionedTruthStore a composite pin over every child.
/// Either way the handle freezes a consistent view of the store: reads
/// through it never race a compaction's file removals and are
/// bit-reproducible at the captured epoch. Must not outlive the store
/// that issued it; must only be passed back to that store.
class StorePin {
 public:
  virtual ~StorePin() = default;

  StorePin(const StorePin&) = delete;
  StorePin& operator=(const StorePin&) = delete;

  /// The (composite) store epoch this pin captured, for posterior-cache
  /// keying. For a partitioned store this is the sum over the pinned
  /// per-partition epochs — one scalar that changes whenever any
  /// partition's data does.
  virtual uint64_t epoch() const = 0;

  /// Manual RTTI: the concrete single-store pin, or null. TruthStore
  /// accepts only pins it issued; the accessor keeps that check a
  /// virtual call instead of a dynamic_cast.
  virtual const EpochPin* AsEpochPin() const { return nullptr; }
  /// Manual RTTI for the partitioned router's composite pin.
  virtual const CompositePin* AsCompositePin() const { return nullptr; }

 protected:
  StorePin() = default;
};

/// The polymorphic store surface the serving and streaming layers build
/// on: everything a ServeSession / StreamingPipeline needs, implemented
/// by the single-directory TruthStore and by the entity-range
/// PartitionedTruthStore router. Callers that need single-store-only
/// surface (segment listings, the concrete EpochPin API) keep holding a
/// TruthStore directly.
///
/// Implementations are thread-safe with the same contract as TruthStore:
/// appends, flushes, reads, and one background compaction per partition
/// may run concurrently.
class TruthStoreBase {
 public:
  virtual ~TruthStoreBase() = default;

  TruthStoreBase(const TruthStoreBase&) = delete;
  TruthStoreBase& operator=(const TruthStoreBase&) = delete;

  /// Appends one observation (WAL first, then the memtable). A
  /// partitioned store routes by entity and assigns the record a global
  /// ingest sequence number.
  virtual Status Append(const WalRecord& record) = 0;

  /// Appends every row of `raw` (in row order) and then Sync()s — one
  /// durable group commit per chunk.
  virtual Status AppendRaw(const RawDatabase& raw) = 0;

  /// AppendRaw over `chunk.raw` (convenience for callers that already
  /// materialized the chunk).
  Status AppendDataset(const Dataset& chunk) { return AppendRaw(chunk.raw); }

  /// Makes all buffered appends durable (WAL fsync, all partitions).
  virtual Status Sync() = 0;

  /// Flushes the memtable(s) into immutable L0 segments.
  virtual Status Flush() = 0;

  /// Major compaction (every partition).
  virtual Status Compact() = 0;

  /// One leveled compaction step; a partitioned store fans the step out
  /// across partitions and may rebalance (split/merge) afterwards.
  /// Returns true when any partition did work.
  virtual Result<bool> CompactOnce() = 0;

  /// Acquires an MVCC read snapshot (see StorePin). For a partitioned
  /// store the snapshot pins every partition at a consistent vector
  /// epoch under the routing table lock, so a cross-partition read is a
  /// single point-in-time view.
  virtual std::unique_ptr<StorePin> PinSnapshot(
      const std::string* min_entity = nullptr,
      const std::string* max_entity = nullptr) const = 0;

  /// The one store read: every row with entity in
  /// [*min_entity, *max_entity] (null = unbounded) visible at `pin`, as
  /// views sorted by global ingest sequence — the replay order a
  /// sequential read at the pinned epoch uses, regardless of
  /// partitioning. Segments are skipped by zone stats; when
  /// *min_entity == *max_entity (a point read) also by the entity bloom,
  /// and the read seeks inside one block through its restart array
  /// instead of decoding it whole. A partitioned store serves a point
  /// read from the one partition owning the entity. The views alias
  /// buffers the result holds, the pin's memtable records and — on a
  /// point read — `*min_entity` itself, so the result must outlive
  /// neither `pin` nor the bounds. `pin` must have been issued by this
  /// store.
  virtual Result<RowViews> ReadRowsAt(
      const StorePin& pin, const std::string* min_entity,
      const std::string* max_entity, RangeScanStats* stats = nullptr) const = 0;

  /// ReadRowsAt interned into a Dataset — bit-identical to what a
  /// sequential materialize at the pinned epoch would produce.
  Result<Dataset> MaterializeSnapshot(const StorePin& pin,
                                      const std::string* min_entity = nullptr,
                                      const std::string* max_entity = nullptr,
                                      RangeScanStats* stats = nullptr) const;

  /// Bloom-only point probe against a pinned snapshot: false means the
  /// fact definitely does not exist at the pin's epoch.
  virtual Result<bool> SnapshotFactMayExist(
      const StorePin& pin, const std::string& entity,
      const std::string& attribute) const = 0;

  /// Full rebuild in global ingest order. When `epoch_out` is non-null
  /// it receives the epoch the materialized data corresponds to.
  Result<Dataset> Materialize(uint64_t* epoch_out = nullptr) const;

  /// Rebuild restricted to entities in [min_entity, max_entity].
  Result<Dataset> MaterializeEntityRange(const std::string& min_entity,
                                         const std::string& max_entity,
                                         RangeScanStats* stats = nullptr,
                                         uint64_t* epoch_out = nullptr) const;

  /// In-memory data version: advances on every append and every manifest
  /// commit (summed over partitions, kept monotone across rebalances).
  virtual uint64_t epoch() const = 0;

  virtual TruthStoreStats Stats() const = 0;

  /// Number of entity-range partitions (1 for a plain TruthStore).
  virtual size_t num_partitions() const { return 1; }

  /// Per-partition epochs, in partition (entity-range) order — the
  /// vector the RefitScheduler debounces on. Size num_partitions().
  virtual std::vector<uint64_t> PartitionEpochs() const { return {epoch()}; }

  /// The posterior cache that serves `entity` — per-partition keying for
  /// a partitioned store, so one hot partition cannot evict the whole
  /// working set.
  virtual PosteriorCache& posterior_cache_for(std::string_view entity) = 0;

  /// Clears every partition's posterior cache (quality version bumps).
  virtual void ClearPosteriorCaches() = 0;

  /// Aggregated posterior-cache counters across partitions.
  virtual CacheStats PosteriorCacheStats() const = 0;

  /// Live pin handles outstanding (observability + tests).
  virtual size_t num_pinned_epochs() const = 0;

  /// The registry this store publishes into. Never null.
  virtual obs::MetricsRegistry* metrics() const = 0;

  virtual const std::string& dir() const = 0;

 protected:
  TruthStoreBase() = default;
};

}  // namespace store
}  // namespace ltm

#endif  // LTM_STORE_STORE_BASE_H_
