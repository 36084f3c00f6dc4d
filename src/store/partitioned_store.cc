#include "store/partitioned_store.h"

#include <algorithm>
#include <filesystem>
#include <iterator>
#include <memory>
#include <set>
#include <utility>

#include "common/failpoint.h"
#include "common/logging.h"
#include "obs/trace.h"
#include "store/manifest.h"
#include "store/segment.h"

namespace ltm {
namespace store {

namespace {

namespace fs = std::filesystem;

/// Resets an atomic flag on scope exit (the single-rebalance latch).
struct FlagReset {
  std::atomic<bool>& flag;
  ~FlagReset() { flag.store(false, std::memory_order_release); }
};

bool IsPartitionDirName(const std::string& name) {
  return name.size() > 2 && name.compare(0, 2, "p-") == 0;
}

/// Removes every subdirectory of `dir` named like a partition for which
/// `keep` is false.
template <typename Keep>
void RemovePartitionDirs(const std::string& dir, Keep keep) {
  std::error_code ec;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (!entry.is_directory() || !IsPartitionDirName(name) || keep(name)) {
      continue;
    }
    LTM_LOG(Info) << "partitioned store: removing orphan partition dir "
                  << name;
    fs::remove_all(entry.path(), ec);
  }
}

/// The rows of the legacy single-store layout rooted at `dir`, in the
/// order that layout replayed them: every committed segment row ordered
/// by its stored seq, then the WAL tail in memtable order (replayed as
/// TruthStore::Open does) stamped next_row_seq + i — the seqs the
/// layout's next flush would have assigned. The views alias
/// `*segment_rows` and `*wal_tail`.
Result<std::vector<RowView>> ReadLegacyRows(const std::string& dir,
                                            RowViews* segment_rows,
                                            RawDatabase* wal_tail) {
  LTM_ASSIGN_OR_RETURN(const ManifestLoad load, LoadManifestDetailed(dir));
  const Manifest& manifest = load.manifest;
  for (const SegmentInfo& seg : manifest.segments) {
    LTM_ASSIGN_OR_RETURN(
        const std::shared_ptr<BlockSegmentReader> reader,
        BlockSegmentReader::Open(dir + "/" + seg.file, seg.id));
    BlockSegmentReader::ReadStats rs;
    LTM_RETURN_IF_ERROR(reader->ScanRowsInRange(nullptr, nullptr,
                                                /*cache=*/nullptr, &rs,
                                                segment_rows));
  }
  std::vector<RowView> rows = segment_rows->rows;
  std::sort(rows.begin(), rows.end(),
            [](const RowView& a, const RowView& b) { return a.seq < b.seq; });
  const std::string wal_path = dir + "/" + manifest.wal_file;
  if (fs::exists(wal_path)) {
    LTM_ASSIGN_OR_RETURN(const WalReplay wal, ReplayWal(wal_path));
    // The layout sequenced rows at flush time and ignored the records'
    // seq field; the tail's seqs are the stamps below.
    std::vector<uint64_t> unused_seqs;
    LTM_RETURN_IF_ERROR(ReplayWalIntoMemtable(wal.records, wal_path, wal_tail,
                                              &unused_seqs));
  }
  for (size_t i = 0; i < wal_tail->NumRows(); ++i) {
    const RawRow& row = wal_tail->rows()[i];
    rows.push_back(RowView{wal_tail->entities().Get(row.entity),
                           wal_tail->attributes().Get(row.attribute),
                           wal_tail->sources().Get(row.source),
                           manifest.next_row_seq + i, 1});
  }
  return rows;
}

uint64_t ChildRowCount(const TruthStoreStats& stats) {
  return stats.segment_rows + stats.memtable_rows;
}

std::vector<WalRecord> RowsToRecords(const std::vector<RowView>& rows) {
  std::vector<WalRecord> records;
  records.reserve(rows.size());
  for (const RowView& row : rows) {
    WalRecord record;
    record.entity = std::string(row.entity);
    record.attribute = std::string(row.attribute);
    record.source = std::string(row.source);
    record.observation = row.observation;
    record.seq = row.seq;
    records.push_back(std::move(record));
  }
  return records;
}

void AccumulateScan(RangeScanStats* total, const RangeScanStats& part) {
  total->segments_scanned += part.segments_scanned;
  total->segments_skipped += part.segments_skipped;
  total->segments_skipped_bloom += part.segments_skipped_bloom;
  total->blocks_read += part.blocks_read;
  total->block_cache_hits += part.block_cache_hits;
  total->bytes_read += part.bytes_read;
}

/// The deleter of every child the router shares. Once a swap retires
/// the child, whichever reference drops last — the routing table's or a
/// StorePin's — destroys it and removes its directory.
struct ChildDeleter {
  /// Set by the retiring swap: the router's count of retired children,
  /// which includes this one until it is freed.
  obs::GaugeTerm* retired = nullptr;

  void operator()(TruthStore* child) const {
    const std::string child_dir = child->dir();
    delete child;  // joins the child's background compactions
    if (retired == nullptr) return;
    std::error_code ec;
    fs::remove_all(child_dir, ec);  // best-effort; Open() reaps leftovers
    LTM_LOG(Info) << "partitioned store: reclaimed retired partition dir "
                  << child_dir;
    retired->Add(-1);
  }
};

std::shared_ptr<TruthStore> ShareChild(std::unique_ptr<TruthStore> child) {
  return std::shared_ptr<TruthStore>(child.release(), ChildDeleter());
}

}  // namespace

std::string PartitionedVerifyReport::Summary() const {
  if (legacy.has_value()) {
    return "legacy single-store layout (converts to one partition on the "
           "next open): " +
           legacy->Summary();
  }
  std::string s = "partition map generation " + std::to_string(map.generation) +
                  ": " + std::to_string(map.entries.size()) + " partition(s)";
  for (const PartitionVerifyReport& part : partitions) {
    s += "\n  " + part.entry.dir + " " + part.entry.RangeString() + ": " +
         part.report.Summary();
  }
  if (!orphan_dirs.empty()) {
    s += "\n  orphan partition dir(s):";
    for (const std::string& d : orphan_dirs) s += " " + d;
  }
  for (const std::string& e : errors) s += "\nERROR: " + e;
  return s;
}

PartitionedTruthStore::PartitionedTruthStore(std::string dir,
                                             PartitionedStoreOptions options)
    : dir_(std::move(dir)),
      options_(std::move(options)),
      owned_metrics_(options_.store.metrics == nullptr
                         ? std::make_unique<obs::MetricsRegistry>()
                         : nullptr),
      metrics_(options_.store.metrics != nullptr ? options_.store.metrics
                                                 : owned_metrics_.get()),
      partitions_gauge_(metrics_->gauge("ltm_store_partitions")),
      map_generation_gauge_(
          metrics_->gauge("ltm_store_partition_map_generation")),
      splits_(metrics_->counter("ltm_store_partition_splits_total")),
      merges_(metrics_->counter("ltm_store_partition_merges_total")),
      rebalance_rows_moved_(metrics_->counter(
          "ltm_store_partition_rebalance_rows_moved_total")) {}

TruthStoreOptions PartitionedTruthStore::ChildOptions(uint64_t id,
                                                      size_t count) const {
  TruthStoreOptions opts = options_.store;
  opts.metrics = metrics_;
  // A one-partition layout keeps the unlabeled `ltm_store_*` names.
  if (count > 1) {
    opts.metrics_label = "partition=\"" + std::to_string(id) + "\"";
  }
  if (count > 1 && opts.block_cache_mb > 0) {
    opts.block_cache_mb = std::max<size_t>(1, opts.block_cache_mb / count);
  }
  return opts;
}

Result<std::unique_ptr<PartitionedTruthStore>> PartitionedTruthStore::Open(
    const std::string& dir, PartitionedStoreOptions options) {
  if (options.partitions == 0) options.partitions = 1;
  if (options.partitions > options.max_partitions) {
    return Status::InvalidArgument(
        "partitions = " + std::to_string(options.partitions) +
        " exceeds max_partitions = " + std::to_string(options.max_partitions));
  }
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    return Status::IOError("cannot create store directory " + dir + ": " +
                           ec.message());
  }
  std::unique_ptr<PartitionedTruthStore> st(
      new PartitionedTruthStore(dir, std::move(options)));
  // Recovery writes the guarded routing table directly; no other thread
  // can see the store yet, but the analysis still wants the capability.
  WriterMutexLock lock(st->table_mu_);

  Result<PartitionMap> loaded = LoadPartitionMap(dir);
  if (!loaded.ok() && loaded.status().code() == StatusCode::kNotFound) {
    // No committed map: a fresh directory or a legacy single store.
    // Appends are only acknowledged once the PARTMAP exists, so leftover
    // partition directories of a crashed first open or conversion hold
    // nothing durable — remove them and start clean.
    const bool legacy = fs::exists(dir + "/" + kManifestFileName);
    // Without a MANIFEST, root segments or a non-empty WAL are a legacy
    // store that lost its MANIFEST; carving over them would reap them.
    if (!legacy) LTM_RETURN_IF_ERROR(CheckNoUnmanifestedData(dir));
    RemovePartitionDirs(dir, [](const std::string&) { return false; });
    if (legacy) {
      LTM_RETURN_IF_ERROR(st->ConvertLegacy());
    } else {
      LTM_RETURN_IF_ERROR(st->CarveFresh());
    }
    loaded = LoadPartitionMap(dir);
  }
  LTM_RETURN_IF_ERROR(loaded.status());
  LTM_RETURN_IF_ERROR(ValidatePartitionMap(*loaded));
  // Reap what the committed map does not account for: partition
  // directories of an interrupted split/merge, and root-level store
  // files — a fresh carve refuses to run over store data, so these can
  // only be leftovers of a committed legacy conversion.
  RemovePartitionDirs(dir, [&](const std::string& name) {
    for (const PartitionMapEntry& e : loaded->entries) {
      if (e.dir == name) return true;
    }
    return false;
  });
  for (const fs::directory_entry& entry : fs::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (entry.is_directory() || !IsStoreFileName(name)) continue;
    LTM_LOG(Info) << "partitioned store: removing converted legacy file "
                  << name;
    fs::remove(entry.path(), ec);
  }
  const size_t n = loaded->entries.size();
  for (const PartitionMapEntry& entry : loaded->entries) {
    LTM_ASSIGN_OR_RETURN(
        std::unique_ptr<TruthStore> child,
        TruthStore::Open(dir + "/" + entry.dir,
                         st->ChildOptions(entry.id, n)));
    st->children_.push_back(ShareChild(std::move(child)));
  }
  st->map_ = std::move(*loaded);

  // Recover the global sequence counter from the children: every durable
  // row's seq is below some child's NextRowSeq().
  uint64_t next_seq = 0;
  for (const std::shared_ptr<TruthStore>& child : st->children_) {
    next_seq = std::max(next_seq, child->NextRowSeq());
  }
  st->next_seq_.store(next_seq, std::memory_order_relaxed);
  const size_t posterior_capacity = st->options_.store.posterior_cache_capacity;
  for (size_t i = 0; i < n; ++i) {
    st->caches_.push_back(std::make_unique<PosteriorCache>(
        posterior_capacity == 0
            ? 0
            : std::max<size_t>(1, posterior_capacity / n),
        st->metrics_));
  }
  st->partitions_gauge_->Set(static_cast<int64_t>(n));
  st->map_generation_gauge_->Set(static_cast<int64_t>(st->map_.generation));
  return st;
}

Status PartitionedTruthStore::CarveFresh() {
  const size_t n = options_.partitions;
  std::vector<std::string> bounds = options_.initial_boundaries;
  if (bounds.empty() && n > 1) {
    // Evenly spaced single-byte boundaries; size-driven split/merge
    // rebalancing adapts the cut points to the data later.
    for (size_t i = 1; i < n; ++i) {
      bounds.push_back(std::string(
          1, static_cast<char>(static_cast<unsigned char>(i * 256 / n))));
    }
  }
  if (bounds.size() + 1 != n) {
    return Status::InvalidArgument(
        "initial_boundaries has " + std::to_string(bounds.size()) +
        " split point(s); partitions = " + std::to_string(n) + " needs " +
        std::to_string(n - 1));
  }
  for (size_t i = 0; i < bounds.size(); ++i) {
    if (bounds[i].empty() || (i > 0 && bounds[i] <= bounds[i - 1])) {
      return Status::InvalidArgument(
          "initial_boundaries must be non-empty and strictly ascending");
    }
  }
  PartitionMap fresh;
  fresh.generation = 1;
  fresh.next_partition_id = n + 1;
  for (size_t i = 0; i < n; ++i) {
    PartitionMapEntry entry;
    entry.id = i + 1;
    entry.dir = PartitionDirName(entry.id);
    entry.lower = i == 0 ? std::string() : bounds[i - 1];
    entry.has_upper = i + 1 < n;
    entry.upper = entry.has_upper ? bounds[i] : std::string();
    fresh.entries.push_back(std::move(entry));
  }
  // Children first, PARTMAP last: the map commit is the point after
  // which the store exists. A crash in between re-runs this path.
  for (const PartitionMapEntry& entry : fresh.entries) {
    LTM_RETURN_IF_ERROR(
        TruthStore::Open(dir_ + "/" + entry.dir, ChildOptions(entry.id, n))
            .status());
  }
  return CommitPartitionMap(dir_, fresh);
}

Status PartitionedTruthStore::ConvertLegacy() {
  if (options_.partitions > 1) {
    return Status::FailedPrecondition(
        "store directory " + dir_ +
        " holds a legacy single-store layout, which converts only to one "
        "partition; it cannot be opened with partitions = " +
        std::to_string(options_.partitions));
  }
  obs::ObsSpan span("partition_convert_legacy");
  RowViews segment_rows;
  RawDatabase wal_tail;
  LTM_ASSIGN_OR_RETURN(const std::vector<RowView> rows,
                       ReadLegacyRows(dir_, &segment_rows, &wal_tail));
  PartitionMap map;
  map.generation = 1;
  map.next_partition_id = 2;
  PartitionMapEntry entry;
  entry.id = 1;
  entry.dir = PartitionDirName(entry.id);
  map.entries.push_back(entry);
  // The child is closed again before the commit; Open reopens it from
  // the committed map like any other partition.
  LTM_RETURN_IF_ERROR(BuildChild(entry, rows, 1).status());
  LTM_RETURN_IF_ERROR(FailpointCheck("partition-convert-child-written"));
  LTM_RETURN_IF_ERROR(CommitPartitionMap(dir_, map));
  LTM_RETURN_IF_ERROR(FailpointCheck("partition-convert-committed"));
  LTM_LOG(Info) << "partitioned store: converted legacy single store " << dir_
                << " into " << entry.dir << " (" << rows.size()
                << " row(s))";
  return Status::OK();
}

Status PartitionedTruthStore::Append(const WalRecord& record) {
  ReaderMutexLock lock(table_mu_);
  WalRecord routed = record;
  routed.seq = next_seq_.fetch_add(1, std::memory_order_relaxed);
  const size_t idx = FindPartition(map_, routed.entity);
  return children_[idx]->Append(routed);
}

Status PartitionedTruthStore::AppendRaw(const RawDatabase& raw) {
  ReaderMutexLock lock(table_mu_);
  // Split the chunk by entity range, assigning global seqs in row order,
  // then group-commit each partition's slice in one lock hold + sync.
  std::vector<std::vector<WalRecord>> split(children_.size());
  for (const RawRow& row : raw.rows()) {
    WalRecord record;
    record.entity = std::string(raw.entities().Get(row.entity));
    record.attribute = std::string(raw.attributes().Get(row.attribute));
    record.source = std::string(raw.sources().Get(row.source));
    record.seq = next_seq_.fetch_add(1, std::memory_order_relaxed);
    split[FindPartition(map_, record.entity)].push_back(std::move(record));
  }
  for (size_t i = 0; i < children_.size(); ++i) {
    if (split[i].empty()) continue;
    LTM_RETURN_IF_ERROR(children_[i]->AppendRecords(split[i]));
  }
  return Status::OK();
}

Status PartitionedTruthStore::Sync() {
  ReaderMutexLock lock(table_mu_);
  for (const std::shared_ptr<TruthStore>& child : children_) {
    LTM_RETURN_IF_ERROR(child->Sync());
  }
  return Status::OK();
}

Status PartitionedTruthStore::Flush() {
  ReaderMutexLock lock(table_mu_);
  for (const std::shared_ptr<TruthStore>& child : children_) {
    LTM_RETURN_IF_ERROR(child->Flush());
  }
  return Status::OK();
}

Status PartitionedTruthStore::Compact() {
  std::vector<std::shared_ptr<TruthStore>> snapshot;
  {
    ReaderMutexLock lock(table_mu_);
    snapshot = children_;
  }
  for (const std::shared_ptr<TruthStore>& child : snapshot) {
    LTM_RETURN_IF_ERROR(child->Compact());
  }
  return Status::OK();
}

Result<bool> PartitionedTruthStore::CompactOnce() {
  std::vector<std::shared_ptr<TruthStore>> snapshot;
  {
    ReaderMutexLock lock(table_mu_);
    snapshot = children_;
  }
  bool any = false;
  for (const std::shared_ptr<TruthStore>& child : snapshot) {
    Result<bool> step = child->CompactOnce();
    if (!step.ok()) {
      // Another thread is already compacting this partition; its step
      // counts, ours just skips the busy child.
      if (step.status().code() == StatusCode::kFailedPrecondition) continue;
      return step.status();
    }
    any = any || *step;
  }
  LTM_ASSIGN_OR_RETURN(const bool rebalanced, MaybeRebalance());
  return any || rebalanced;
}

Result<std::shared_ptr<TruthStore>> PartitionedTruthStore::BuildChild(
    const PartitionMapEntry& entry, const std::vector<RowView>& rows,
    size_t partition_count) const {
  LTM_ASSIGN_OR_RETURN(
      std::unique_ptr<TruthStore> child,
      TruthStore::Open(dir_ + "/" + entry.dir,
                       ChildOptions(entry.id, partition_count)));
  std::shared_ptr<TruthStore> shared = ShareChild(std::move(child));
  if (!rows.empty()) {
    LTM_RETURN_IF_ERROR(shared->AppendRecords(RowsToRecords(rows)));
    LTM_RETURN_IF_ERROR(shared->Flush());
  }
  return shared;
}

uint64_t PartitionedTruthStore::CompositeEpochLocked() const {
  int64_t sum = epoch_offset_.load(std::memory_order_relaxed);
  for (const std::shared_ptr<TruthStore>& child : children_) {
    sum += static_cast<int64_t>(child->epoch());
  }
  return sum < 0 ? 0 : static_cast<uint64_t>(sum);
}

Status PartitionedTruthStore::SwapTableLocked(
    size_t first, size_t count, PartitionMap next_map,
    const std::vector<std::vector<RowView>>& parts, const char* failpoint,
    std::vector<std::shared_ptr<TruthStore>>* replaced) {
  std::vector<std::shared_ptr<TruthStore>> built;
  uint64_t composite_before = 0;
  const Status committed = [&]() -> Status {
    for (size_t i = 0; i < parts.size(); ++i) {
      LTM_ASSIGN_OR_RETURN(
          std::shared_ptr<TruthStore> child,
          BuildChild(next_map.entries[first + i], parts[i],
                     next_map.entries.size()));
      built.push_back(std::move(child));
    }
    LTM_RETURN_IF_ERROR(FailpointCheck(failpoint));
    composite_before = CompositeEpochLocked();
    return CommitPartitionMap(dir_, next_map);
  }();
  // A retired child takes its directory with it when its last reference
  // drops: the built children, unpublished, when the commit failed
  // (anything left behind is an orphan the next Open reaps), else the
  // replaced ones.
  const auto retire = [this](const std::shared_ptr<TruthStore>& child) {
    std::get_deleter<ChildDeleter>(child)->retired = &retired_partitions_;
    retired_partitions_.Add(1);
  };
  if (!committed.ok()) {
    for (const std::shared_ptr<TruthStore>& child : built) retire(child);
    return committed;
  }
  *replaced = children_;
  for (size_t i = first; i < first + count; ++i) retire(children_[i]);
  children_.erase(children_.begin() + first,
                  children_.begin() + first + count);
  children_.insert(children_.begin() + first, built.begin(), built.end());
  map_ = std::move(next_map);
  // The slot-cache vector only grows (see the member comment); a merge
  // leaves its tail slots idle rather than invalidating references.
  const size_t posterior_capacity = options_.store.posterior_cache_capacity;
  while (caches_.size() < children_.size()) {
    caches_.push_back(std::make_unique<PosteriorCache>(
        posterior_capacity == 0
            ? 0
            : std::max<size_t>(1, posterior_capacity / children_.size()),
        metrics_));
  }
  // Keep the composite epoch strictly monotone across the swap: pick the
  // offset that lands it at exactly composite_before + 1.
  int64_t sum_new = 0;
  for (const std::shared_ptr<TruthStore>& child : children_) {
    sum_new += static_cast<int64_t>(child->epoch());
  }
  epoch_offset_.store(static_cast<int64_t>(composite_before) + 1 - sum_new,
                      std::memory_order_relaxed);
  partitions_gauge_->Set(static_cast<int64_t>(children_.size()));
  map_generation_gauge_->Set(static_cast<int64_t>(map_.generation));
  return Status::OK();
}

Result<bool> PartitionedTruthStore::MaybeRebalance() {
  if (options_.split_threshold_rows == 0 && options_.merge_threshold_rows == 0) {
    return false;
  }
  bool expected = false;
  if (!rebalancing_.compare_exchange_strong(expected, true,
                                            std::memory_order_acq_rel)) {
    return false;  // another thread's rebalance is in flight
  }
  FlagReset reset{rebalancing_};

  // Declared before the lock, so the table a swap replaces drops after
  // the lock is released: a retiree freed here removes its directory
  // without stalling appenders or readers.
  std::vector<std::shared_ptr<TruthStore>> replaced;
  WriterMutexLock lock(table_mu_);
  std::vector<uint64_t> rows_per(children_.size());
  for (size_t i = 0; i < children_.size(); ++i) {
    rows_per[i] = ChildRowCount(children_[i]->Stats());
  }

  // Split: the largest partition past the threshold, at its median
  // distinct entity.
  if (options_.split_threshold_rows > 0 &&
      children_.size() < options_.max_partitions) {
    size_t split_idx = children_.size();
    uint64_t split_rows = options_.split_threshold_rows;
    for (size_t i = 0; i < children_.size(); ++i) {
      if (rows_per[i] > split_rows) {
        split_rows = rows_per[i];
        split_idx = i;
      }
    }
    if (split_idx < children_.size()) {
      obs::ObsSpan span("partition_split");
      const PartitionMapEntry old_entry = map_.entries[split_idx];
      const std::unique_ptr<EpochPin> pin = children_[split_idx]->PinEpoch();
      LTM_ASSIGN_OR_RETURN(const RowViews pinned,
                           children_[split_idx]->CollectPinnedRows(*pin));
      const std::vector<RowView>& rows = pinned.rows;
      std::set<std::string_view> distinct;
      for (const RowView& row : rows) distinct.insert(row.entity);
      if (distinct.size() < 2) return false;  // nothing to split at
      const std::string boundary(
          *std::next(distinct.begin(),
                     static_cast<std::ptrdiff_t>(distinct.size() / 2)));
      std::vector<std::vector<RowView>> parts(2);
      for (const RowView& row : rows) {
        parts[row.entity < boundary ? 0 : 1].push_back(row);
      }
      PartitionMap next = map_;
      PartitionMapEntry lo, hi;
      lo.id = next.next_partition_id++;
      lo.dir = PartitionDirName(lo.id);
      lo.lower = old_entry.lower;
      lo.has_upper = true;
      lo.upper = boundary;
      hi.id = next.next_partition_id++;
      hi.dir = PartitionDirName(hi.id);
      hi.lower = boundary;
      hi.has_upper = old_entry.has_upper;
      hi.upper = old_entry.upper;
      ++next.generation;
      next.entries[split_idx] = lo;
      next.entries.insert(next.entries.begin() + split_idx + 1, hi);
      LTM_RETURN_IF_ERROR(SwapTableLocked(
          split_idx, 1, std::move(next), parts,
          "partition-split-children-written", &replaced));
      splits_->Increment();
      rebalance_rows_moved_->Increment(rows.size());
      LTM_LOG(Info) << "partitioned store: split " << old_entry.dir << " "
                    << old_entry.RangeString() << " at \"" << boundary
                    << "\" into " << lo.dir << " + " << hi.dir << " ("
                    << rows.size() << " row(s) moved)";
      return true;
    }
  }

  // Merge: the adjacent pair with the smallest combined row count, when
  // under the threshold.
  if (options_.merge_threshold_rows > 0 && children_.size() > 1) {
    size_t merge_idx = children_.size();
    uint64_t best = options_.merge_threshold_rows;
    for (size_t i = 0; i + 1 < children_.size(); ++i) {
      const uint64_t combined = rows_per[i] + rows_per[i + 1];
      if (combined < best) {
        best = combined;
        merge_idx = i;
      }
    }
    if (merge_idx < children_.size()) {
      obs::ObsSpan span("partition_merge");
      const PartitionMapEntry left = map_.entries[merge_idx];
      const PartitionMapEntry right = map_.entries[merge_idx + 1];
      const std::unique_ptr<EpochPin> lpin = children_[merge_idx]->PinEpoch();
      const std::unique_ptr<EpochPin> rpin =
          children_[merge_idx + 1]->PinEpoch();
      LTM_ASSIGN_OR_RETURN(const RowViews left_rows,
                           children_[merge_idx]->CollectPinnedRows(*lpin));
      LTM_ASSIGN_OR_RETURN(const RowViews right_rows,
                           children_[merge_idx + 1]->CollectPinnedRows(*rpin));
      std::vector<std::vector<RowView>> parts = {left_rows.rows};
      std::vector<RowView>& rows = parts[0];
      rows.insert(rows.end(), right_rows.rows.begin(), right_rows.rows.end());
      std::sort(rows.begin(), rows.end(),
                [](const RowView& a, const RowView& b) {
                  return a.seq < b.seq;
                });
      PartitionMap next = map_;
      PartitionMapEntry merged;
      merged.id = next.next_partition_id++;
      merged.dir = PartitionDirName(merged.id);
      merged.lower = left.lower;
      merged.has_upper = right.has_upper;
      merged.upper = right.upper;
      ++next.generation;
      next.entries[merge_idx] = merged;
      next.entries.erase(next.entries.begin() + merge_idx + 1);
      LTM_RETURN_IF_ERROR(SwapTableLocked(
          merge_idx, 2, std::move(next), parts,
          "partition-merge-children-written", &replaced));
      merges_->Increment();
      rebalance_rows_moved_->Increment(rows.size());
      LTM_LOG(Info) << "partitioned store: merged " << left.dir << " + "
                    << right.dir << " into " << merged.dir << " "
                    << merged.RangeString() << " (" << rows.size()
                    << " row(s) moved)";
      return true;
    }
  }
  return false;
}

std::unique_ptr<StorePin> PartitionedTruthStore::PinSnapshot(
    const std::string* min_entity, const std::string* max_entity) const {
  ReaderMutexLock lock(table_mu_);
  std::vector<std::unique_ptr<EpochPin>> pins;
  pins.reserve(children_.size());
  int64_t epoch = epoch_offset_.load(std::memory_order_relaxed);
  for (const std::shared_ptr<TruthStore>& child : children_) {
    pins.push_back(child->PinEpoch(min_entity, max_entity));
    epoch += static_cast<int64_t>(pins.back()->epoch());
  }
  return std::unique_ptr<StorePin>(new StorePin(
      this, &store_pins_, epoch < 0 ? 0 : static_cast<uint64_t>(epoch),
      map_.entries, children_, std::move(pins)));
}

Result<RowViews> PartitionedTruthStore::ReadRowsAt(
    const StorePin& pin, const std::string* min_entity,
    const std::string* max_entity, RangeScanStats* stats,
    RowOrder order) const {
  if (pin.store_ != this) {
    return Status::InvalidArgument("pin was not issued by this store");
  }
  if (min_entity != nullptr && max_entity != nullptr &&
      *min_entity == *max_entity) {
    // A point read: route on the boundaries frozen at pin time to the one
    // partition that can hold the entity.
    for (size_t i = 0; i < pin.entries_.size(); ++i) {
      if (pin.entries_[i].Contains(*min_entity)) {
        return pin.children_[i]->CollectPinnedRows(
            *pin.pins_[i], min_entity, max_entity, stats, order);
      }
    }
  }
  RangeScanStats total;
  RowViews out;
  std::vector<size_t> run_starts;
  run_starts.reserve(pin.pins_.size());
  for (size_t i = 0; i < pin.pins_.size(); ++i) {
    RangeScanStats part;
    LTM_ASSIGN_OR_RETURN(
        RowViews child_rows,
        pin.children_[i]->CollectPinnedRows(*pin.pins_[i], min_entity,
                                            max_entity, &part, order));
    AccumulateScan(&total, part);
    run_starts.push_back(out.rows.size());
    if (out.rows.empty() && out.buffers.empty()) {
      out = std::move(child_rows);
      continue;
    }
    out.rows.insert(out.rows.end(), child_rows.rows.begin(),
                    child_rows.rows.end());
    out.buffers.insert(out.buffers.end(),
                       std::make_move_iterator(child_rows.buffers.begin()),
                       std::make_move_iterator(child_rows.buffers.end()));
  }
  // Each partition's rows arrive sorted by `order`. Partitions own
  // disjoint, ascending entity ranges in map order, so in key order the
  // concatenation is already sorted; in seq order, merging the runs on
  // the router-assigned global sequence gives the exact ingest order a
  // single store would replay.
  if (order == RowOrder::kSeq) {
    MergeSortedRuns(RowOrder::kSeq, run_starts, &out.rows);
  }
  if (stats != nullptr) *stats = total;
  return out;
}

Result<bool> PartitionedTruthStore::SnapshotFactMayExist(
    const StorePin& pin, const std::string& entity,
    const std::string& attribute) const {
  if (pin.store_ != this) {
    return Status::InvalidArgument("pin was not issued by this store");
  }
  // Route on the boundaries frozen at pin time: exactly one partition
  // can hold the entity.
  for (size_t i = 0; i < pin.entries_.size(); ++i) {
    if (pin.entries_[i].Contains(entity)) {
      return pin.children_[i]->PinnedFactMayExist(*pin.pins_[i], entity,
                                                  attribute);
    }
  }
  return false;  // unreachable with a validated map
}

Result<Dataset> PartitionedTruthStore::MaterializeSnapshot(
    const StorePin& pin, const std::string* min_entity,
    const std::string* max_entity, RangeScanStats* stats) const {
  LTM_ASSIGN_OR_RETURN(const RowViews rows,
                       ReadRowsAt(pin, min_entity, max_entity, stats));
  return DatasetFromRows("truthstore:" + dir_, rows);
}

Result<Dataset> PartitionedTruthStore::Materialize(uint64_t* epoch_out) const {
  // The pin keeps every segment file the read references on disk, so one
  // pass always succeeds (any load failure is true corruption).
  const std::unique_ptr<StorePin> pin = PinSnapshot();
  LTM_ASSIGN_OR_RETURN(Dataset ds, MaterializeSnapshot(*pin));
  if (epoch_out != nullptr) *epoch_out = pin->epoch();
  return ds;
}

Result<Dataset> PartitionedTruthStore::MaterializeEntityRange(
    const std::string& min_entity, const std::string& max_entity,
    RangeScanStats* stats, uint64_t* epoch_out) const {
  const std::unique_ptr<StorePin> pin = PinSnapshot(&min_entity, &max_entity);
  LTM_ASSIGN_OR_RETURN(
      Dataset ds, MaterializeSnapshot(*pin, &min_entity, &max_entity, stats));
  if (epoch_out != nullptr) *epoch_out = pin->epoch();
  return ds;
}

uint64_t PartitionedTruthStore::epoch() const {
  ReaderMutexLock lock(table_mu_);
  return CompositeEpochLocked();
}

TruthStoreStats PartitionedTruthStore::Stats() const {
  ReaderMutexLock lock(table_mu_);
  TruthStoreStats stats;
  stats.epoch = CompositeEpochLocked();
  stats.generation = map_.generation;
  stats.next_row_seq = next_seq_.load(std::memory_order_relaxed);
  stats.live_pins = num_pinned_epochs();
  for (const std::shared_ptr<TruthStore>& child : children_) {
    const TruthStoreStats c = child->Stats();
    stats.num_segments += c.num_segments;
    stats.segment_rows += c.segment_rows;
    stats.memtable_rows += c.memtable_rows;
    stats.wal_records_replayed += c.wal_records_replayed;
    stats.recovered_torn_tail = stats.recovered_torn_tail ||
                                c.recovered_torn_tail;
    stats.deferred_segments += c.deferred_segments;
    stats.max_level = std::max(stats.max_level, c.max_level);
    stats.l0_segments += c.l0_segments;
    stats.manifest_edits_since_snapshot += c.manifest_edits_since_snapshot;
  }
  return stats;
}

size_t PartitionedTruthStore::num_partitions() const {
  ReaderMutexLock lock(table_mu_);
  return children_.size();
}

std::vector<uint64_t> PartitionedTruthStore::PartitionEpochs() const {
  ReaderMutexLock lock(table_mu_);
  std::vector<uint64_t> epochs;
  epochs.reserve(children_.size());
  for (const std::shared_ptr<TruthStore>& child : children_) {
    epochs.push_back(child->epoch());
  }
  return epochs;
}

PartitionMap PartitionedTruthStore::partition_map() const {
  ReaderMutexLock lock(table_mu_);
  return map_;
}

std::vector<std::vector<SegmentInfo>> PartitionedTruthStore::PartitionSegments()
    const {
  ReaderMutexLock lock(table_mu_);
  std::vector<std::vector<SegmentInfo>> out;
  out.reserve(children_.size());
  for (const std::shared_ptr<TruthStore>& child : children_) {
    out.push_back(child->segments());
  }
  return out;
}

std::vector<TruthStoreStats> PartitionedTruthStore::PartitionStats() const {
  ReaderMutexLock lock(table_mu_);
  std::vector<TruthStoreStats> out;
  out.reserve(children_.size());
  for (const std::shared_ptr<TruthStore>& child : children_) {
    out.push_back(child->Stats());
  }
  return out;
}

PosteriorCache& PartitionedTruthStore::posterior_cache_for(
    std::string_view entity) {
  ReaderMutexLock lock(table_mu_);
  return *caches_[FindPartition(map_, entity)];
}

void PartitionedTruthStore::ClearPosteriorCaches() {
  ReaderMutexLock lock(table_mu_);
  for (const std::unique_ptr<PosteriorCache>& cache : caches_) {
    cache->Clear();
  }
}

size_t PartitionedTruthStore::num_pinned_epochs() const {
  return static_cast<size_t>(store_pins_.value());
}

size_t PartitionedTruthStore::num_retired_partitions() const {
  return static_cast<size_t>(retired_partitions_.value());
}

Result<PartitionedVerifyReport> PartitionedTruthStore::Verify(
    const std::string& dir) {
  PartitionedVerifyReport report;
  Result<PartitionMap> loaded = LoadPartitionMap(dir);
  if (!loaded.ok() && loaded.status().code() == StatusCode::kNotFound &&
      fs::exists(dir + "/" + kManifestFileName)) {
    LTM_ASSIGN_OR_RETURN(report.legacy, TruthStore::Verify(dir));
    return report;
  }
  LTM_ASSIGN_OR_RETURN(PartitionMap map, std::move(loaded));
  report.map = map;
  const Status valid = ValidatePartitionMap(map);
  if (!valid.ok()) report.errors.push_back(valid.ToString());
  for (const PartitionMapEntry& entry : map.entries) {
    Result<StoreVerifyReport> child = TruthStore::Verify(dir + "/" + entry.dir);
    if (!child.ok()) {
      report.errors.push_back("partition " + entry.dir + ": " +
                              child.status().ToString());
      continue;
    }
    report.partitions.push_back(PartitionVerifyReport{entry, *child});
  }
  std::error_code ec;
  for (const fs::directory_entry& de : fs::directory_iterator(dir, ec)) {
    const std::string name = de.path().filename().string();
    if (!de.is_directory() || !IsPartitionDirName(name)) continue;
    bool referenced = false;
    for (const PartitionMapEntry& entry : map.entries) {
      if (entry.dir == name) referenced = true;
    }
    if (!referenced) report.orphan_dirs.push_back(name);
  }
  return report;
}

}  // namespace store
}  // namespace ltm
