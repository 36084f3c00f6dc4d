#include "store/truth_store.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <set>
#include <string_view>
#include <utility>

#include "common/failpoint.h"
#include "common/logging.h"
#include "common/timer.h"
#include "obs/trace.h"

namespace ltm {
namespace store {

namespace {

namespace fs = std::filesystem;

/// WallTimer is steady-clock based, so timing here is monitoring-only and
/// never feeds data-path results (determinism lint R2 allows it).
uint64_t ElapsedMicros(const WallTimer& timer) {
  return static_cast<uint64_t>(timer.ElapsedSeconds() * 1e6);
}

bool MatchesPattern(std::string_view name, std::string_view prefix,
                    std::string_view suffix) {
  return name.size() >= prefix.size() + suffix.size() &&
         name.substr(0, prefix.size()) == prefix &&
         name.substr(name.size() - suffix.size()) == suffix;
}

SegmentInfo MakeSegmentInfo(uint64_t id, const std::string& file,
                            uint32_t level,
                            const BlockSegmentBuildInfo& built) {
  SegmentInfo info;
  info.id = id;
  info.file = file;
  info.level = level;
  info.num_rows = built.num_rows;
  info.num_facts = built.num_facts;
  info.num_sources = built.num_sources;
  info.num_positive = built.num_positive;
  info.min_entity = built.min_entity;
  info.max_entity = built.max_entity;
  info.min_seq = built.min_seq;
  info.max_seq = built.max_seq;
  info.file_bytes = built.file_bytes;
  info.num_blocks = built.num_blocks;
  return info;
}

/// Byte budget of level `level` (>= 1): the base for L1, 10x per level
/// after that — the classic leveled-LSM geometry that bounds per-level
/// write amplification to ~O(levels).
uint64_t LevelTargetBytes(uint64_t base, uint32_t level) {
  uint64_t target = base;
  for (uint32_t l = 1; l < level; ++l) target *= 10;
  return target;
}

/// Files in `dir` that the committed `manifest` does not account for:
/// temp files, segments it never committed, rotated-but-uncommitted
/// WALs. Open() removes them, Verify() reports them — one classifier so
/// the two can never drift apart.
std::vector<std::string> FindOrphanFiles(const std::string& dir,
                                         const Manifest& manifest) {
  std::vector<std::string> orphans;
  std::error_code ec;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    bool orphan = false;
    if (name.size() > 4 && name.substr(name.size() - 4) == ".tmp") {
      orphan = true;
    } else if (MatchesPattern(name, "seg-", ".blk")) {
      orphan = true;
      for (const SegmentInfo& seg : manifest.segments) {
        if (seg.file == name) orphan = false;
      }
    } else if (MatchesPattern(name, "seg-", ".snap")) {
      // Pre-block-format segment droppings; a v2 manifest never
      // references them.
      orphan = true;
    } else if (MatchesPattern(name, "wal-", ".log")) {
      orphan = name != manifest.wal_file;
    }
    if (orphan) orphans.push_back(name);
  }
  return orphans;
}

/// Merges a `key="value"` label fragment into a metric name:
/// `name` -> `name{label}`, `name{a="b"}` -> `name{a="b",label}`. An
/// empty label keeps the name untouched, so unpartitioned stores expose
/// the exact historical series names.
std::string Labeled(const std::string& name, const std::string& label) {
  if (label.empty()) return name;
  if (!name.empty() && name.back() == '}') {
    return name.substr(0, name.size() - 1) + "," + label + "}";
  }
  return name + "{" + label + "}";
}

Result<std::string> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open " + path);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  if (in.bad()) return Status::IOError("read failed: " + path);
  return bytes;
}

}  // namespace

std::string SegmentFileName(uint64_t id) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "seg-%06llu.blk",
                static_cast<unsigned long long>(id));
  return buf;
}

std::string WalFileName(uint64_t seq) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "wal-%06llu.log",
                static_cast<unsigned long long>(seq));
  return buf;
}

bool IsStoreFileName(std::string_view name) {
  constexpr std::string_view kTmp = ".tmp";
  if (MatchesPattern(name, "", kTmp)) {
    name.remove_suffix(kTmp.size());
  }
  return name == kManifestFileName || MatchesPattern(name, "seg-", ".blk") ||
         MatchesPattern(name, "seg-", ".snap") ||
         MatchesPattern(name, "wal-", ".log");
}

Status CheckNoUnmanifestedData(const std::string& dir) {
  std::error_code ec;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (MatchesPattern(name, "seg-", ".blk") ||
        MatchesPattern(name, "seg-", ".snap") ||
        (MatchesPattern(name, "wal-", ".log") &&
         fs::file_size(entry.path(), ec) > kWalHeaderSize)) {
      return Status::FailedPrecondition(
          "store directory " + dir + " has no MANIFEST but contains " + name +
          "; refusing to re-initialize over existing store data");
    }
  }
  return Status::OK();
}

Status ReplayWalIntoMemtable(const std::vector<WalRecord>& records,
                             const std::string& wal_path,
                             RawDatabase* memtable,
                             std::vector<uint64_t>* seqs) {
  for (const WalRecord& record : records) {
    if (record.observation != 1) {
      return Status::InvalidArgument(
          "WAL record with observation bit " +
          std::to_string(record.observation) +
          " (explicit negative observations are reserved): " + wal_path);
    }
    if (memtable->Add(record.entity, record.attribute, record.source)) {
      seqs->push_back(record.seq);
    }
  }
  return Status::OK();
}

Dataset DatasetFromRows(std::string name, const RowViews& rows) {
  RawDatabase raw;
  for (const RowView& row : rows.rows) {
    raw.Add(row.entity, row.attribute, row.source);
  }
  return Dataset::FromRaw(std::move(name), std::move(raw));
}

std::string StoreVerifyReport::Summary() const {
  std::string s = "manifest generation " + std::to_string(generation) + ": " +
                  std::to_string(segments) + " segment(s), max level " +
                  std::to_string(max_level) + ", " +
                  std::to_string(segment_rows) + " segment row(s), " +
                  std::to_string(manifest_edits) + " manifest edit(s), " +
                  std::to_string(wal_records) + " WAL record(s)";
  if (manifest_torn_tail) s += " (torn MANIFEST tail ignored)";
  if (wal_torn_tail) s += " (torn WAL tail ignored)";
  if (!orphan_files.empty()) {
    s += "; orphans:";
    for (const std::string& f : orphan_files) s += " " + f;
  }
  return s;
}

TruthStore::TruthStore(std::string dir, TruthStoreOptions options)
    : dir_(std::move(dir)),
      options_(options),
      owned_metrics_(options.metrics == nullptr
                         ? std::make_unique<obs::MetricsRegistry>()
                         : nullptr),
      metrics_(options.metrics != nullptr ? options.metrics
                                          : owned_metrics_.get()),
      wal_appends_(metrics_->counter(
          Labeled("ltm_store_wal_appends_total", options.metrics_label))),
      wal_syncs_(metrics_->counter(
          Labeled("ltm_store_wal_syncs_total", options.metrics_label))),
      wal_append_micros_(metrics_->histogram(
          Labeled("ltm_store_wal_append_micros", options.metrics_label))),
      wal_sync_micros_(metrics_->histogram(
          Labeled("ltm_store_wal_sync_micros", options.metrics_label))),
      flushes_(metrics_->counter(
          Labeled("ltm_store_flushes_total", options.metrics_label))),
      flush_rows_(metrics_->counter(
          Labeled("ltm_store_flush_rows_total", options.metrics_label))),
      flush_micros_(metrics_->histogram(
          Labeled("ltm_store_flush_micros", options.metrics_label))),
      compactions_(metrics_->counter(
          Labeled("ltm_store_compactions_total", options.metrics_label))),
      compaction_trivial_moves_(metrics_->counter(
          Labeled("ltm_store_compaction_trivial_moves_total",
                  options.metrics_label))),
      compaction_input_segments_(metrics_->counter(
          Labeled("ltm_store_compaction_input_segments_total",
                  options.metrics_label))),
      compaction_output_segments_(metrics_->counter(
          Labeled("ltm_store_compaction_output_segments_total",
                  options.metrics_label))),
      compaction_bytes_read_(metrics_->counter(
          Labeled("ltm_store_compaction_bytes_read_total",
                  options.metrics_label))),
      compaction_bytes_written_(metrics_->counter(
          Labeled("ltm_store_compaction_bytes_written_total",
                  options.metrics_label))),
      compaction_rows_dropped_(metrics_->counter(
          Labeled("ltm_store_compaction_rows_dropped_total",
                  options.metrics_label))),
      compaction_micros_(metrics_->histogram(
          Labeled("ltm_store_compaction_micros", options.metrics_label))),
      bloom_point_skips_(metrics_->counter(
          Labeled("ltm_store_bloom_point_skips_total", options.metrics_label))),
      epoch_gauge_(metrics_->gauge(
          Labeled("ltm_store_epoch", options.metrics_label))),
      memtable_rows_gauge_(metrics_->gauge(
          Labeled("ltm_store_memtable_rows", options.metrics_label))),
      live_pins_gauge_(metrics_->gauge(
          Labeled("ltm_store_live_pins", options.metrics_label))),
      block_cache_(static_cast<uint64_t>(options.block_cache_mb) << 20,
                   /*num_shards=*/8, metrics_) {}

std::string TruthStore::SegmentPath(const SegmentInfo& seg) const {
  return dir_ + "/" + seg.file;
}

std::string TruthStore::WalPath(const std::string& file) const {
  return dir_ + "/" + file;
}

BlockSegmentWriterOptions TruthStore::WriterOptions() const {
  BlockSegmentWriterOptions w;
  w.block_size_bytes = options_.block_size_bytes;
  w.restart_interval = options_.restart_interval;
  w.bloom_bits_per_key = options_.bloom_bits_per_key;
  return w;
}

Result<std::unique_ptr<TruthStore>> TruthStore::Open(
    const std::string& dir, TruthStoreOptions options) {
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    return Status::IOError("cannot create store directory " + dir + ": " +
                           ec.message());
  }
  std::unique_ptr<TruthStore> st(new TruthStore(dir, options));
  // Recovery below writes manifest_/wal_/memtable_ directly. No other
  // thread can see the store yet, but the guarded fields still demand the
  // capability, so hold the (uncontended) lock for the whole open.
  MutexLock lock(st->mu_);

  Result<ManifestLoad> loaded = LoadManifestDetailed(dir);
  if (!loaded.ok() && loaded.status().code() == StatusCode::kNotFound) {
    // Fresh directory: create the first WAL, then commit the first
    // manifest (in that order, so a committed manifest never references a
    // WAL that was never created).
    // Distinguish a genuinely fresh directory (possibly with droppings of
    // a crashed first open: a torn or empty WAL) from a store that LOST
    // its manifest. Appends are only acknowledged after the first
    // manifest commit, so a first-open crash can leave at most a
    // header-sized WAL and no segments; anything more means committed
    // data whose manifest is missing — re-initializing would destroy it.
    LTM_RETURN_IF_ERROR(CheckNoUnmanifestedData(dir));
    Manifest fresh;
    fresh.generation = 1;
    fresh.next_segment_id = 1;
    fresh.wal_seq = 1;
    fresh.wal_file = WalFileName(1);
    fresh.next_row_seq = 0;
    // Discard the crashed first open's torn/empty WAL (checked above to
    // hold no records) rather than refusing to open.
    fs::remove(dir + "/" + fresh.wal_file, ec);
    LTM_ASSIGN_OR_RETURN(WalWriter wal,
                         WalWriter::Open(dir + "/" + fresh.wal_file));
    LTM_RETURN_IF_ERROR(CommitManifest(dir, fresh));
    st->manifest_ = std::move(fresh);
    st->wal_ = std::move(wal);
    st->epoch_ = st->manifest_.generation;
    st->epoch_gauge_->Set(static_cast<int64_t>(st->epoch_));
    return st;
  }
  LTM_RETURN_IF_ERROR(loaded.status());
  if (loaded->torn_tail) {
    // A crash mid-append left a torn edit record: an unacknowledged
    // commit. Truncate it away so the next append lands after a clean
    // record boundary.
    fs::resize_file(dir + "/" + kManifestFileName, loaded->valid_bytes, ec);
    if (ec) {
      return Status::IOError("cannot truncate torn MANIFEST tail of " + dir +
                             "/" + kManifestFileName + ": " + ec.message());
    }
    LTM_LOG(Info) << "truthstore: truncated torn MANIFEST tail at byte "
                  << loaded->valid_bytes;
  }
  st->manifest_ = std::move(loaded->manifest);
  st->edits_since_snapshot_ = loaded->edits;

  // Remove droppings of interrupted flushes/compactions: segment files
  // the manifest never committed, rotated-but-uncommitted WALs, temp
  // files. Everything the committed manifest references is kept.
  for (const std::string& name : FindOrphanFiles(dir, st->manifest_)) {
    LTM_LOG(Info) << "truthstore: removing orphan " << name;
    fs::remove(dir + "/" + name, ec);
  }

  // Replay the WAL tail over the committed segment set, truncating any
  // torn suffix so the appender resumes at the last intact record.
  const std::string wal_path = st->WalPath(st->manifest_.wal_file);
  if (fs::exists(wal_path)) {
    LTM_ASSIGN_OR_RETURN(WalReplay replay, ReplayWal(wal_path));
    if (replay.torn_tail) {
      fs::resize_file(wal_path, replay.valid_bytes, ec);
      if (ec) {
        return Status::IOError("cannot truncate torn WAL tail of " + wal_path +
                               ": " + ec.message());
      }
      st->recovered_torn_tail_ = true;
      LTM_LOG(Info) << "truthstore: truncated torn WAL tail of " << wal_path
                    << " at byte " << replay.valid_bytes;
    }
    LTM_RETURN_IF_ERROR(ReplayWalIntoMemtable(replay.records, wal_path,
                                              &st->memtable_,
                                              &st->memtable_seqs_));
    st->wal_records_replayed_ = replay.records.size();
  } else {
    LTM_LOG(Warning) << "truthstore: manifest references missing WAL "
                     << wal_path << "; starting it empty";
  }
  LTM_ASSIGN_OR_RETURN(WalWriter wal, WalWriter::Open(wal_path));
  st->wal_ = std::move(wal);
  st->epoch_ = st->manifest_.generation + st->wal_records_replayed_;
  st->epoch_gauge_->Set(static_cast<int64_t>(st->epoch_));
  st->memtable_rows_gauge_->Set(static_cast<int64_t>(st->memtable_.NumRows()));
  return st;
}

Status TruthStore::Append(const WalRecord& record) {
  MutexLock lock(mu_);
  return AppendLocked(record);
}

Status TruthStore::AppendLocked(const WalRecord& record) {
  if (record.observation != 1) {
    return Status::InvalidArgument(
        "explicit negative observations are reserved; the store only "
        "accepts observation = 1");
  }
  WallTimer append_timer;
  LTM_RETURN_IF_ERROR(wal_->Append(record));
  wal_appends_->Increment();
  wal_append_micros_->Record(ElapsedMicros(append_timer));
  if (options_.sync_every_append) {
    obs::ObsSpan span("wal_sync");
    WallTimer sync_timer;
    LTM_RETURN_IF_ERROR(wal_->Sync());
    wal_syncs_->Increment();
    wal_sync_micros_->Record(ElapsedMicros(sync_timer));
  }
  const size_t before = memtable_.NumRows();
  memtable_.Add(record.entity, record.attribute, record.source);
  if (memtable_.NumRows() > before) {
    memtable_seqs_.push_back(record.seq);
  }
  ++epoch_;
  epoch_gauge_->Set(static_cast<int64_t>(epoch_));
  memtable_rows_gauge_->Set(static_cast<int64_t>(memtable_.NumRows()));
  if (options_.memtable_flush_rows > 0 &&
      memtable_.NumRows() >= options_.memtable_flush_rows) {
    return FlushLocked();
  }
  return Status::OK();
}

Status TruthStore::AppendRecords(const std::vector<WalRecord>& records) {
  {
    MutexLock lock(mu_);
    for (const WalRecord& record : records) {
      LTM_RETURN_IF_ERROR(AppendLocked(record));
    }
  }
  return Sync();
}

Status TruthStore::Sync() {
  MutexLock lock(mu_);
  obs::ObsSpan span("wal_sync");
  WallTimer timer;
  LTM_RETURN_IF_ERROR(wal_->Sync());
  wal_syncs_->Increment();
  wal_sync_micros_->Record(ElapsedMicros(timer));
  return Status::OK();
}

Status TruthStore::Flush() {
  MutexLock lock(mu_);
  return FlushLocked();
}

Result<bool> TruthStore::CommitVersionLocked(const Manifest& next,
                                             const VersionEdit& edit) {
  // Fold the edit log into a fresh snapshot every
  // `manifest_snapshot_every` edits; otherwise append one O(delta) edit
  // record.
  const bool fold =
      edits_since_snapshot_ + 1 >= options_.manifest_snapshot_every;
  Status st = fold ? CommitManifest(dir_, next) : AppendManifestEdit(dir_, edit);
  bool adopted = false;
  if (!st.ok()) {
    // Both commit paths can fail *after* the new state became visible (a
    // snapshot's trailing directory fsync, an edit append whose fsync
    // failed and whose claw-back truncate also failed). Treating that as
    // "nothing happened" would leave this process appending to a WAL the
    // on-disk manifest no longer references — silently losing
    // acknowledged appends at the next open. So reconcile against disk:
    // if the new generation is what a reopen would see, adopt the commit
    // (degraded durability) instead of diverging from it.
    Result<Manifest> on_disk = LoadManifest(dir_);
    if (!on_disk.ok() || on_disk->generation != next.generation) {
      return st;  // the commit really did not land
    }
    LTM_LOG(Warning) << "truthstore: manifest commit generation "
                     << next.generation
                     << " is visible but not durably synced ("
                     << st.ToString() << "); adopting it and keeping "
                     << "superseded files";
    adopted = true;
  }
  edits_since_snapshot_ = fold ? 0 : edits_since_snapshot_ + 1;
  return adopted;
}

Status TruthStore::FlushLocked() {
  if (memtable_.NumRows() == 0) return Status::OK();
  obs::ObsSpan span("memtable_flush");
  WallTimer flush_timer;

  const uint64_t seg_id = manifest_.next_segment_id;
  const std::string file = SegmentFileName(seg_id);

  // Persist every row's router-assigned global ingest seq; replay sorts
  // on them, so this is what makes compaction free to reorder rows on
  // disk. The next_row_seq watermark advances past the largest one.
  // The rows view the memtable's interned strings, which stay put until
  // the memtable is replaced below (mu_ is held throughout).
  std::vector<RowView> rows;
  rows.reserve(memtable_.NumRows());
  uint64_t seq = manifest_.next_row_seq;
  for (size_t i = 0; i < memtable_.NumRows(); ++i) {
    const RawRow& row = memtable_.rows()[i];
    RowView r;
    r.entity = memtable_.entities().Get(row.entity);
    r.attribute = memtable_.attributes().Get(row.attribute);
    r.source = memtable_.sources().Get(row.source);
    r.seq = memtable_seqs_[i];
    r.observation = 1;
    seq = std::max(seq, r.seq + 1);
    rows.push_back(r);
  }
  std::sort(rows.begin(), rows.end(), RowViewOrder);

  LTM_ASSIGN_OR_RETURN(
      const BlockSegmentBuildInfo built,
      WriteBlockSegment(dir_ + "/" + file, rows, WriterOptions()));
  LTM_RETURN_IF_ERROR(FailpointCheck("store-flush-segment-written"));

  // Rotate the WAL before committing, so the committed manifest always
  // references an existing file. A crash in between leaves an orphan WAL
  // the next Open removes.
  const uint64_t new_wal_seq = manifest_.wal_seq + 1;
  Result<WalWriter> new_wal = WalWriter::Open(WalPath(WalFileName(new_wal_seq)));
  LTM_RETURN_IF_ERROR(new_wal.status());
  LTM_RETURN_IF_ERROR(FailpointCheck("store-flush-wal-rotated"));

  VersionEdit edit;
  edit.generation = manifest_.generation + 1;
  edit.next_segment_id = seg_id + 1;
  edit.wal_seq = new_wal_seq;
  edit.wal_file = WalFileName(new_wal_seq);
  edit.next_row_seq = seq;
  edit.added.push_back(MakeSegmentInfo(seg_id, file, /*level=*/0, built));
  Manifest next = manifest_;
  LTM_RETURN_IF_ERROR(ApplyVersionEdit(&next, edit, "flush commit"));
  LTM_ASSIGN_OR_RETURN(const bool adopted, CommitVersionLocked(next, edit));

  // Committed: only now mutate in-memory state and drop the old WAL.
  // On an adopted (visible-but-unsynced) commit the old WAL is kept: if
  // power loss reverts the commit, the old manifest still finds it.
  const std::string old_wal = WalPath(manifest_.wal_file);
  manifest_ = std::move(next);
  wal_ = std::move(new_wal).value();
  memtable_ = RawDatabase();
  memtable_seqs_.clear();
  ++epoch_;
  flushes_->Increment();
  flush_rows_->Increment(rows.size());
  flush_micros_->Record(ElapsedMicros(flush_timer));
  epoch_gauge_->Set(static_cast<int64_t>(epoch_));
  memtable_rows_gauge_->Set(0);
  if (!adopted) {
    std::error_code ec;
    fs::remove(old_wal, ec);  // best-effort; Open() reaps leftovers
  }
  return Status::OK();
}

Status TruthStore::Compact() {
  // One compaction at a time: a second caller (sync or async) would
  // capture the same segment set, race the first commit, and could
  // produce conflicting version edits.
  std::vector<SegmentInfo> captured;
  uint32_t out_level = 1;
  {
    MutexLock lock(mu_);
    if (compacting_) {
      return Status::FailedPrecondition("a compaction is already running");
    }
    if (manifest_.segments.size() < 2) return Status::OK();
    captured = manifest_.segments;
    out_level = std::max(1u, manifest_.MaxLevel());
    compacting_ = true;
  }
  Status st = CompactSegmentsInner(captured, out_level);
  MutexLock lock(mu_);
  compacting_ = false;
  return st;
}

Result<bool> TruthStore::CompactOnce() {
  std::vector<SegmentInfo> inputs;
  uint32_t out_level = 1;
  {
    MutexLock lock(mu_);
    if (compacting_) {
      return Status::FailedPrecondition("a compaction is already running");
    }
    if (manifest_.NumSegmentsAtLevel(0) >= options_.l0_compaction_trigger) {
      // L0 segments may overlap each other, so all of them merge together
      // with every L1 segment their combined range touches.
      std::string min_e, max_e;
      bool first = true;
      for (const SegmentInfo& seg : manifest_.segments) {
        if (seg.level != 0) continue;
        inputs.push_back(seg);
        if (first || seg.min_entity < min_e) min_e = seg.min_entity;
        if (first || seg.max_entity > max_e) max_e = seg.max_entity;
        first = false;
      }
      for (const SegmentInfo& seg : manifest_.segments) {
        if (seg.level == 1 &&
            !(seg.max_entity < min_e || seg.min_entity > max_e)) {
          inputs.push_back(seg);
        }
      }
      out_level = 1;
    } else {
      for (uint32_t level = 1; level <= manifest_.MaxLevel(); ++level) {
        uint64_t level_bytes = 0;
        for (const SegmentInfo& seg : manifest_.segments) {
          if (seg.level == level) level_bytes += seg.file_bytes;
        }
        if (level_bytes <= LevelTargetBytes(options_.level_base_bytes, level)) {
          continue;
        }
        // Spill the range-smallest segment of the over-budget level into
        // the next, together with the next level's overlapping segments.
        const SegmentInfo* pick = nullptr;
        for (const SegmentInfo& seg : manifest_.segments) {
          if (seg.level != level) continue;
          if (pick == nullptr || seg.min_entity < pick->min_entity) {
            pick = &seg;
          }
        }
        inputs.push_back(*pick);
        for (const SegmentInfo& seg : manifest_.segments) {
          if (seg.level == level + 1 &&
              !(seg.max_entity < pick->min_entity ||
                seg.min_entity > pick->max_entity)) {
            inputs.push_back(seg);
          }
        }
        out_level = level + 1;
        break;
      }
    }
    if (inputs.empty()) return false;
    compacting_ = true;
  }
  Status st = inputs.size() == 1 ? TrivialMoveInner(inputs[0], out_level)
                                 : CompactSegmentsInner(inputs, out_level);
  {
    MutexLock lock(mu_);
    compacting_ = false;
  }
  LTM_RETURN_IF_ERROR(st);
  return true;
}

Status TruthStore::TrivialMoveInner(const SegmentInfo& seg,
                                    uint32_t output_level) {
  MutexLock lock(mu_);
  VersionEdit edit;
  edit.generation = manifest_.generation + 1;
  edit.next_segment_id = manifest_.next_segment_id;
  edit.wal_seq = manifest_.wal_seq;
  edit.wal_file = manifest_.wal_file;
  edit.next_row_seq = manifest_.next_row_seq;
  SegmentInfo moved = seg;
  moved.level = output_level;
  edit.deleted.push_back(seg.id);
  edit.added.push_back(std::move(moved));
  Manifest next = manifest_;
  LTM_RETURN_IF_ERROR(ApplyVersionEdit(&next, edit, "trivial move"));
  // Adopted or clean makes no difference here: no file was superseded.
  LTM_RETURN_IF_ERROR(CommitVersionLocked(next, edit).status());
  manifest_ = std::move(next);
  ++epoch_;
  epoch_gauge_->Set(static_cast<int64_t>(epoch_));
  compaction_trivial_moves_->Increment();
  LTM_LOG(Info) << "truthstore: moved " << seg.file << " to level "
                << output_level << " without rewriting";
  return Status::OK();
}

Status TruthStore::CompactSegmentsInner(const std::vector<SegmentInfo>& inputs,
                                        uint32_t output_level) {
  obs::ObsSpan span("compaction");
  WallTimer compaction_timer;
  // Merge outside the lock: segment files are immutable, so appends and
  // flushes proceed concurrently. Compaction reads bypass the block
  // cache — a one-shot full scan would only evict hot point-read blocks.
  // The merge works on views into the input blocks, which `inputs_read`
  // keeps alive until the outputs are written.
  RowViews inputs_read;
  uint64_t bytes_read = 0;
  for (const SegmentInfo& seg : inputs) {
    LTM_ASSIGN_OR_RETURN(const std::shared_ptr<BlockSegmentReader> reader,
                         GetReader(seg));
    BlockSegmentReader::ReadStats rs;
    LTM_RETURN_IF_ERROR(reader->ScanRowsInRange(nullptr, nullptr,
                                                /*cache=*/nullptr, &rs,
                                                &inputs_read));
    bytes_read += seg.file_bytes;
  }
  std::vector<RowView>& rows = inputs_read.rows;
  std::sort(rows.begin(), rows.end(), RowViewOrder);

  // Collapse duplicate (entity, attribute, source) triples onto their
  // first-ingested (minimum-seq) occurrence — the sort puts it first in
  // each group. Replay dedups identically, so posteriors are unchanged;
  // the later copies were pure dead weight.
  size_t kept = 0;
  size_t group_begin = 0;
  uint64_t dropped = 0;
  for (size_t i = 0; i < rows.size(); ++i) {
    if (kept == 0 || rows[i].entity != rows[group_begin].entity ||
        rows[i].attribute != rows[group_begin].attribute) {
      group_begin = kept;
    } else {
      bool seen = false;
      for (size_t j = group_begin; j < kept && !seen; ++j) {
        seen = rows[j].source == rows[i].source;
      }
      if (seen) {
        ++dropped;
        continue;
      }
    }
    rows[kept++] = rows[i];
  }
  rows.resize(kept);

  // Split the output at entity boundaries near segment_target_bytes so
  // levels >= 1 stay made of bounded, non-overlapping segments. An
  // entity never straddles two outputs. `group_ends[g]` is one past the
  // last row of output g.
  std::vector<size_t> group_ends;
  uint64_t group_bytes = 0;
  for (size_t i = 0; i < rows.size(); ++i) {
    const RowView& row = rows[i];
    const uint64_t row_bytes =
        row.entity.size() + row.attribute.size() + row.source.size() + 16;
    if (i > 0 && group_bytes >= options_.segment_target_bytes &&
        row.entity != rows[i - 1].entity) {
      group_ends.push_back(i);
      group_bytes = 0;
    }
    group_bytes += row_bytes;
  }
  if (rows.empty()) {
    return Status::Internal("compaction produced no rows from " +
                            std::to_string(inputs.size()) + " segments");
  }
  group_ends.push_back(rows.size());

  // Reserve the output ids now so a concurrent flush cannot take them
  // while the files are written outside the lock.
  uint64_t first_id = 0;
  {
    MutexLock lock(mu_);
    first_id = manifest_.next_segment_id;
    manifest_.next_segment_id += group_ends.size();
  }

  std::vector<SegmentInfo> outputs;
  uint64_t bytes_written = 0;
  for (size_t i = 0; i < group_ends.size(); ++i) {
    const uint64_t id = first_id + i;
    const std::string file = SegmentFileName(id);
    const size_t begin = i == 0 ? 0 : group_ends[i - 1];
    LTM_ASSIGN_OR_RETURN(
        const BlockSegmentBuildInfo built,
        WriteBlockSegment(
            dir_ + "/" + file,
            std::span<const RowView>(rows).subspan(begin,
                                                   group_ends[i] - begin),
            WriterOptions()));
    outputs.push_back(MakeSegmentInfo(id, file, output_level, built));
    bytes_written += built.file_bytes;
  }
  LTM_RETURN_IF_ERROR(FailpointCheck("store-compact-segment-written"));

  bool adopted = false;
  {
    MutexLock lock(mu_);
    VersionEdit edit;
    edit.generation = manifest_.generation + 1;
    edit.next_segment_id = manifest_.next_segment_id;
    edit.wal_seq = manifest_.wal_seq;
    edit.wal_file = manifest_.wal_file;
    edit.next_row_seq = manifest_.next_row_seq;
    edit.added = outputs;
    for (const SegmentInfo& seg : inputs) edit.deleted.push_back(seg.id);
    Manifest next = manifest_;
    LTM_RETURN_IF_ERROR(ApplyVersionEdit(&next, edit, "compaction commit"));
    LTM_ASSIGN_OR_RETURN(adopted, CommitVersionLocked(next, edit));
    manifest_ = std::move(next);
    ++epoch_;
    epoch_gauge_->Set(static_cast<int64_t>(epoch_));
    compactions_->Increment();
    compaction_input_segments_->Increment(inputs.size());
    compaction_output_segments_->Increment(outputs.size());
    compaction_bytes_read_->Increment(bytes_read);
    compaction_bytes_written_->Increment(bytes_written);
    compaction_rows_dropped_->Increment(dropped);
  }
  const uint64_t compact_micros = ElapsedMicros(compaction_timer);
  compaction_micros_->Record(compact_micros);
  // Per-level write-amp accounting: the labeled series register lazily
  // the first time a compaction lands on each output level (merged with
  // the store's partition label, if it has one).
  const std::string level_label = Labeled(
      "{level=\"" + std::to_string(output_level) + "\"}",
      options_.metrics_label);
  metrics_->counter("ltm_store_compaction_micros_total" + level_label)
      ->Increment(compact_micros);
  metrics_->counter("ltm_store_compaction_bytes_written_total" + level_label)
      ->Increment(bytes_written);

  if (!adopted) {
    // Keep the merged-away segments when the commit's durability
    // degraded: if power loss reverts the un-synced commit, the old
    // manifest still finds its segment files on the next open.
    std::vector<SegmentInfo> doomed;
    {
      MutexLock lock(mu_);
      for (const SegmentInfo& seg : inputs) {
        if (pin_refs_.count(seg.id) != 0) {
          // A live EpochPin still reads this segment: defer the delete
          // until the last referencing pin drops (see ReleasePin).
          deferred_segments_.push_back(seg);
        } else {
          doomed.push_back(seg);
        }
      }
    }
    std::error_code ec;
    for (const SegmentInfo& seg : doomed) {
      DropSegmentCaches(seg.id);
      fs::remove(SegmentPath(seg), ec);  // best-effort
    }
  }
  LTM_LOG(Info) << "truthstore: compacted " << inputs.size()
                << " segment(s) into " << outputs.size() << " at level "
                << output_level << " (" << dropped << " duplicate row(s) "
                << "dropped)";
  return Status::OK();
}

std::shared_future<Status> TruthStore::CompactAsync(ThreadPool& pool) {
  std::shared_future<Status> job =
      pool.SubmitWithStatus([this] { return Compact(); });
  MutexLock lock(mu_);
  // Track every outstanding job (not just the latest — a fast-failing
  // duplicate must not drop the handle to a still-running merge), pruning
  // the ones that already resolved.
  std::erase_if(pending_compactions_, [](const std::shared_future<Status>& f) {
    return f.wait_for(std::chrono::seconds(0)) == std::future_status::ready;
  });
  pending_compactions_.push_back(job);
  return job;
}

TruthStore::~TruthStore() {
  // Join all background compactions: their jobs captured `this` raw, so
  // the store must stay alive until the pool has run (or drained) them.
  std::vector<std::shared_future<Status>> pending;
  {
    MutexLock lock(mu_);
    pending.swap(pending_compactions_);
  }
  for (const std::shared_future<Status>& job : pending) {
    if (job.valid()) job.wait();
  }
}

EpochPin::~EpochPin() { store_->ReleasePin(*this); }

std::unique_ptr<EpochPin> TruthStore::PinEpoch(
    const std::string* min_entity, const std::string* max_entity) const {
  std::vector<SegmentInfo> segments;
  std::vector<WalRecord> memtable_rows;
  uint64_t epoch = 0;
  {
    MutexLock lock(mu_);
    segments = manifest_.segments;
    epoch = epoch_;
    // Copy out only the rows the query needs — a point read must not
    // stall concurrent appends for a full-memtable copy. Each copied row
    // carries its global ingest seq, so every pinned row is totally
    // ordered by seq.
    for (size_t i = 0; i < memtable_.NumRows(); ++i) {
      const RawRow& row = memtable_.rows()[i];
      const std::string_view entity = memtable_.entities().Get(row.entity);
      if ((min_entity != nullptr && entity < *min_entity) ||
          (max_entity != nullptr && entity > *max_entity)) {
        continue;
      }
      WalRecord record;
      record.entity = std::string(entity);
      record.attribute = std::string(memtable_.attributes().Get(row.attribute));
      record.source = std::string(memtable_.sources().Get(row.source));
      record.seq = memtable_seqs_[i];
      memtable_rows.push_back(std::move(record));
    }
    // Reference every captured segment so a compaction that supersedes
    // one defers deleting its file until this pin drops.
    for (const SegmentInfo& seg : segments) ++pin_refs_[seg.id];
    ++live_pins_;
    live_pins_gauge_->Set(static_cast<int64_t>(live_pins_));
  }
  return std::unique_ptr<EpochPin>(new EpochPin(
      this, epoch, std::move(segments), std::move(memtable_rows)));
}

void TruthStore::ReleasePin(const EpochPin& pin) const {
  std::vector<SegmentInfo> reclaim;
  {
    MutexLock lock(mu_);
    --live_pins_;
    live_pins_gauge_->Set(static_cast<int64_t>(live_pins_));
    for (const SegmentInfo& seg : pin.segments()) {
      auto it = pin_refs_.find(seg.id);
      if (it != pin_refs_.end() && --it->second == 0) pin_refs_.erase(it);
    }
    // A deferred segment with no remaining references can be reclaimed.
    std::erase_if(deferred_segments_, [&](const SegmentInfo& seg) {
      if (pin_refs_.count(seg.id) != 0) return false;
      reclaim.push_back(seg);
      return true;
    });
  }
  std::error_code ec;
  for (const SegmentInfo& seg : reclaim) {
    DropSegmentCaches(seg.id);
    fs::remove(SegmentPath(seg), ec);  // best-effort; Open() reaps leftovers
  }
}

Result<std::shared_ptr<BlockSegmentReader>> TruthStore::GetReader(
    const SegmentInfo& seg) const {
  {
    MutexLock lock(readers_mu_);
    const auto it = readers_.find(seg.id);
    if (it != readers_.end()) return it->second;
  }
  // Open outside the lock (footer + index + bloom reads); a racing open
  // of the same segment just loses and adopts the winner's reader.
  LTM_ASSIGN_OR_RETURN(std::shared_ptr<BlockSegmentReader> reader,
                       BlockSegmentReader::Open(SegmentPath(seg), seg.id));
  MutexLock lock(readers_mu_);
  const auto [it, inserted] = readers_.emplace(seg.id, std::move(reader));
  return it->second;
}

void TruthStore::DropSegmentCaches(uint64_t id) const {
  {
    MutexLock lock(readers_mu_);
    readers_.erase(id);
  }
  block_cache_.EraseSegment(id);
}

Result<RowViews> TruthStore::CollectPinnedRows(
    const EpochPin& pin, const std::string* min_entity,
    const std::string* max_entity, RangeScanStats* stats) const {
  RangeScanStats scan;
  const bool point_read = min_entity != nullptr && max_entity != nullptr &&
                          *min_entity == *max_entity;
  RowViews out;
  // One allocation instead of a doubling series: a point read returns a
  // handful of rows, an unbounded read every row the zone stats count.
  if (point_read) {
    out.rows.reserve(16);
  } else if (min_entity == nullptr && max_entity == nullptr) {
    uint64_t rows = pin.memtable_rows().size();
    for (const SegmentInfo& seg : pin.segments()) rows += seg.num_rows;
    out.rows.reserve(rows);
  }
  for (const SegmentInfo& seg : pin.segments()) {
    if ((min_entity != nullptr && seg.max_entity < *min_entity) ||
        (max_entity != nullptr && seg.min_entity > *max_entity)) {
      ++scan.segments_skipped;
      continue;  // zone stats prove the segment is outside the range
    }
    // No retry loop anywhere below: the pin's refcounts keep every
    // referenced segment file on disk, so a read failure here is true
    // corruption.
    LTM_ASSIGN_OR_RETURN(const std::shared_ptr<BlockSegmentReader> reader,
                         GetReader(seg));
    if (point_read && !reader->MayContainEntity(*min_entity)) {
      ++scan.segments_skipped_bloom;
      continue;
    }
    ++scan.segments_scanned;
    LTM_RETURN_IF_ERROR(FailpointCheck("store-pinned-read"));
    BlockSegmentReader::ReadStats rs;
    if (point_read) {
      LTM_RETURN_IF_ERROR(
          reader->ReadEntityRows(*min_entity, &block_cache_, &rs, &out));
    } else {
      LTM_RETURN_IF_ERROR(reader->ScanRowsInRange(min_entity, max_entity,
                                                  &block_cache_, &rs, &out));
    }
    scan.blocks_read += rs.blocks_read;
    scan.block_cache_hits += rs.blocks_from_cache;
    scan.bytes_read += rs.bytes_read;
  }
  // The pin's memtable rows carry their global seqs (see PinEpoch), so
  // one uniform sort recovers ingest order across segments AND the
  // memtable.
  for (const WalRecord& record : pin.memtable_rows()) {
    if ((min_entity != nullptr && record.entity < *min_entity) ||
        (max_entity != nullptr && record.entity > *max_entity)) {
      continue;
    }
    out.rows.push_back(RowView{record.entity, record.attribute, record.source,
                               record.seq, record.observation});
  }
  // Rows arrived in per-segment key order; global ingest-sequence order
  // is the replay order that keeps posteriors bit-identical to a batch
  // load (sequence numbers are unique, so this sort has one answer).
  std::sort(out.rows.begin(), out.rows.end(),
            [](const RowView& a, const RowView& b) { return a.seq < b.seq; });
  if (stats != nullptr) *stats = scan;
  return out;
}

Result<bool> TruthStore::PinnedFactMayExist(const EpochPin& pin,
                                            const std::string& entity,
                                            const std::string& attribute) const {
  for (const WalRecord& record : pin.memtable_rows()) {
    if (record.entity == entity && record.attribute == attribute) return true;
  }
  for (const SegmentInfo& seg : pin.segments()) {
    if (seg.max_entity < entity || seg.min_entity > entity) continue;
    LTM_ASSIGN_OR_RETURN(const std::shared_ptr<BlockSegmentReader> reader,
                         GetReader(seg));
    if (reader->MayContainFact(entity, attribute)) return true;
  }
  bloom_point_skips_->Increment();
  return false;
}

uint64_t TruthStore::epoch() const {
  MutexLock lock(mu_);
  return epoch_;
}

TruthStoreStats TruthStore::Stats() const {
  TruthStoreStats stats;
  {
    MutexLock lock(mu_);
    stats.epoch = epoch_;
    stats.generation = manifest_.generation;
    stats.num_segments = manifest_.segments.size();
    stats.segment_rows = manifest_.TotalSegmentRows();
    stats.memtable_rows = memtable_.NumRows();
    stats.wal_records_replayed = wal_records_replayed_;
    stats.recovered_torn_tail = recovered_torn_tail_;
    stats.live_pins = live_pins_;
    stats.deferred_segments = deferred_segments_.size();
    stats.max_level = manifest_.MaxLevel();
    stats.l0_segments = manifest_.NumSegmentsAtLevel(0);
    stats.next_row_seq = manifest_.next_row_seq;
    stats.manifest_edits_since_snapshot = edits_since_snapshot_;
    stats.compaction.compactions = compactions_->Value();
    stats.compaction.trivial_moves = compaction_trivial_moves_->Value();
    stats.compaction.input_segments = compaction_input_segments_->Value();
    stats.compaction.output_segments = compaction_output_segments_->Value();
    stats.compaction.bytes_read = compaction_bytes_read_->Value();
    stats.compaction.bytes_written = compaction_bytes_written_->Value();
    stats.compaction.rows_dropped = compaction_rows_dropped_->Value();
  }
  stats.bloom_point_skips = bloom_point_skips_->Value();
  stats.block_cache = block_cache_.Stats();
  return stats;
}

std::vector<SegmentInfo> TruthStore::segments() const {
  MutexLock lock(mu_);
  return manifest_.segments;
}

size_t TruthStore::num_pinned_epochs() const {
  MutexLock lock(mu_);
  return live_pins_;
}

size_t TruthStore::num_deferred_segments() const {
  MutexLock lock(mu_);
  return deferred_segments_.size();
}

uint64_t TruthStore::NextRowSeq() const {
  MutexLock lock(mu_);
  uint64_t next = manifest_.next_row_seq;
  for (const uint64_t seq : memtable_seqs_) {
    next = std::max(next, seq + 1);
  }
  return next;
}

Result<StoreVerifyReport> TruthStore::Verify(const std::string& dir) {
  LTM_ASSIGN_OR_RETURN(const ManifestLoad load, LoadManifestDetailed(dir));
  const Manifest& manifest = load.manifest;
  StoreVerifyReport report;
  report.generation = manifest.generation;
  report.max_level = manifest.MaxLevel();
  report.manifest_edits = load.edits;
  report.manifest_torn_tail = load.torn_tail;
  for (const SegmentInfo& seg : manifest.segments) {
    const std::string path = dir + "/" + seg.file;
    LTM_ASSIGN_OR_RETURN(const std::string bytes, ReadFileBytes(path));
    LTM_ASSIGN_OR_RETURN(const ParsedBlockSegment parsed,
                         ParseBlockSegmentFromBytes(bytes, path));
    // Recompute the zone stats from the decoded rows (which
    // ParseBlockSegmentFromBytes already proved sorted and
    // checksum-clean) and compare against the manifest's copy.
    uint64_t num_facts = 0;
    uint64_t num_positive = 0;
    uint64_t min_seq = 0;
    uint64_t max_seq = 0;
    std::set<std::string_view> sources;
    for (size_t i = 0; i < parsed.rows.size(); ++i) {
      const SegmentRow& row = parsed.rows[i];
      if (i == 0 || row.entity != parsed.rows[i - 1].entity ||
          row.attribute != parsed.rows[i - 1].attribute) {
        ++num_facts;
      }
      sources.insert(row.source);
      if (row.observation == 1) ++num_positive;
      if (i == 0 || row.seq < min_seq) min_seq = row.seq;
      if (i == 0 || row.seq > max_seq) max_seq = row.seq;
    }
    if (parsed.rows.size() != seg.num_rows || num_facts != seg.num_facts ||
        sources.size() != seg.num_sources ||
        num_positive != seg.num_positive ||
        parsed.rows.front().entity != seg.min_entity ||
        parsed.rows.back().entity != seg.max_entity ||
        min_seq != seg.min_seq || max_seq != seg.max_seq ||
        bytes.size() != seg.file_bytes ||
        parsed.blocks.size() != seg.num_blocks) {
      return Status::InvalidArgument(
          "segment " + seg.file + " does not match its manifest zone stats");
    }
    if (seg.max_seq >= manifest.next_row_seq) {
      return Status::InvalidArgument(
          "segment " + seg.file + " holds seq " + std::to_string(seg.max_seq) +
          " >= manifest next_row_seq " +
          std::to_string(manifest.next_row_seq));
    }
    ++report.segments;
    report.segment_rows += seg.num_rows;
  }
  // Level invariant: within every level >= 1, entity ranges are disjoint
  // (that is what lets a point read touch at most one segment per level).
  for (uint32_t level = 1; level <= manifest.MaxLevel(); ++level) {
    std::vector<const SegmentInfo*> at_level;
    for (const SegmentInfo& seg : manifest.segments) {
      if (seg.level == level) at_level.push_back(&seg);
    }
    std::sort(at_level.begin(), at_level.end(),
              [](const SegmentInfo* a, const SegmentInfo* b) {
                return a->min_entity < b->min_entity;
              });
    for (size_t i = 1; i < at_level.size(); ++i) {
      if (at_level[i]->min_entity <= at_level[i - 1]->max_entity) {
        return Status::InvalidArgument(
            "level " + std::to_string(level) + " segments " +
            at_level[i - 1]->file + " and " + at_level[i]->file +
            " have overlapping entity ranges");
      }
    }
  }
  const std::string wal_path = dir + "/" + manifest.wal_file;
  if (fs::exists(wal_path)) {
    LTM_ASSIGN_OR_RETURN(const WalReplay replay, ReplayWal(wal_path));
    report.wal_records = replay.records.size();
    report.wal_torn_tail = replay.torn_tail;
  }
  report.orphan_files = FindOrphanFiles(dir, manifest);
  return report;
}

}  // namespace store
}  // namespace ltm
