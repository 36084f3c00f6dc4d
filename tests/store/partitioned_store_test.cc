#include "store/partitioned_store.h"

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "data/tsv_io.h"
#include "store/truth_store.h"
#include "test_util.h"
#include "truth/ltm.h"

namespace ltm {
namespace store {
namespace {

namespace fs = std::filesystem;

class PartitionedTruthStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = ::testing::TempDir() + "/partitioned_store_test_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name();
    fs::remove_all(root_);
    fs::create_directories(root_);
  }

  void TearDown() override { SetFailpointHandler(nullptr); }

  std::string Dir(const std::string& name) { return root_ + "/" + name; }

  /// Four ranges that actually spread RandomRaw's "eN" entities (the
  /// default single-byte boundaries would park them all in one range).
  static PartitionedStoreOptions FourWay() {
    PartitionedStoreOptions opts;
    opts.partitions = 4;
    opts.initial_boundaries = {"e2", "e4", "e6"};
    return opts;
  }

  /// Appends rows [from, to) of `raw` one Append at a time, then
  /// Sync()s — the router assigns the global seqs.
  static Status AppendRows(PartitionedTruthStore* st, const RawDatabase& raw,
                           size_t from, size_t to) {
    for (size_t i = from; i < to && i < raw.NumRows(); ++i) {
      const RawRow& row = raw.rows()[i];
      WalRecord record;
      record.entity = std::string(raw.entities().Get(row.entity));
      record.attribute = std::string(raw.attributes().Get(row.attribute));
      record.source = std::string(raw.sources().Get(row.source));
      LTM_RETURN_IF_ERROR(st->Append(record));
    }
    return st->Sync();
  }

  /// The pinned inference configuration: the bit-reproducible reference
  /// kernel on one chain.
  static std::vector<double> LtmPosteriors(const Dataset& ds) {
    LtmOptions opts = LtmOptions::ScaledDefaults(ds.facts.NumFacts());
    opts.iterations = 40;
    opts.burnin = 10;
    opts.seed = 11;
    opts.threads = 1;
    opts.kernel = LtmKernel::kReference;
    LatentTruthModel model(opts);
    return model.Score(ds.facts, ds.graph).probability;
  }

  /// A private copy of the checked-in legacy single-store directory,
  /// written by the build before the store became partition-only: one
  /// flushed and compacted chunk, a second flushed chunk, and an
  /// unflushed WAL tail holding duplicate (entity, attribute, source)
  /// rows.
  std::string CopyLegacyFixture(const std::string& name) {
    const std::string dir = Dir(name);
    fs::copy(LegacyFixtureDir(), dir, fs::copy_options::recursive);
    return dir;
  }

  static std::string LegacyFixtureDir() {
    return std::string(LTM_TESTDATA_DIR) + "/legacy_single_store";
  }

  /// The fixture's source chunks loaded as one batch, in ingest order —
  /// what `ltm_cli` sees on the concatenated TSVs.
  static Dataset LegacyFixtureBatch() {
    RawDatabase raw;
    for (int c = 1; c <= 5; ++c) {
      auto chunk = LoadRawDatabaseFromTsv(std::string(LTM_TESTDATA_DIR) +
                                          "/legacy_single_store_tsv/chunk" +
                                          std::to_string(c) + ".tsv");
      EXPECT_TRUE(chunk.ok()) << chunk.status().ToString();
      if (!chunk.ok()) break;
      for (const RawRow& row : chunk->rows()) {
        raw.Add(chunk->entities().Get(row.entity),
                chunk->attributes().Get(row.attribute),
                chunk->sources().Get(row.source));
      }
    }
    return Dataset::FromRaw("batch", std::move(raw));
  }

  /// Every regular file under `dir` (relative path -> bytes).
  static std::map<std::string, std::string> FileBytes(const std::string& dir) {
    std::map<std::string, std::string> out;
    for (const auto& entry : fs::recursive_directory_iterator(dir)) {
      if (!entry.is_regular_file()) continue;
      std::ifstream in(entry.path(), std::ios::binary);
      out[fs::relative(entry.path(), dir).string()] =
          std::string(std::istreambuf_iterator<char>(in), {});
    }
    return out;
  }

  /// Names of the entries directly under `dir`.
  static std::set<std::string> Entries(const std::string& dir) {
    std::set<std::string> out;
    for (const auto& entry : fs::directory_iterator(dir)) {
      out.insert(entry.path().filename().string());
    }
    return out;
  }

  std::string root_;
};

void ExpectSameClaimData(const Dataset& a, const Dataset& b) {
  EXPECT_EQ(a.raw.rows(), b.raw.rows());
  EXPECT_EQ(a.raw.entities().strings(), b.raw.entities().strings());
  EXPECT_EQ(a.raw.attributes().strings(), b.raw.attributes().strings());
  EXPECT_EQ(a.raw.sources().strings(), b.raw.sources().strings());
  EXPECT_EQ(a.facts.facts(), b.facts.facts());
  EXPECT_EQ(a.graph.fact_offsets(), b.graph.fact_offsets());
  EXPECT_EQ(a.graph.fact_claims(), b.graph.fact_claims());
}

TEST_F(PartitionedTruthStoreTest, OpenCarvesFreshDirectoryAndReopensIt) {
  const std::string dir = Dir("fresh");
  {
    auto st = PartitionedTruthStore::Open(dir, FourWay());
    ASSERT_TRUE(st.ok()) << st.status().ToString();
    EXPECT_EQ((*st)->num_partitions(), 4u);
    EXPECT_TRUE(fs::exists(dir + "/" + kPartitionMapFileName));
    const PartitionMap map = (*st)->partition_map();
    ASSERT_TRUE(ValidatePartitionMap(map).ok());
    ASSERT_EQ(map.entries.size(), 4u);
    for (const PartitionMapEntry& entry : map.entries) {
      EXPECT_TRUE(fs::exists(dir + "/" + entry.dir + "/MANIFEST"));
    }
    const RawDatabase raw = testing::RandomRaw(3);
    ASSERT_TRUE(AppendRows(st->get(), raw, 0, raw.NumRows()).ok());
  }
  // Reopen keeps the committed layout; the options' partition count is
  // only for fresh carving.
  PartitionedStoreOptions two;
  two.partitions = 2;
  auto st = PartitionedTruthStore::Open(dir, two);
  ASSERT_TRUE(st.ok()) << st.status().ToString();
  EXPECT_EQ((*st)->num_partitions(), 4u);
  auto ds = (*st)->Materialize();
  ASSERT_TRUE(ds.ok());
  ExpectSameClaimData(Dataset::FromRaw("batch", testing::RandomRaw(3)), *ds);
  EXPECT_EQ((*st)->PartitionEpochs().size(), 4u);

  // Every child publishes under its own partition label.
  EXPECT_NE((*st)->metrics()->RenderText().find("partition=\""),
            std::string::npos);
}

TEST_F(PartitionedTruthStoreTest, AutoOpenFollowsTheDirectoryLayout) {
  // A PARTMAP directory keeps its layout even when asked for one
  // partition.
  const std::string pdir = Dir("auto_part");
  { ASSERT_TRUE(PartitionedTruthStore::Open(pdir, FourWay()).ok()); }
  PartitionedStoreOptions one;
  one.partitions = 1;
  auto reopened = PartitionedTruthStore::Open(pdir, one);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->num_partitions(), 4u);

  // A legacy single-store directory is refused for more than one
  // partition, untouched...
  const std::string sdir = CopyLegacyFixture("auto_single");
  const auto legacy_bytes = FileBytes(sdir);
  EXPECT_EQ(PartitionedTruthStore::Open(sdir, FourWay()).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(FileBytes(sdir), legacy_bytes);

  // ...and converted into exactly one partition otherwise.
  auto converted = PartitionedTruthStore::Open(sdir, one);
  ASSERT_TRUE(converted.ok()) << converted.status().ToString();
  EXPECT_EQ((*converted)->num_partitions(), 1u);
  EXPECT_EQ(Entries(sdir), (std::set<std::string>{kPartitionMapFileName,
                                                  PartitionDirName(1)}));
}

TEST_F(PartitionedTruthStoreTest, RoutesAppendsByEntityRange) {
  auto st = PartitionedTruthStore::Open(Dir("route"), FourWay());
  ASSERT_TRUE(st.ok());
  const RawDatabase raw = testing::RandomRaw(7);
  ASSERT_TRUE(AppendRows(st->get(), raw, 0, raw.NumRows()).ok());
  ASSERT_TRUE((*st)->Flush().ok());

  const PartitionMap map = (*st)->partition_map();
  const std::vector<TruthStoreStats> per = (*st)->PartitionStats();
  ASSERT_EQ(per.size(), map.entries.size());
  uint64_t total = 0;
  size_t nonempty = 0;
  for (size_t p = 0; p < per.size(); ++p) {
    total += per[p].segment_rows + per[p].memtable_rows;
    if (per[p].segment_rows + per[p].memtable_rows > 0) ++nonempty;
  }
  EXPECT_EQ(total, raw.NumRows());
  EXPECT_GE(nonempty, 3u);  // the boundaries actually spread the data

  // Range reads route to the owning partitions only.
  RangeScanStats scan;
  auto slice = (*st)->MaterializeEntityRange("e4", "e5", &scan);
  ASSERT_TRUE(slice.ok());
  for (const auto& entity : slice->raw.entities().strings()) {
    EXPECT_GE(entity, "e4");
    EXPECT_LE(entity, "e5");
  }
  EXPECT_GT(slice->raw.NumRows(), 0u);
}

// The partitioning acceptance pin: the same rows ingested in the same
// order into a 4-way and a one-partition store yield BIT-IDENTICAL
// posteriors under the reference kernel, and both equal the batch load
// of those rows — partitioning is invisible to inference because global
// ingest order is reproduced exactly from the per-partition WALs and
// segments.
TEST_F(PartitionedTruthStoreTest, PinnedPosteriorsBitIdenticalToSingleStore) {
  const RawDatabase raw = testing::RandomRaw(21);
  const size_t n = raw.NumRows();
  const Dataset batch = Dataset::FromRaw("batch", testing::RandomRaw(21));
  const std::vector<double> batch_posteriors = LtmPosteriors(batch);

  auto single = PartitionedTruthStore::Open(Dir("single"));
  ASSERT_TRUE(single.ok());
  ASSERT_EQ((*single)->num_partitions(), 1u);
  auto parted = PartitionedTruthStore::Open(Dir("parted"), FourWay());
  ASSERT_TRUE(parted.ok());

  for (PartitionedTruthStore* st : {single->get(), parted->get()}) {
    ASSERT_TRUE(AppendRows(st, raw, 0, n / 3).ok());
    ASSERT_TRUE(st->Flush().ok());
    ASSERT_TRUE(AppendRows(st, raw, n / 3, 2 * n / 3).ok());
    ASSERT_TRUE(st->Flush().ok());
    auto compacted = st->CompactOnce();
    ASSERT_TRUE(compacted.ok());
    ASSERT_TRUE(AppendRows(st, raw, 2 * n / 3, n).ok());
  }

  auto ds_single = (*single)->Materialize();
  ASSERT_TRUE(ds_single.ok());
  auto ds_parted = (*parted)->Materialize();
  ASSERT_TRUE(ds_parted.ok());
  ExpectSameClaimData(batch, *ds_single);
  ExpectSameClaimData(batch, *ds_parted);
  EXPECT_EQ(LtmPosteriors(*ds_single), batch_posteriors);
  EXPECT_EQ(LtmPosteriors(*ds_parted), batch_posteriors);

  // And the partitioned store round-trips a reopen to the same bits.
  parted->reset();
  auto reopened = PartitionedTruthStore::Open(Dir("parted"));
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  auto ds_reopened = (*reopened)->Materialize();
  ASSERT_TRUE(ds_reopened.ok());
  ExpectSameClaimData(batch, *ds_reopened);
  EXPECT_EQ(LtmPosteriors(*ds_reopened), batch_posteriors);
}

// A directory written by the single-store build converts on open into a
// one-partition layout whose rows and reference-kernel posteriors are
// bit-identical to the batch load of the TSVs it was ingested from — and
// stay so across a reopen.
TEST_F(PartitionedTruthStoreTest, LegacyFixtureConvertsBitIdenticalToBatch) {
  const Dataset batch = LegacyFixtureBatch();
  const std::vector<double> batch_posteriors = LtmPosteriors(batch);
  const std::string dir = CopyLegacyFixture("legacy");
  {
    auto st = PartitionedTruthStore::Open(dir);
    ASSERT_TRUE(st.ok()) << st.status().ToString();
    EXPECT_EQ((*st)->num_partitions(), 1u);
    EXPECT_EQ(Entries(dir), (std::set<std::string>{kPartitionMapFileName,
                                                   PartitionDirName(1)}));
    auto ds = (*st)->Materialize();
    ASSERT_TRUE(ds.ok()) << ds.status().ToString();
    ExpectSameClaimData(batch, *ds);
    EXPECT_EQ(LtmPosteriors(*ds), batch_posteriors);
  }
  auto st = PartitionedTruthStore::Open(dir);
  ASSERT_TRUE(st.ok()) << st.status().ToString();
  auto ds = (*st)->Materialize();
  ASSERT_TRUE(ds.ok()) << ds.status().ToString();
  ExpectSameClaimData(batch, *ds);
  EXPECT_EQ(LtmPosteriors(*ds), batch_posteriors);
  st->reset();
  auto report = PartitionedTruthStore::Verify(dir);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->ok()) << report->Summary();
  EXPECT_FALSE(report->legacy.has_value());
  ASSERT_EQ(report->partitions.size(), 1u);
  EXPECT_TRUE(report->partitions[0].report.orphan_files.empty());
}

// A kill on either side of the conversion's PARTMAP commit recovers to
// exactly the legacy layout (before it) or exactly the converted one
// (after it), and the next open completes the conversion bit-identically.
TEST_F(PartitionedTruthStoreTest, CrashAroundLegacyConversionCommitRecovers) {
  const Dataset batch = LegacyFixtureBatch();
  const std::vector<double> batch_posteriors = LtmPosteriors(batch);
  const auto legacy_bytes = FileBytes(LegacyFixtureDir());
  for (const std::string point :
       {"partition-convert-child-written", "partition-convert-committed"}) {
    SCOPED_TRACE("crash at " + point);
    const std::string dir = CopyLegacyFixture(point);
    {
      ScopedFailpoint crash([point](std::string_view at) {
        return at == point ? Status::Internal("injected crash at " + point)
                           : Status::OK();
      });
      ASSERT_FALSE(PartitionedTruthStore::Open(dir).ok());
    }
    const bool committed = point == "partition-convert-committed";
    // The root still holds the legacy files, byte for byte; what differs
    // is whether the PARTMAP made the built partition the store.
    std::map<std::string, std::string> root_files;
    for (const auto& [name, bytes] : FileBytes(dir)) {
      if (name.find('/') == std::string::npos &&
          name != kPartitionMapFileName) {
        root_files[name] = bytes;
      }
    }
    EXPECT_EQ(root_files, legacy_bytes);
    EXPECT_EQ(fs::exists(dir + "/" + kPartitionMapFileName), committed);
    auto report = PartitionedTruthStore::Verify(dir);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_EQ(report->legacy.has_value(), !committed) << report->Summary();

    auto st = PartitionedTruthStore::Open(dir);
    ASSERT_TRUE(st.ok()) << st.status().ToString();
    EXPECT_EQ(Entries(dir), (std::set<std::string>{kPartitionMapFileName,
                                                   PartitionDirName(1)}));
    EXPECT_EQ((*st)->partition_map().generation, 1u);
    auto ds = (*st)->Materialize();
    ASSERT_TRUE(ds.ok()) << ds.status().ToString();
    ExpectSameClaimData(batch, *ds);
    EXPECT_EQ(LtmPosteriors(*ds), batch_posteriors);
  }
}

// Verify reports a legacy directory as legacy and never modifies it.
TEST_F(PartitionedTruthStoreTest, VerifyLeavesLegacyDirectoryByteIdentical) {
  const std::string dir = CopyLegacyFixture("verify_legacy");
  const auto before = FileBytes(dir);
  auto report = PartitionedTruthStore::Verify(dir);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->ok()) << report->Summary();
  ASSERT_TRUE(report->legacy.has_value());
  EXPECT_EQ(report->legacy->segments, 2u);
  EXPECT_GT(report->legacy->wal_records, 0u);
  EXPECT_NE(report->Summary().find("legacy"), std::string::npos);
  EXPECT_EQ(FileBytes(dir), before);
  EXPECT_EQ(before, FileBytes(LegacyFixtureDir()));
}

// A legacy directory whose MANIFEST is lost is not a fresh directory:
// the open refuses instead of carving a store and reaping the root
// segments and WAL. Files that are not store files are never reaped.
TEST_F(PartitionedTruthStoreTest, RefusesLegacyDirectoryThatLostItsManifest) {
  const std::string dir = CopyLegacyFixture("lost_manifest");
  fs::remove(dir + "/" + kManifestFileName);
  const auto before = FileBytes(dir);
  for (const size_t partitions : {size_t{1}, size_t{4}}) {
    PartitionedStoreOptions opts;
    opts.partitions = partitions;
    const Status st = PartitionedTruthStore::Open(dir, opts).status();
    EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition) << st.ToString();
    EXPECT_NE(st.ToString().find("refusing to re-initialize"),
              std::string::npos)
        << st.ToString();
    EXPECT_EQ(FileBytes(dir), before);
  }

  const std::string other = Dir("foreign_files");
  fs::create_directories(other);
  for (const char* name : {"notes.txt", "seg-notes.txt", "wal-README"}) {
    std::ofstream(other + "/" + name) << "not a store file\n";
  }
  const auto foreign = FileBytes(other);
  {
    auto st = PartitionedTruthStore::Open(other);
    ASSERT_TRUE(st.ok()) << st.status().ToString();
  }
  auto reopened = PartitionedTruthStore::Open(other);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  const auto after = FileBytes(other);
  for (const auto& [name, bytes] : foreign) {
    ASSERT_EQ(after.count(name), 1u) << name;
    EXPECT_EQ(after.at(name), bytes);
  }
}

TEST_F(PartitionedTruthStoreTest, SplitAndMergeRoundTripPreservesEveryRow) {
  const std::string dir = Dir("rebalance");
  const RawDatabase raw = testing::RandomRaw(21);
  const Dataset batch = Dataset::FromRaw("batch", testing::RandomRaw(21));
  const std::vector<double> batch_posteriors = LtmPosteriors(batch);

  // Phase 1: ingest into one partition, then let size-driven splitting
  // carve it up.
  {
    PartitionedStoreOptions opts;
    opts.partitions = 1;
    opts.split_threshold_rows = 24;
    auto st = PartitionedTruthStore::Open(dir, opts);
    ASSERT_TRUE(st.ok());
    ASSERT_TRUE(AppendRows(st->get(), raw, 0, raw.NumRows()).ok());
    ASSERT_TRUE((*st)->Flush().ok());
    const uint64_t epoch_before = (*st)->epoch();
    for (int i = 0; i < 16; ++i) {
      auto did = (*st)->CompactOnce();
      ASSERT_TRUE(did.ok()) << did.status().ToString();
      if (!*did) break;
    }
    EXPECT_GT((*st)->num_partitions(), 2u);
    EXPECT_GT((*st)->epoch(), epoch_before);  // monotone across swaps
    auto ds = (*st)->Materialize();
    ASSERT_TRUE(ds.ok());
    ExpectSameClaimData(batch, *ds);
    EXPECT_EQ(LtmPosteriors(*ds), batch_posteriors);
  }
  // No orphaned segment files or partition directories after the splits.
  {
    auto report = PartitionedTruthStore::Verify(dir);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_TRUE(report->ok()) << report->Summary();
    EXPECT_TRUE(report->orphan_dirs.empty());
    EXPECT_GT(report->partitions.size(), 2u);
  }

  // Phase 2: reopen with an aggressive merge threshold and collapse the
  // layout back down. Every row must survive the full round trip.
  {
    PartitionedStoreOptions opts;
    opts.merge_threshold_rows = 100000;
    auto st = PartitionedTruthStore::Open(dir, opts);
    ASSERT_TRUE(st.ok());
    for (int i = 0; i < 16 && (*st)->num_partitions() > 1; ++i) {
      auto did = (*st)->CompactOnce();
      ASSERT_TRUE(did.ok()) << did.status().ToString();
    }
    EXPECT_EQ((*st)->num_partitions(), 1u);
    auto ds = (*st)->Materialize();
    ASSERT_TRUE(ds.ok());
    ExpectSameClaimData(batch, *ds);
    EXPECT_EQ(LtmPosteriors(*ds), batch_posteriors);
  }
  auto report = PartitionedTruthStore::Verify(dir);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->ok()) << report->Summary();
  EXPECT_TRUE(report->orphan_dirs.empty());
}

TEST_F(PartitionedTruthStoreTest, CompositePinSurvivesARebalanceSwap) {
  const std::string dir = Dir("pin_swap");
  PartitionedStoreOptions opts;
  opts.partitions = 2;
  opts.initial_boundaries = {"e5"};
  opts.split_threshold_rows = 10;
  auto st = PartitionedTruthStore::Open(dir, opts);
  ASSERT_TRUE(st.ok());
  const RawDatabase raw = testing::RandomRaw(9);
  ASSERT_TRUE(AppendRows(st->get(), raw, 0, raw.NumRows()).ok());
  ASSERT_TRUE((*st)->Flush().ok());

  auto pin = (*st)->PinSnapshot();
  const uint64_t pinned_epoch = pin->epoch();
  auto before = (*st)->MaterializeSnapshot(*pin);
  ASSERT_TRUE(before.ok());

  // Splits retire partitions the pin still references; their objects and
  // files must survive until the pin drops.
  bool rebalanced = false;
  for (int i = 0; i < 16; ++i) {
    auto did = (*st)->CompactOnce();
    ASSERT_TRUE(did.ok()) << did.status().ToString();
    if ((*st)->num_retired_partitions() > 0) rebalanced = true;
    if (!*did) break;
  }
  ASSERT_TRUE(rebalanced);
  EXPECT_GT((*st)->num_partitions(), 2u);

  // The pinned view is frozen: same epoch, bit-identical materialization,
  // pre-swap routing.
  EXPECT_EQ(pin->epoch(), pinned_epoch);
  auto after = (*st)->MaterializeSnapshot(*pin);
  ASSERT_TRUE(after.ok());
  ExpectSameClaimData(*before, *after);

  // Dropping the pin reaps the retired partitions (objects and dirs).
  pin.reset();
  EXPECT_EQ((*st)->num_retired_partitions(), 0u);
  auto report = PartitionedTruthStore::Verify(dir);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->ok()) << report->Summary();
}

// Crash recovery at every rebalance boundary: a failpoint stops the
// operation exactly where a kill would, the store is dropped with no
// cleanup, and the reopened directory recovers to exactly the old or
// exactly the new partitioning — never a mix — with bit-identical
// posteriors either way.
TEST_F(PartitionedTruthStoreTest, CrashAtRebalanceBoundariesRecovers) {
  const RawDatabase raw = testing::RandomRaw(21);
  const Dataset batch = Dataset::FromRaw("batch", testing::RandomRaw(21));
  const std::vector<double> batch_posteriors = LtmPosteriors(batch);

  struct CrashCase {
    const char* point;
    bool merging;  // else splitting
  };
  const std::vector<CrashCase> cases = {
      {"partition-split-children-written", false},
      {"atomic-write-before-rename", false},  // the PARTMAP commit point
      {"partition-merge-children-written", true},
      {"atomic-write-before-rename", true},
  };
  for (size_t c = 0; c < cases.size(); ++c) {
    SCOPED_TRACE("crash case " + std::to_string(c) + " at " +
                 cases[c].point);
    const std::string dir = Dir("crash_" + std::to_string(c));
    PartitionedStoreOptions opts;
    if (cases[c].merging) {
      opts.partitions = 4;
      opts.initial_boundaries = {"e2", "e4", "e6"};
      opts.merge_threshold_rows = 100000;
    } else {
      opts.partitions = 1;
      opts.split_threshold_rows = 24;
    }
    const uint64_t generation_before = [&] {
      auto st = PartitionedTruthStore::Open(dir, opts);
      EXPECT_TRUE(st.ok());
      EXPECT_TRUE(AppendRows(st->get(), raw, 0, raw.NumRows()).ok());
      EXPECT_TRUE((*st)->Flush().ok());
      const uint64_t gen = (*st)->partition_map().generation;

      const std::string point = cases[c].point;
      const std::string partmap = std::string(kPartitionMapFileName);
      ScopedFailpoint crash([point, partmap](std::string_view at) {
        if (at.find(point) == std::string_view::npos) return Status::OK();
        // The atomic-write point fires for child MANIFESTs too; only the
        // top-level map commit is this case's crash site.
        if (point == "atomic-write-before-rename" &&
            at.find(partmap) == std::string_view::npos) {
          return Status::OK();
        }
        return Status::Internal("injected crash at " + std::string(at));
      });
      auto did = (*st)->CompactOnce();
      EXPECT_FALSE(did.ok());
      return gen;
      // Store dropped here: the directory is what a kill leaves behind.
    }();

    auto st = PartitionedTruthStore::Open(dir, opts);
    ASSERT_TRUE(st.ok()) << st.status().ToString();
    // All-or-nothing: the reopened map is exactly the pre-crash one (the
    // rename never happened), and no half-built partition leaks.
    EXPECT_EQ((*st)->partition_map().generation, generation_before);
    auto ds = (*st)->Materialize();
    ASSERT_TRUE(ds.ok()) << ds.status().ToString();
    ExpectSameClaimData(batch, *ds);
    EXPECT_EQ(LtmPosteriors(*ds), batch_posteriors);
    st->reset();
    auto report = PartitionedTruthStore::Verify(dir);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_TRUE(report->ok()) << report->Summary();
    EXPECT_TRUE(report->orphan_dirs.empty());
  }
}

// A kill between a rebalance's child flushes and the PARTMAP rename can
// strand fully-built child directories; the next Open must reap them as
// orphans (they were never committed).
TEST_F(PartitionedTruthStoreTest, OpenReapsOrphanPartitionDirectories) {
  const std::string dir = Dir("orphans");
  PartitionedStoreOptions opts = FourWay();
  {
    auto st = PartitionedTruthStore::Open(dir, opts);
    ASSERT_TRUE(st.ok());
    const RawDatabase raw = testing::RandomRaw(3);
    ASSERT_TRUE(AppendRows(st->get(), raw, 0, raw.NumRows()).ok());
  }
  // Fake the loser of an interrupted split: an uncommitted child dir.
  const std::string orphan = dir + "/" + PartitionDirName(99);
  fs::create_directories(orphan);
  {
    auto report = PartitionedTruthStore::Verify(dir);
    ASSERT_TRUE(report.ok());
    ASSERT_EQ(report->orphan_dirs.size(), 1u);
    EXPECT_EQ(report->orphan_dirs[0], PartitionDirName(99));
  }
  auto st = PartitionedTruthStore::Open(dir, opts);
  ASSERT_TRUE(st.ok()) << st.status().ToString();
  EXPECT_FALSE(fs::exists(orphan));
  EXPECT_EQ((*st)->num_partitions(), 4u);
}

TEST_F(PartitionedTruthStoreTest, CrashDuringFirstOpenRecovers) {
  const std::string dir = Dir("first_open");
  {
    ScopedFailpoint crash([](std::string_view at) {
      return at.find(kPartitionMapFileName) != std::string_view::npos
                 ? Status::Internal("injected crash at " + std::string(at))
                 : Status::OK();
    });
    auto st = PartitionedTruthStore::Open(dir, FourWay());
    ASSERT_FALSE(st.ok());
  }
  // Nothing was acknowledged before the PARTMAP existed; the reopen
  // starts clean.
  auto st = PartitionedTruthStore::Open(dir, FourWay());
  ASSERT_TRUE(st.ok()) << st.status().ToString();
  EXPECT_EQ((*st)->num_partitions(), 4u);
  const RawDatabase raw = testing::PaperTable1();
  ASSERT_TRUE(AppendRows(st->get(), raw, 0, raw.NumRows()).ok());
  auto ds = (*st)->Materialize();
  ASSERT_TRUE(ds.ok());
  EXPECT_EQ(ds->raw.NumRows(), raw.NumRows());
}

// TSan storm: one writer, one compactor (with live split/merge
// rebalancing), and two snapshot readers run concurrently across >= 3
// partitions. Readers must see frozen, consistent views throughout; the
// final materialization equals the sequential batch bit for bit.
TEST_F(PartitionedTruthStoreTest, ConcurrentIngestCompactServeStorm) {
  const std::string dir = Dir("storm");
  PartitionedStoreOptions opts;
  opts.partitions = 3;
  opts.initial_boundaries = {"e2", "e5"};
  opts.split_threshold_rows = 40;
  auto st = PartitionedTruthStore::Open(dir, opts);
  ASSERT_TRUE(st.ok());
  const RawDatabase raw = testing::RandomRaw(33);
  const size_t n = raw.NumRows();

  // Seed a quarter of the data so readers have something pinned.
  ASSERT_TRUE(AppendRows(st->get(), raw, 0, n / 4).ok());
  ASSERT_TRUE((*st)->Flush().ok());

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};

  std::thread writer([&] {
    for (size_t i = n / 4; i < n; ++i) {
      if (!AppendRows(st->get(), raw, i, i + 1).ok()) {
        failures.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      if (i % 16 == 15 && !(*st)->Flush().ok()) {
        failures.fetch_add(1, std::memory_order_relaxed);
        return;
      }
    }
  });
  std::thread compactor([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      if (!(*st)->CompactOnce().ok()) {
        failures.fetch_add(1, std::memory_order_relaxed);
        return;
      }
    }
  });
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        const auto pin = (*st)->PinSnapshot();
        const uint64_t epoch = pin->epoch();
        auto ds = (*st)->MaterializeSnapshot(*pin);
        auto may = (*st)->SnapshotFactMayExist(*pin, "e1", "a100");
        if (!ds.ok() || !may.ok() || pin->epoch() != epoch) {
          failures.fetch_add(1, std::memory_order_relaxed);
          return;
        }
      }
    });
  }

  writer.join();
  stop.store(true, std::memory_order_relaxed);
  compactor.join();
  for (std::thread& t : readers) t.join();
  ASSERT_EQ(failures.load(), 0);

  auto ds = (*st)->Materialize();
  ASSERT_TRUE(ds.ok());
  ExpectSameClaimData(Dataset::FromRaw("batch", testing::RandomRaw(33)), *ds);
  st->reset();
  auto report = PartitionedTruthStore::Verify(dir);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->ok()) << report->Summary();
}

}  // namespace
}  // namespace store
}  // namespace ltm
