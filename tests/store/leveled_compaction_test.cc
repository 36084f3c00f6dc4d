#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <tuple>
#include <vector>

#include "common/failpoint.h"
#include "store/child_store_util.h"
#include "store/truth_store.h"
#include "test_util.h"

namespace ltm {
namespace store {
namespace {

namespace fs = std::filesystem;

/// The raw triples of a materialization, in replay order — claim-data
/// equality in this order implies bit-identical posteriors downstream.
std::vector<std::tuple<std::string, std::string, std::string>> Triples(
    const Dataset& ds) {
  std::vector<std::tuple<std::string, std::string, std::string>> out;
  for (const RawRow& row : ds.raw.rows()) {
    out.emplace_back(std::string(ds.raw.entities().Get(row.entity)),
                     std::string(ds.raw.attributes().Get(row.attribute)),
                     std::string(ds.raw.sources().Get(row.source)));
  }
  return out;
}

class LeveledCompactionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = ::testing::TempDir() + "/leveled_compaction_test_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name();
    fs::remove_all(root_);
    fs::create_directories(root_);
  }

  void TearDown() override { SetFailpointHandler(nullptr); }

  std::string Dir(const std::string& name) { return root_ + "/" + name; }

  std::string root_;
};

TEST_F(LeveledCompactionTest, L0TriggerGatesCompactOnce) {
  TruthStoreOptions options;
  options.l0_compaction_trigger = 4;
  auto st = TruthStore::Open(Dir("trigger"), options);
  ASSERT_TRUE(st.ok());
  const RawDatabase raw = testing::RandomRaw(41);
  const size_t n = raw.NumRows();

  for (size_t chunk = 0; chunk < 3; ++chunk) {
    ASSERT_TRUE(
        AppendRows(st->get(), raw, chunk * n / 4, (chunk + 1) * n / 4).ok());
    ASSERT_TRUE((*st)->Flush().ok());
  }
  // Three L0 segments: below the trigger, no level over budget.
  auto did = (*st)->CompactOnce();
  ASSERT_TRUE(did.ok()) << did.status().ToString();
  EXPECT_FALSE(*did);
  EXPECT_EQ((*st)->Stats().l0_segments, 3u);

  ASSERT_TRUE(AppendRows(st->get(), raw, 3 * n / 4, n).ok());
  ASSERT_TRUE((*st)->Flush().ok());
  did = (*st)->CompactOnce();
  ASSERT_TRUE(did.ok());
  EXPECT_TRUE(*did);

  TruthStoreStats stats = (*st)->Stats();
  EXPECT_EQ(stats.l0_segments, 0u);
  EXPECT_EQ(stats.max_level, 1u);
  EXPECT_EQ(stats.compaction.compactions, 1u);
  EXPECT_EQ(stats.compaction.input_segments, 4u);
  EXPECT_GT(stats.compaction.bytes_read, 0u);
  EXPECT_GT(stats.compaction.bytes_written, 0u);

  auto ds = MaterializeChild(**st);
  ASSERT_TRUE(ds.ok());
  EXPECT_EQ(Triples(*ds),
            Triples(Dataset::FromRaw("batch", testing::RandomRaw(41))));
  auto report = TruthStore::Verify(Dir("trigger"));
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->max_level, 1u);
}

TEST_F(LeveledCompactionTest, LeveledStateRoundTripsReopenBitIdentical) {
  const std::string dir = Dir("reopen");
  TruthStoreOptions options;
  options.l0_compaction_trigger = 2;
  const RawDatabase raw = testing::RandomRaw(42);
  const size_t n = raw.NumRows();
  {
    auto st = TruthStore::Open(dir, options);
    ASSERT_TRUE(st.ok());
    // Interleave flushes and leveled steps so several compaction
    // generations land in the manifest edit log.
    for (size_t chunk = 0; chunk < 6; ++chunk) {
      ASSERT_TRUE(
          AppendRows(st->get(), raw, chunk * n / 6, (chunk + 1) * n / 6)
              .ok());
      ASSERT_TRUE((*st)->Flush().ok());
      auto did = (*st)->CompactOnce();
      ASSERT_TRUE(did.ok()) << did.status().ToString();
    }
    EXPECT_GE((*st)->Stats().max_level, 1u);
  }  // close and reopen

  auto reopened = TruthStore::Open(dir, options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  auto ds = MaterializeChild(**reopened);
  ASSERT_TRUE(ds.ok());
  EXPECT_EQ(Triples(*ds),
            Triples(Dataset::FromRaw("batch", testing::RandomRaw(42))));
  auto report = TruthStore::Verify(dir);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
}

TEST_F(LeveledCompactionTest, OverBudgetLevelSpillsByTrivialMoveWithoutIo) {
  TruthStoreOptions options;
  options.l0_compaction_trigger = 2;
  options.level_base_bytes = 1;  // every populated level is over budget
  auto st = TruthStore::Open(Dir("move"), options);
  ASSERT_TRUE(st.ok());
  const RawDatabase raw = testing::RandomRaw(43);
  const size_t n = raw.NumRows();
  ASSERT_TRUE(AppendRows(st->get(), raw, 0, n / 2).ok());
  ASSERT_TRUE((*st)->Flush().ok());
  ASSERT_TRUE(AppendRows(st->get(), raw, n / 2, n).ok());
  ASSERT_TRUE((*st)->Flush().ok());

  // Step 1: the L0 trigger fires and merges into L1 (a real rewrite).
  auto did = (*st)->CompactOnce();
  ASSERT_TRUE(did.ok());
  ASSERT_TRUE(*did);
  const CompactionStats after_merge = (*st)->Stats().compaction;
  const std::vector<SegmentInfo> before = (*st)->segments();
  ASSERT_FALSE(before.empty());

  // Step 2: L1 exceeds its (1-byte) budget and L2 is empty, so the spill
  // has no next-level overlap — the segment relinks without rewriting.
  did = (*st)->CompactOnce();
  ASSERT_TRUE(did.ok());
  ASSERT_TRUE(*did);
  const TruthStoreStats stats = (*st)->Stats();
  EXPECT_EQ(stats.compaction.trivial_moves, after_merge.trivial_moves + 1);
  EXPECT_EQ(stats.compaction.bytes_written, after_merge.bytes_written);
  EXPECT_EQ(stats.compaction.bytes_read, after_merge.bytes_read);

  // Same id, same file, deeper level.
  const std::vector<SegmentInfo> after = (*st)->segments();
  ASSERT_EQ(after.size(), before.size());
  bool moved = false;
  for (const SegmentInfo& seg : after) {
    for (const SegmentInfo& old : before) {
      if (seg.id != old.id) continue;
      EXPECT_EQ(seg.file, old.file);
      if (seg.level > old.level) moved = true;
    }
  }
  EXPECT_TRUE(moved);

  auto ds = MaterializeChild(**st);
  ASSERT_TRUE(ds.ok());
  EXPECT_EQ(Triples(*ds),
            Triples(Dataset::FromRaw("batch", testing::RandomRaw(43))));
  auto report = TruthStore::Verify(Dir("move"));
  ASSERT_TRUE(report.ok()) << report.status().ToString();
}

TEST_F(LeveledCompactionTest, DuplicateSourceRowsCollapseWithoutChangingData) {
  auto st = TruthStore::Open(Dir("dedup"));
  ASSERT_TRUE(st.ok());
  // The same (entity, attribute, source) triple lands in two segments —
  // re-asserted evidence, not new evidence.
  ASSERT_TRUE(
      AppendNext(st->get(), WalRecord{"apple", "color", "s1", 1}).ok());
  ASSERT_TRUE(
      AppendNext(st->get(), WalRecord{"banana", "color", "s1", 1}).ok());
  ASSERT_TRUE((*st)->Flush().ok());
  ASSERT_TRUE(
      AppendNext(st->get(), WalRecord{"apple", "color", "s1", 1}).ok());
  ASSERT_TRUE(
      AppendNext(st->get(), WalRecord{"apple", "color", "s2", 1}).ok());
  ASSERT_TRUE((*st)->Flush().ok());

  auto before = MaterializeChild(**st);
  ASSERT_TRUE(before.ok());

  ASSERT_TRUE((*st)->Compact().ok());
  EXPECT_EQ((*st)->Stats().compaction.rows_dropped, 1u);
  EXPECT_EQ((*st)->Stats().segment_rows, 3u);  // the duplicate is gone

  // Materialization already deduped (RawDatabase is a set), so the
  // physical drop must not change what readers see.
  auto after = MaterializeChild(**st);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(Triples(*after), Triples(*before));
}

// Satellite: crash recovery at the two durability boundaries this format
// introduced — mid-block-write inside a segment, and the manifest edit
// append after the segment is fully on disk. Reopen must land on exactly
// the pre-operation state plus the WAL tail, with orphans reaped.
TEST_F(LeveledCompactionTest, ReopenAfterCrashAtNewBoundariesIsBitIdentical) {
  const RawDatabase raw = testing::RandomRaw(44);
  const size_t n = raw.NumRows();
  const auto batch_triples =
      Triples(Dataset::FromRaw("batch", testing::RandomRaw(44)));

  struct CrashCase {
    const char* point;
    bool during_compact;  // else during the third flush
  };
  const std::vector<CrashCase> cases = {
      {"segment-block-write", false},
      {"manifest-edit-append", false},
      {"segment-block-write", true},
      {"manifest-edit-append", true},
  };
  TruthStoreOptions options;
  options.l0_compaction_trigger = 2;
  for (size_t c = 0; c < cases.size(); ++c) {
    SCOPED_TRACE("crash case " + std::to_string(c) + " at " +
                 cases[c].point);
    const std::string dir = Dir("crash_" + std::to_string(c));
    {
      auto st = TruthStore::Open(dir, options);
      ASSERT_TRUE(st.ok());
      ASSERT_TRUE(AppendRows(st->get(), raw, 0, n / 3).ok());
      ASSERT_TRUE((*st)->Flush().ok());
      ASSERT_TRUE(AppendRows(st->get(), raw, n / 3, 2 * n / 3).ok());
      ASSERT_TRUE((*st)->Flush().ok());
      ASSERT_TRUE(AppendRows(st->get(), raw, 2 * n / 3, n).ok());

      const std::string point = cases[c].point;
      ScopedFailpoint crash([point](std::string_view at) {
        return at.find(point) != std::string_view::npos
                   ? Status::Internal("injected crash at " + std::string(at))
                   : Status::OK();
      });
      Status st_op;
      if (cases[c].during_compact) {
        st_op = (*st)->CompactOnce().status();
      } else {
        st_op = (*st)->Flush();
      }
      ASSERT_FALSE(st_op.ok());
      // Discarded without cleanup — the directory is what a SIGKILL at
      // the failpoint leaves behind.
    }
    auto st = TruthStore::Open(dir, options);
    ASSERT_TRUE(st.ok()) << st.status().ToString();
    auto ds = MaterializeChild(**st);
    ASSERT_TRUE(ds.ok()) << ds.status().ToString();
    EXPECT_EQ(Triples(*ds), batch_triples);
    // Recovery reaped any torn segment the crash left behind.
    auto report = TruthStore::Verify(dir);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_TRUE(report->orphan_files.empty());
  }
}

// Satellite: a compaction that dies mid-way while an EpochPin is live
// must leave the pinned view readable and unchanged; after the retry
// succeeds, the superseded files stay deferred until the pin drops, then
// are reclaimed.
TEST_F(LeveledCompactionTest, MidCompactionCrashWithActivePinDefersFiles) {
  const std::string dir = Dir("pin_crash");
  TruthStoreOptions options;
  options.l0_compaction_trigger = 2;
  auto st = TruthStore::Open(dir, options);
  ASSERT_TRUE(st.ok());
  const RawDatabase raw = testing::RandomRaw(45);
  const size_t n = raw.NumRows();
  ASSERT_TRUE(AppendRows(st->get(), raw, 0, n / 2).ok());
  ASSERT_TRUE((*st)->Flush().ok());
  ASSERT_TRUE(AppendRows(st->get(), raw, n / 2, n).ok());
  ASSERT_TRUE((*st)->Flush().ok());

  auto pin = (*st)->PinEpoch();
  auto baseline = PinnedDataset(**st, *pin);
  ASSERT_TRUE(baseline.ok());
  std::vector<std::string> pinned_files;
  for (const SegmentInfo& seg : pin->segments()) {
    pinned_files.push_back(dir + "/" + seg.file);
  }
  ASSERT_EQ(pinned_files.size(), 2u);

  {
    ScopedFailpoint crash([](std::string_view at) {
      return at.find("store-compact-segment-written") != std::string_view::npos
                 ? Status::Internal("injected crash")
                 : Status::OK();
    });
    ASSERT_FALSE((*st)->CompactOnce().ok());
  }
  // The failed merge committed nothing: the pinned view is untouched.
  auto after_crash = PinnedDataset(**st, *pin);
  ASSERT_TRUE(after_crash.ok());
  EXPECT_EQ(Triples(*after_crash), Triples(*baseline));

  // The retry succeeds (the failed attempt released its exclusivity) and
  // supersedes both pinned L0 segments — deferred, not deleted.
  auto did = (*st)->CompactOnce();
  ASSERT_TRUE(did.ok()) << did.status().ToString();
  ASSERT_TRUE(*did);
  EXPECT_EQ((*st)->num_deferred_segments(), 2u);
  for (const std::string& path : pinned_files) {
    EXPECT_TRUE(fs::exists(path)) << path;
  }
  auto after_compact = PinnedDataset(**st, *pin);
  ASSERT_TRUE(after_compact.ok());
  EXPECT_EQ(Triples(*after_compact), Triples(*baseline));

  // Dropping the last pin reclaims the deferred files.
  pin.reset();
  EXPECT_EQ((*st)->num_deferred_segments(), 0u);
  for (const std::string& path : pinned_files) {
    EXPECT_FALSE(fs::exists(path)) << path;
  }
  auto ds = MaterializeChild(**st);
  ASSERT_TRUE(ds.ok());
  EXPECT_EQ(Triples(*ds), Triples(*baseline));
  auto report = TruthStore::Verify(dir);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
}

}  // namespace
}  // namespace store
}  // namespace ltm
