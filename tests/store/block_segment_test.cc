#include "store/segment.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "store/block_cache.h"
#include "store/block_format.h"
#include "store/child_store_util.h"
#include "store/truth_store.h"
#include "test_util.h"

namespace ltm {
namespace store {
namespace {

namespace fs = std::filesystem;

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Views of `rows` for the writer (valid while `rows` is).
std::vector<RowView> Views(const std::vector<SegmentRow>& rows) {
  std::vector<RowView> views;
  for (const SegmentRow& row : rows) views.push_back(ViewOf(row));
  return views;
}

/// The reader's range scan, copied out of its views.
Status ScanCopy(const BlockSegmentReader& reader, const std::string* min_entity,
                const std::string* max_entity, BlockCache* cache,
                BlockSegmentReader::ReadStats* stats,
                std::vector<SegmentRow>* out) {
  RowViews views;
  LTM_RETURN_IF_ERROR(
      reader.ScanRowsInRange(min_entity, max_entity, cache, stats, &views));
  for (const RowView& row : views.rows) out->push_back(CopyRow(row));
  return Status::OK();
}

/// Rows over `num_entities` shared-prefix entities x `attrs_per` attributes,
/// already in SegmentRowOrder (entity, attribute, seq).
std::vector<SegmentRow> MakeRows(size_t num_entities, size_t attrs_per,
                                 uint64_t first_seq = 1) {
  std::vector<SegmentRow> rows;
  uint64_t seq = first_seq;
  for (size_t e = 0; e < num_entities; ++e) {
    char entity[32];
    std::snprintf(entity, sizeof(entity), "movie-%05zu", e);
    for (size_t a = 0; a < attrs_per; ++a) {
      SegmentRow row;
      row.entity = entity;
      row.attribute = "attr-" + std::to_string(a);
      row.source = "source-" + std::to_string((e + a) % 3);
      row.seq = seq++;
      row.observation = 1;
      rows.push_back(std::move(row));
    }
  }
  return rows;
}

class BlockSegmentTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/block_segment_test_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }

  std::string Path(const std::string& name) { return dir_ + "/" + name; }

  std::string dir_;
};

TEST_F(BlockSegmentTest, BlockBuilderRoundTripsAndPrefixCompresses) {
  const std::vector<SegmentRow> rows = MakeRows(40, 2);
  BlockBuilder builder(/*restart_interval=*/8);
  size_t raw_bytes = 0;
  for (const SegmentRow& row : rows) {
    builder.Add(ViewOf(row));
    raw_bytes += row.entity.size() + row.attribute.size() + row.source.size();
  }
  const std::string block = builder.Finish();

  // All 40 entities share the "movie-000" prefix; the restart encoding
  // must beat storing every key in full.
  EXPECT_LT(block.size(), raw_bytes);

  auto decoded = DecodeBlockRows(block, "test-block");
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(*decoded, rows);

  // Cursor iteration sees the same rows one at a time.
  auto cursor = BlockCursor::Parse(block, "test-block");
  ASSERT_TRUE(cursor.ok());
  size_t i = 0;
  RowView row;
  while (true) {
    auto more = cursor->Next(&row);
    ASSERT_TRUE(more.ok()) << more.status().ToString();
    if (!*more) break;
    ASSERT_LT(i, rows.size());
    EXPECT_EQ(CopyRow(row), rows[i]);
    ++i;
  }
  EXPECT_EQ(i, rows.size());
}

TEST_F(BlockSegmentTest, WriteThenParsePreservesRowsAndZoneStats) {
  const std::vector<SegmentRow> rows = MakeRows(64, 3, /*first_seq=*/100);
  BlockSegmentWriterOptions options;
  options.block_size_bytes = 512;  // force a multi-block file
  const std::string path = Path("seg.blk");
  auto info = WriteBlockSegment(path, Views(rows), options);
  ASSERT_TRUE(info.ok()) << info.status().ToString();

  EXPECT_EQ(info->num_rows, rows.size());
  EXPECT_EQ(info->num_facts, 64u * 3u);
  EXPECT_EQ(info->num_sources, 3u);
  EXPECT_EQ(info->num_positive, rows.size());
  EXPECT_EQ(info->min_entity, "movie-00000");
  EXPECT_EQ(info->max_entity, "movie-00063");
  EXPECT_EQ(info->min_seq, 100u);
  EXPECT_EQ(info->max_seq, 100u + rows.size() - 1);
  EXPECT_GT(info->num_blocks, 1u);
  EXPECT_EQ(info->file_bytes, fs::file_size(path));

  auto parsed = ParseBlockSegmentFromBytes(ReadFile(path), "test");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->rows, rows);
  EXPECT_EQ(parsed->footer.num_rows, rows.size());
  EXPECT_EQ(parsed->footer.num_blocks, info->num_blocks);
  EXPECT_EQ(parsed->blocks.size(), info->num_blocks);
  EXPECT_EQ(parsed->footer.bloom_bits_per_key, options.bloom_bits_per_key);

  // Index key ranges tile the row space in order.
  EXPECT_EQ(parsed->blocks.front().first_entity, "movie-00000");
  EXPECT_EQ(parsed->blocks.back().last_entity, "movie-00063");
}

TEST_F(BlockSegmentTest, ReaderSelectsOnlyOverlappingBlocks) {
  const std::vector<SegmentRow> rows = MakeRows(64, 3);
  BlockSegmentWriterOptions options;
  options.block_size_bytes = 512;
  const std::string path = Path("seg.blk");
  auto info = WriteBlockSegment(path, Views(rows), options);
  ASSERT_TRUE(info.ok());
  ASSERT_GT(info->num_blocks, 2u);

  auto reader = BlockSegmentReader::Open(path, /*cache_id=*/7);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  EXPECT_EQ((*reader)->cache_id(), 7u);

  // Unbounded read returns every row (in key order here — the input was
  // already key-ordered) and touches every block.
  BlockSegmentReader::ReadStats stats;
  std::vector<SegmentRow> out;
  ASSERT_TRUE(ScanCopy(**reader, nullptr, nullptr, nullptr, &stats, &out)
                  .ok());
  EXPECT_EQ(out, rows);
  EXPECT_EQ(stats.blocks_read, info->num_blocks);
  EXPECT_EQ(stats.blocks_from_cache, 0u);
  EXPECT_GT(stats.bytes_read, 0u);

  // A single-entity read is index-selected down to one block.
  const std::string key = "movie-00031";
  stats = BlockSegmentReader::ReadStats();
  out.clear();
  ASSERT_TRUE(
      ScanCopy(**reader, &key, &key, nullptr, &stats, &out).ok());
  EXPECT_EQ(out.size(), 3u);
  for (const SegmentRow& row : out) EXPECT_EQ(row.entity, key);
  EXPECT_EQ(stats.blocks_read, 1u);

  // A disjoint range reads nothing.
  const std::string lo = "zzz", hi = "zzzz";
  stats = BlockSegmentReader::ReadStats();
  out.clear();
  ASSERT_TRUE(
      ScanCopy(**reader, &lo, &hi, nullptr, &stats, &out).ok());
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(stats.blocks_read, 0u);
}

TEST_F(BlockSegmentTest, BlockCacheServesRepeatReadsWithoutDiskBytes) {
  const std::vector<SegmentRow> rows = MakeRows(64, 3);
  BlockSegmentWriterOptions options;
  options.block_size_bytes = 512;
  const std::string path = Path("seg.blk");
  ASSERT_TRUE(WriteBlockSegment(path, Views(rows), options).ok());
  auto reader = BlockSegmentReader::Open(path, /*cache_id=*/1);
  ASSERT_TRUE(reader.ok());

  BlockCache cache(1 << 20);
  BlockSegmentReader::ReadStats cold;
  std::vector<SegmentRow> out;
  ASSERT_TRUE(ScanCopy(**reader, nullptr, nullptr, &cache, &cold, &out)
                  .ok());
  EXPECT_EQ(cold.blocks_from_cache, 0u);
  EXPECT_GT(cold.bytes_read, 0u);

  BlockSegmentReader::ReadStats warm;
  std::vector<SegmentRow> again;
  ASSERT_TRUE(ScanCopy(**reader, nullptr, nullptr, &cache, &warm, &again)
                  .ok());
  EXPECT_EQ(again, out);
  EXPECT_EQ(warm.blocks_read, cold.blocks_read);
  EXPECT_EQ(warm.blocks_from_cache, warm.blocks_read);
  EXPECT_EQ(warm.bytes_read, 0u);
}

TEST_F(BlockSegmentTest, BloomHasNoFalseNegativesAndFewFalsePositives) {
  const std::vector<SegmentRow> rows = MakeRows(128, 2);
  const std::string path = Path("seg.blk");
  ASSERT_TRUE(
      WriteBlockSegment(path, Views(rows), BlockSegmentWriterOptions()).ok());
  auto reader = BlockSegmentReader::Open(path, 1);
  ASSERT_TRUE(reader.ok());

  for (const SegmentRow& row : rows) {
    EXPECT_TRUE((*reader)->MayContainEntity(row.entity));
    EXPECT_TRUE((*reader)->MayContainFact(row.entity, row.attribute));
  }
  // At 10 bits/key the false-positive rate is ~1%; 1000 absent probes
  // must come back overwhelmingly negative.
  size_t positives = 0;
  for (int p = 0; p < 1000; ++p) {
    if ((*reader)->MayContainFact("absent-" + std::to_string(p), "x")) {
      ++positives;
    }
  }
  EXPECT_LT(positives, 100u);

  // bloom_bits_per_key = 0 disables the filter: probes degrade to
  // "maybe" (true), never to a false negative.
  BlockSegmentWriterOptions no_bloom;
  no_bloom.bloom_bits_per_key = 0;
  const std::string path2 = Path("no_bloom.blk");
  ASSERT_TRUE(WriteBlockSegment(path2, Views(rows), no_bloom).ok());
  auto plain = BlockSegmentReader::Open(path2, 2);
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ((*plain)->footer().bloom_size, 0u);
  EXPECT_TRUE((*plain)->MayContainEntity("definitely-absent"));
  EXPECT_TRUE((*plain)->MayContainFact("definitely-absent", "x"));
}

// Seek lands on the first row of every entity, whichever restart
// interval it starts in, and on the next entity for a key between two.
TEST_F(BlockSegmentTest, SeekFindsEveryEntityThroughTheRestartArray) {
  const std::vector<SegmentRow> rows = MakeRows(40, 3);
  for (const size_t interval : {1u, 2u, 5u, 16u}) {
    BlockBuilder builder(interval);
    for (const SegmentRow& row : rows) builder.Add(ViewOf(row));
    const std::string block = builder.Finish();
    for (size_t i = 0; i < rows.size(); i += 3) {
      auto cursor = BlockCursor::Parse(block, "test-block");
      ASSERT_TRUE(cursor.ok());
      RowView row;
      auto found = cursor->Seek(rows[i].entity, &row);
      ASSERT_TRUE(found.ok()) << found.status().ToString();
      ASSERT_TRUE(*found);
      EXPECT_EQ(CopyRow(row), rows[i]) << "interval " << interval;
      // Next() continues with the entity's remaining rows.
      for (size_t j = i + 1; j < rows.size(); ++j) {
        auto more = cursor->Next(&row);
        ASSERT_TRUE(more.ok() && *more);
        EXPECT_EQ(CopyRow(row), rows[j]);
      }
      // A key between this entity and the next seeks to the next one.
      auto between = BlockCursor::Parse(block, "test-block");
      auto next = between->Seek(rows[i].entity + "!", &row);
      ASSERT_TRUE(next.ok());
      if (i + 3 < rows.size()) {
        ASSERT_TRUE(*next);
        EXPECT_EQ(row.entity, rows[i + 3].entity);
      } else {
        EXPECT_FALSE(*next);
      }
    }
  }
}

/// Hand-encoded block over `entities` (restart every second entry), with
/// the restart array replaced by `restarts` when non-empty. `offsets`
/// receives each entry's byte offset.
std::string ForgedBlock(const std::vector<std::string>& entities,
                        std::vector<uint32_t> restarts,
                        std::vector<uint32_t>* offsets) {
  std::string body;
  std::vector<uint32_t> valid;
  std::string prev;
  for (size_t i = 0; i < entities.size(); ++i) {
    const std::string& entity = entities[i];
    size_t shared = 0;
    if (i % 2 == 1) {
      while (shared < std::min(prev.size(), entity.size()) &&
             prev[shared] == entity[shared]) {
        ++shared;
      }
    } else {
      valid.push_back(static_cast<uint32_t>(body.size()));
    }
    offsets->push_back(static_cast<uint32_t>(body.size()));
    PutVarint32(&body, static_cast<uint32_t>(shared));
    PutVarint32(&body, static_cast<uint32_t>(entity.size() - shared));
    body.append(entity, shared);
    PutVarint32(&body, 1);
    body += "a";
    PutVarint32(&body, 1);
    body += "s";
    PutVarint64(&body, i + 1);
    body.push_back(1);
    prev = entity;
  }
  if (restarts.empty()) restarts = valid;
  for (const uint32_t r : restarts) {
    body.append(reinterpret_cast<const char*>(&r), sizeof(r));
  }
  const uint32_t count = static_cast<uint32_t>(restarts.size());
  body.append(reinterpret_cast<const char*>(&count), sizeof(count));
  return body;
}

// A restart entry must store its entity whole (shared == 0) and every
// restart offset must start an entry: both forgeries fail the seek and
// the sequential decode with a Status (the fuzz corpus carries the same
// two blocks).
TEST_F(BlockSegmentTest, ForgedRestartPointsAreRejected) {
  const std::vector<std::string> entities = {"alpha", "alpine", "beta",
                                             "betamax", "gamma"};
  std::vector<uint32_t> offsets;
  const std::string valid = ForgedBlock(entities, {}, &offsets);
  ASSERT_TRUE(DecodeBlockRows(valid, "valid").ok());

  std::vector<uint32_t> unused;
  const std::string shared_restart = ForgedBlock(
      entities, {offsets[0], offsets[1], offsets[4]}, &unused);
  const std::string mid_entry = ForgedBlock(
      entities, {offsets[0], offsets[2] + 1, offsets[4]}, &unused);
  // A restart inside the last entry is never crossed on the way to the
  // block's end; the decode still rejects it there.
  const std::string mid_last_entry = ForgedBlock(
      entities, {offsets[0], offsets[2], offsets[4] + 1}, &unused);
  for (const auto& [forged, probe] :
       {std::pair{shared_restart, "beta"}, std::pair{mid_entry, "beta"},
        std::pair{mid_last_entry, "gamma"}}) {
    EXPECT_EQ(DecodeBlockRows(forged, "forged").status().code(),
              StatusCode::kInvalidArgument);
    auto cursor = BlockCursor::Parse(forged, "forged");
    ASSERT_TRUE(cursor.ok());  // the trailer itself is well formed
    RowView row;
    EXPECT_EQ(cursor->Seek(probe, &row).status().code(),
              StatusCode::kInvalidArgument)
        << probe;
  }
}

TEST_F(BlockSegmentTest, CorruptBytesAreRejectedWithAStatus) {
  const std::vector<SegmentRow> rows = MakeRows(64, 3);
  BlockSegmentWriterOptions options;
  options.block_size_bytes = 512;
  const std::string path = Path("seg.blk");
  ASSERT_TRUE(WriteBlockSegment(path, Views(rows), options).ok());
  const std::string good = ReadFile(path);

  EXPECT_FALSE(ParseBlockSegmentFromBytes("", "t").ok());
  EXPECT_FALSE(ParseBlockSegmentFromBytes("short", "t").ok());

  // Torn footer — the tail a mid-write crash leaves.
  EXPECT_FALSE(
      ParseBlockSegmentFromBytes(good.substr(0, good.size() - 13), "t").ok());

  // Bad magic (last footer bytes).
  std::string bad_magic = good;
  bad_magic[bad_magic.size() - 1] ^= 0x5A;
  EXPECT_FALSE(ParseBlockSegmentFromBytes(bad_magic, "t").ok());

  // A flipped data byte fails the per-block checksum.
  std::string bad_block = good;
  bad_block[0] ^= 0x01;
  EXPECT_FALSE(ParseBlockSegmentFromBytes(bad_block, "t").ok());

  // Footer counts/offsets blasted to 0xFF must fail fast (allocation
  // bomb), not reserve terabytes.
  std::string bomb = good;
  for (size_t i = bomb.size() - kSegmentFooterSize; i < bomb.size() - 4; ++i) {
    bomb[i] = '\xff';
  }
  EXPECT_FALSE(ParseBlockSegmentFromBytes(bomb, "t").ok());

  // The random-access reader catches a corrupt data block on the read
  // path: Open verifies only footer/index/bloom, so it succeeds, and the
  // block read fails its index checksum.
  const std::string bad_path = Path("bad_block.blk");
  WriteFile(bad_path, bad_block);
  auto reader = BlockSegmentReader::Open(bad_path, 1);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  BlockSegmentReader::ReadStats stats;
  auto block = (*reader)->ReadBlock(0, nullptr, &stats);
  EXPECT_FALSE(block.ok());
}

// The read-path acceptance pin: with >= 8 segments on disk, a point fact
// lookup resolves via zone stats + bloom + block index and decodes
// exactly ONE data block.
TEST_F(BlockSegmentTest, PointLookupOnEightSegmentStoreReadsOneBlock) {
  TruthStoreOptions options;
  options.block_size_bytes = 512;  // several blocks per segment
  auto store = TruthStore::Open(Path("store"), options);
  ASSERT_TRUE(store.ok()) << store.status().ToString();

  // 8 flushed segments over disjoint entity ranges, as leveled
  // compaction would converge to.
  const size_t kSegments = 8, kEntities = 32;
  for (size_t seg = 0; seg < kSegments; ++seg) {
    for (size_t e = 0; e < kEntities; ++e) {
      char entity[32];
      std::snprintf(entity, sizeof(entity), "movie-%05zu",
                    seg * kEntities + e);
      for (int a = 0; a < 2; ++a) {
        ASSERT_TRUE(AppendNext(store->get(),
                               WalRecord{entity, "attr-" + std::to_string(a),
                                         "source-" + std::to_string(a), 1})
                        .ok());
      }
    }
    ASSERT_TRUE((*store)->Flush().ok());
  }
  ASSERT_GE((*store)->Stats().num_segments, 8u);
  for (const SegmentInfo& seg : (*store)->segments()) {
    ASSERT_GT(seg.num_blocks, 1u);  // one block per segment would be vacuous
  }

  const auto pin = (*store)->PinEpoch();
  const std::string key = "movie-00100";  // lives in segment 4 of 8
  RangeScanStats rs;
  auto slice = PinnedDataset(**store, *pin, &key, &key, &rs);
  ASSERT_TRUE(slice.ok()) << slice.status().ToString();
  EXPECT_EQ(slice->raw.NumRows(), 2u);
  EXPECT_EQ(slice->raw.NumEntities(), 1u);

  EXPECT_EQ(rs.blocks_read, 1u);  // the O(1-block) guarantee
  EXPECT_EQ(rs.segments_scanned, 1u);
  EXPECT_EQ(rs.segments_skipped + rs.segments_skipped_bloom, kSegments - 1);
  EXPECT_GT(rs.bytes_read, 0u);

  // The same lookup again is served from the block cache: one block
  // decoded, zero disk bytes.
  RangeScanStats warm;
  auto again = PinnedDataset(**store, *pin, &key, &key, &warm);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(warm.blocks_read, 1u);
  EXPECT_EQ(warm.block_cache_hits, 1u);
  EXPECT_EQ(warm.bytes_read, 0u);
}

TEST_F(BlockSegmentTest, PinnedFactMayExistAnswersFromBloomsAlone) {
  auto store = TruthStore::Open(Path("store"));
  ASSERT_TRUE(store.ok());
  for (const char* e : {"apple", "banana"}) {
    ASSERT_TRUE(AppendNext(store->get(), WalRecord{e, "color", "s1", 1}).ok());
  }
  ASSERT_TRUE((*store)->Flush().ok());
  for (const char* e : {"cherry", "damson"}) {
    ASSERT_TRUE(AppendNext(store->get(), WalRecord{e, "color", "s1", 1}).ok());
  }
  ASSERT_TRUE((*store)->Flush().ok());

  const auto pin = (*store)->PinEpoch();
  auto present = (*store)->PinnedFactMayExist(*pin, "cherry", "color");
  ASSERT_TRUE(present.ok());
  EXPECT_TRUE(*present);

  const uint64_t skips_before = (*store)->Stats().bloom_point_skips;
  auto absent = (*store)->PinnedFactMayExist(*pin, "cherry", "weight");
  ASSERT_TRUE(absent.ok());
  EXPECT_FALSE(*absent);
  EXPECT_GT((*store)->Stats().bloom_point_skips, skips_before);

  // Memtable rows are visible to the probe before any flush.
  ASSERT_TRUE(
      AppendNext(store->get(), WalRecord{"elder", "color", "s1", 1}).ok());
  const auto pin2 = (*store)->PinEpoch();
  auto memtable_hit = (*store)->PinnedFactMayExist(*pin2, "elder", "color");
  ASSERT_TRUE(memtable_hit.ok());
  EXPECT_TRUE(*memtable_hit);
}

}  // namespace
}  // namespace store
}  // namespace ltm
