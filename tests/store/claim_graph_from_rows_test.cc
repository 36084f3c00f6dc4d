#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "data/claim_graph.h"
#include "data/dataset.h"
#include "store/partitioned_store.h"
#include "store/truth_store.h"
#include "truth/ltm.h"

namespace ltm {
namespace store {
namespace {

namespace fs = std::filesystem;

/// One LTM fit of `graph` with the given kernel: posteriors and quality.
struct Fit {
  std::vector<double> probability;
  std::vector<double> sensitivity;
  std::vector<double> specificity;
};

Fit FitGraph(const ClaimGraph& graph, LtmKernel kernel) {
  LtmOptions opts = LtmOptions::ScaledDefaults(graph.NumFacts());
  opts.iterations = 30;
  opts.burnin = 5;
  opts.seed = 11;
  opts.kernel = kernel;
  RunContext ctx;
  ctx.with_quality = true;
  Result<TruthResult> run =
      LatentTruthModel(opts).Run(ctx, FactTable(), graph);
  EXPECT_TRUE(run.ok()) << run.status().ToString();
  if (!run.ok()) return {};
  return {run->estimate.probability, run->quality->sensitivity,
          run->quality->specificity};
}

class ClaimGraphFromRowsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/claim_graph_from_rows_test_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    fs::remove_all(dir_);
  }

  std::unique_ptr<PartitionedTruthStore> Open(
      size_t partitions, PartitionedStoreOptions options = {}) {
    options.partitions = partitions;
    if (partitions == 3) options.initial_boundaries = {"e3", "e6"};
    auto store = PartitionedTruthStore::Open(dir_, options);
    EXPECT_TRUE(store.ok()) << store.status().ToString();
    return store.ok() ? std::move(*store) : nullptr;
  }

  /// Builds the store's rows both ways and checks the fast build (over a
  /// key-order read, as RefitFromStore runs it) against the
  /// DatasetFromRows oracle (over a seq-order read): CSR arrays, source
  /// count and names, and bit-identical fused and reference fits.
  /// Returns the row count read.
  size_t ExpectMatchesOracle(const PartitionedTruthStore& store) {
    const std::unique_ptr<StorePin> pin = store.PinSnapshot();
    Result<RowViews> rows = store.ReadRowsAt(*pin, nullptr, nullptr);
    EXPECT_TRUE(rows.ok()) << rows.status().ToString();
    if (!rows.ok()) return 0;
    Result<RowViews> keyed =
        store.ReadRowsAt(*pin, nullptr, nullptr, nullptr, RowOrder::kKey);
    EXPECT_TRUE(keyed.ok()) << keyed.status().ToString();
    if (!keyed.ok()) return 0;
    Result<RowGraph> fast = ClaimGraphFromRows(*keyed);
    EXPECT_TRUE(fast.ok()) << fast.status().ToString();
    if (!fast.ok()) return 0;
    const Dataset oracle = DatasetFromRows("oracle", *rows);
    EXPECT_EQ(fast->graph.fact_offsets(), oracle.graph.fact_offsets());
    EXPECT_EQ(fast->graph.fact_claims(), oracle.graph.fact_claims());
    EXPECT_EQ(fast->graph.NumSources(), oracle.graph.NumSources());
    EXPECT_EQ(fast->sources.strings(), oracle.raw.sources().strings());
    if (oracle.graph.NumFacts() > 0) {
      for (const LtmKernel kernel :
           {LtmKernel::kFused, LtmKernel::kReference}) {
        const Fit a = FitGraph(fast->graph, kernel);
        const Fit b = FitGraph(oracle.graph, kernel);
        EXPECT_EQ(a.probability, b.probability);
        EXPECT_EQ(a.sensitivity, b.sensitivity);
        EXPECT_EQ(a.specificity, b.specificity);
      }
    }
    return rows->rows.size();
  }

  std::string dir_;
};

/// Distinct (entity, attribute, source) triples among the store's rows.
size_t DistinctTriples(const PartitionedTruthStore& store) {
  const std::unique_ptr<StorePin> pin = store.PinSnapshot();
  Result<RowViews> rows = store.ReadRowsAt(*pin, nullptr, nullptr);
  EXPECT_TRUE(rows.ok());
  std::set<std::tuple<std::string, std::string, std::string>> seen;
  for (const RowView& row : rows->rows) {
    seen.emplace(row.entity, row.attribute, row.source);
  }
  return seen.size();
}

TEST_F(ClaimGraphFromRowsTest, EmptyStore) {
  std::unique_ptr<PartitionedTruthStore> store = Open(1);
  ASSERT_NE(store, nullptr);
  EXPECT_EQ(ExpectMatchesOracle(*store), 0u);
  Result<RowGraph> empty = ClaimGraphFromRows(RowViews());
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(empty->graph.NumFacts(), 0u);
  EXPECT_EQ(empty->graph.NumSources(), 0u);
  EXPECT_TRUE(empty->sources.empty());
}

// A triple appended in two flushes before any compaction sits in two
// segments; the build collapses it the way RawDatabase dedups it.
TEST_F(ClaimGraphFromRowsTest, TripleAppendedInTwoFlushesCollapses) {
  std::unique_ptr<PartitionedTruthStore> store = Open(1);
  ASSERT_NE(store, nullptr);
  RawDatabase first;
  first.Add("e1", "a1", "s1");
  first.Add("e1", "a2", "s2");
  first.Add("e2", "a3", "s1");
  ASSERT_TRUE(store->AppendRaw(first).ok());
  ASSERT_TRUE(store->Flush().ok());
  RawDatabase second;
  second.Add("e1", "a1", "s1");  // the same triple again
  second.Add("e2", "a3", "s3");
  ASSERT_TRUE(store->AppendRaw(second).ok());
  ASSERT_TRUE(store->Flush().ok());
  second.Add("e1", "a2", "s2");  // and once more, left in the memtable
  ASSERT_TRUE(store->AppendRaw(second).ok());

  const size_t rows = ExpectMatchesOracle(*store);
  EXPECT_GT(rows, DistinctTriples(*store));
  const std::unique_ptr<StorePin> pin = store->PinSnapshot();
  Result<RowViews> views =
      store->ReadRowsAt(*pin, nullptr, nullptr, nullptr, RowOrder::kKey);
  ASSERT_TRUE(views.ok());
  Result<RowGraph> built = ClaimGraphFromRows(*views);
  ASSERT_TRUE(built.ok());
  EXPECT_EQ(built->graph.NumPositiveClaims(), DistinctTriples(*store));
}

// Randomized row streams over 1 and 3 partitions: flushed segments and
// memtable rows mixed, repeated triples across flushes, and sources that
// first appear in late chunks.
TEST_F(ClaimGraphFromRowsTest, RandomStreamsMatchDatasetFromRows) {
  const std::string base = dir_;
  for (const size_t partitions : {size_t{1}, size_t{3}}) {
    for (const uint64_t seed : {uint64_t{3}, uint64_t{29}}) {
      SCOPED_TRACE("partitions " + std::to_string(partitions) + ", seed " +
                   std::to_string(seed));
      dir_ = base + "_" + std::to_string(partitions) + "_" +
             std::to_string(seed);
      fs::remove_all(dir_);
      std::unique_ptr<PartitionedTruthStore> store = Open(partitions);
      ASSERT_NE(store, nullptr);
      Rng rng(seed);
      RawDatabase prev;
      for (size_t c = 0; c < 6; ++c) {
        RawDatabase chunk;
        // Chunk c draws from sources s0..s(2c+2): later chunks bring
        // sources no earlier row named.
        const size_t num_sources = 2 * c + 3;
        // Attribute values are shared across entities, as one director
        // directs many movies: a fact is the (entity, attribute) pair.
        for (int i = 0; i < 40; ++i) {
          chunk.Add("e" + std::to_string(rng.UniformInt(12)),
                    "a" + std::to_string(rng.UniformInt(6)),
                    "s" + std::to_string(rng.UniformInt(num_sources)));
        }
        // Re-append a few rows of the previous chunk, already flushed.
        for (int i = 0; i < 5 && prev.NumRows() > 0; ++i) {
          const RawRow& row = prev.rows()[rng.UniformInt(prev.NumRows())];
          chunk.Add(prev.entities().Get(row.entity),
                    prev.attributes().Get(row.attribute),
                    prev.sources().Get(row.source));
        }
        ASSERT_TRUE(store->AppendRaw(chunk).ok());
        // Flush all but the last chunk, so segments and memtable both
        // hold rows at the end.
        if (c + 1 < 6) {
          ASSERT_TRUE(store->Flush().ok());
        }
        prev = std::move(chunk);
        ExpectMatchesOracle(*store);
      }
      EXPECT_GT(ExpectMatchesOracle(*store), DistinctTriples(*store));
    }
  }
}

/// A row's fields as owned values, for comparing reads.
using RowTuple =
    std::tuple<std::string, std::string, std::string, uint64_t, uint8_t>;

std::vector<RowTuple> Tuples(const std::vector<RowView>& rows) {
  std::vector<RowTuple> out;
  out.reserve(rows.size());
  for (const RowView& row : rows) {
    out.emplace_back(row.entity, row.attribute, row.source, row.seq,
                     row.observation);
  }
  return out;
}

/// Every bounded read of `store` (unbounded, one-sided, two-sided, a
/// point read, an empty range) in key order equals the same read in seq
/// order re-sorted by RowViewOrder.
void ExpectKeyReadsMatchSortedSeqReads(const PartitionedTruthStore& store) {
  const std::string e2 = "e2", e4 = "e4", e5 = "e5", e7 = "e7";
  const std::string past = "zz", past_end = "zzz";
  const std::vector<std::pair<const std::string*, const std::string*>>
      ranges = {{nullptr, nullptr}, {nullptr, &e5}, {&e2, nullptr},
                {&e2, &e7},         {&e4, &e4},     {&past, &past_end}};
  const std::unique_ptr<StorePin> pin = store.PinSnapshot();
  for (const auto& [min, max] : ranges) {
    SCOPED_TRACE("range [" + (min ? *min : "-") + ", " + (max ? *max : "-") +
                 "]");
    Result<RowViews> by_seq = store.ReadRowsAt(*pin, min, max);
    Result<RowViews> by_key =
        store.ReadRowsAt(*pin, min, max, nullptr, RowOrder::kKey);
    ASSERT_TRUE(by_seq.ok()) << by_seq.status().ToString();
    ASSERT_TRUE(by_key.ok()) << by_key.status().ToString();
    std::vector<RowView> sorted = by_seq->rows;
    std::sort(sorted.begin(), sorted.end(), RowViewOrder);
    EXPECT_EQ(Tuples(by_key->rows), Tuples(sorted));
    EXPECT_TRUE(std::is_sorted(
        by_seq->rows.begin(), by_seq->rows.end(),
        [](const RowView& a, const RowView& b) { return a.seq < b.seq; }));
  }
}

// The key-order read against the seq-order read over every layout a pin
// can see: overlapping L0 segments, compacted levels, pinned memtable
// rows and a triple appended in two flushes, with 1 and 3 partitions.
TEST_F(ClaimGraphFromRowsTest, KeyOrderReadIsSeqReadSortedByKey) {
  const std::string base = dir_;
  for (const size_t partitions : {size_t{1}, size_t{3}}) {
    SCOPED_TRACE("partitions " + std::to_string(partitions));
    dir_ = base + "_" + std::to_string(partitions);
    fs::remove_all(dir_);
    // Small blocks and segments: compaction writes each level as several
    // disjoint segments, and a scan crosses many blocks.
    PartitionedStoreOptions options;
    options.store.block_size_bytes = 256;
    options.store.segment_target_bytes = 256;
    std::unique_ptr<PartitionedTruthStore> store = Open(partitions, options);
    ASSERT_NE(store, nullptr);
    Rng rng(partitions);
    const auto append_chunk = [&](int rows) {
      RawDatabase chunk;
      for (int i = 0; i < rows; ++i) {
        chunk.Add("e" + std::to_string(rng.UniformInt(9)),
                  "a" + std::to_string(rng.UniformInt(5)),
                  "s" + std::to_string(rng.UniformInt(7)));
      }
      chunk.Add("e4", "a1", "s1");  // the same triple in every chunk
      ASSERT_TRUE(store->AppendRaw(chunk).ok());
    };
    // Three flushes whose entity ranges all overlap: L0 runs to merge.
    for (int c = 0; c < 3; ++c) {
      append_chunk(30);
      ASSERT_TRUE(store->Flush().ok());
    }
    ExpectKeyReadsMatchSortedSeqReads(*store);
    ExpectMatchesOracle(*store);
    // Unflushed rows: the pinned memtable run joins the merge.
    append_chunk(20);
    ExpectKeyReadsMatchSortedSeqReads(*store);
    ExpectMatchesOracle(*store);
    // Compacted into multi-segment levels, then leveled steps that merge
    // fresh L0 segments into them, with L0 and memtable rows on top.
    ASSERT_TRUE(store->Compact().ok());
    ExpectKeyReadsMatchSortedSeqReads(*store);
    for (int c = 0; c < 5; ++c) {
      append_chunk(25);
      ASSERT_TRUE(store->Flush().ok());
      ASSERT_TRUE(store->CompactOnce().ok());
    }
    append_chunk(10);
    size_t level_segments = 0;
    for (const std::vector<SegmentInfo>& part : store->PartitionSegments()) {
      for (const SegmentInfo& seg : part) level_segments += seg.level > 0;
    }
    EXPECT_GT(level_segments, partitions);
    ExpectKeyReadsMatchSortedSeqReads(*store);
    EXPECT_GT(ExpectMatchesOracle(*store), DistinctTriples(*store));
  }
}

TEST_F(ClaimGraphFromRowsTest, RejectsRowsOutOfKeyOrder) {
  const auto row = [](std::string_view entity, std::string_view attribute,
                      uint64_t seq) {
    return RowView{entity, attribute, "s", seq, 1};
  };
  const std::vector<std::vector<RowView>> out_of_order = {
      {row("e2", "a1", 0), row("e1", "a1", 1)},  // entity descends
      {row("e1", "a2", 0), row("e1", "a1", 1)},  // attribute descends
      {row("e1", "a1", 5), row("e1", "a1", 4)},  // seq descends in a fact
  };
  for (const std::vector<RowView>& rows : out_of_order) {
    RowViews views;
    views.rows = rows;
    const Result<RowGraph> built = ClaimGraphFromRows(views);
    ASSERT_FALSE(built.ok());
    EXPECT_EQ(built.status().code(), StatusCode::kInvalidArgument);
  }
  // A seq-order read whose ingest order is not its key order is refused,
  // not built into a wrong graph.
  std::unique_ptr<PartitionedTruthStore> store = Open(1);
  ASSERT_NE(store, nullptr);
  RawDatabase raw;
  raw.Add("e2", "a1", "s1");
  raw.Add("e1", "a1", "s2");
  ASSERT_TRUE(store->AppendRaw(raw).ok());
  const std::unique_ptr<StorePin> pin = store->PinSnapshot();
  Result<RowViews> by_seq = store->ReadRowsAt(*pin, nullptr, nullptr);
  ASSERT_TRUE(by_seq.ok());
  const Result<RowGraph> built = ClaimGraphFromRows(*by_seq);
  ASSERT_FALSE(built.ok());
  EXPECT_EQ(built.status().code(), StatusCode::kInvalidArgument);
}

// Runs that are empty, already in order across their boundary, or odd in
// number all merge to the fully sorted vector, in either order.
TEST_F(ClaimGraphFromRowsTest, MergeSortedRunsSortsByEitherOrder) {
  const auto row = [](std::string_view entity, uint64_t seq) {
    return RowView{entity, "a", "s", seq, 1};
  };
  // Runs by key: [b c] [] [a d] [e] [a c]; [e] follows [a d] in order.
  const std::vector<RowView> runs = {row("b", 4), row("c", 1), row("a", 7),
                                     row("d", 2), row("e", 3), row("a", 0),
                                     row("c", 9)};
  const std::vector<size_t> starts = {0, 2, 2, 4, 5};
  std::vector<RowView> by_key = runs;
  MergeSortedRuns(RowOrder::kKey, starts, &by_key);
  std::vector<RowView> expected = runs;
  std::sort(expected.begin(), expected.end(), RowViewOrder);
  EXPECT_EQ(Tuples(by_key), Tuples(expected));

  // The same rows as seq runs: [0 5] [3] [1 2 9].
  const std::vector<RowView> seq_runs = {row("x", 0), row("x", 5),
                                         row("x", 3), row("x", 1),
                                         row("x", 2), row("x", 9)};
  std::vector<RowView> by_seq = seq_runs;
  MergeSortedRuns(RowOrder::kSeq, std::vector<size_t>{0, 2, 3}, &by_seq);
  std::vector<uint64_t> seqs;
  for (const RowView& r : by_seq) seqs.push_back(r.seq);
  EXPECT_EQ(seqs, (std::vector<uint64_t>{0, 1, 2, 3, 5, 9}));
}

TEST_F(ClaimGraphFromRowsTest, OverLimitIdCountIsAStatus) {
  const std::vector<FactId> no_facts;
  const std::vector<SourceId> no_sources;
  const std::vector<EntityId> no_entities;
  // 2^31 + 1 sources cannot be packed next to the observation bit.
  const Result<ClaimGraph> too_many = ClaimGraph::FromRows(
      no_facts, no_sources, no_entities, 0, (size_t{1} << 31) + 1);
  EXPECT_FALSE(too_many.ok());
  EXPECT_EQ(too_many.status().code(), StatusCode::kInvalidArgument);
  // An id beyond its declared count is refused, not written out of bounds.
  const std::vector<FactId> row_facts = {0, 1};
  const std::vector<SourceId> row_sources = {0, 0};
  const std::vector<EntityId> fact_entities = {0};
  EXPECT_FALSE(ClaimGraph::FromRows(row_facts, row_sources, fact_entities, 1, 1)
                   .ok());
}

}  // namespace
}  // namespace store
}  // namespace ltm
