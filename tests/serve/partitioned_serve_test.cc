#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "ext/streaming.h"
#include "serve/serve_options.h"
#include "serve/serve_session.h"
#include "store/partitioned_store.h"
#include "test_util.h"
#include "truth/ltm.h"
#include "truth/ltm_incremental.h"

namespace ltm {
namespace serve {
namespace {

namespace fs = std::filesystem;

/// Serving against an entity-range partitioned store. The boundaries
/// "g" / "p" carve three partitions; the fixture's claim table spreads
/// entities across all of them so every query path crosses the router.
class ServeSessionPartitionedTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = ::testing::TempDir() + "/partitioned_serve_test_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name();
    fs::remove_all(root_);
    fs::create_directories(root_);
    raw_ = FruitBasket();
  }

  /// Entities in all three ranges: [-inf,g), [g,p), [p,+inf). Ingested
  /// deliberately OUT of lexicographic order, so a range read that
  /// merely concatenates materialization (= ingest) order is caught.
  static RawDatabase FruitBasket() {
    RawDatabase raw;
    for (const char* e : {"zucchini", "grape", "apple", "peach", "banana",
                          "kiwi", "fig", "plum", "mango"}) {
      raw.Add(e, std::string(e) + "-color", "s1");
      raw.Add(e, std::string(e) + "-color", "s2");
      raw.Add(e, std::string(e) + "-size", "s2");
      raw.Add(e, std::string(e) + "-size", "s3");
    }
    return raw;
  }

  ext::StreamingOptions Options() {
    ext::StreamingOptions options;
    options.ltm = LtmOptions::ScaledDefaults(raw_.NumRows());
    options.ltm.iterations = 40;
    options.ltm.burnin = 10;
    options.ltm.seed = 5;
    options.ltm.kernel = LtmKernel::kReference;
    options.refit_every_chunks = 0;
    return options;
  }

  /// Opens a 3-way partitioned store at `name`, ingests raw_, and
  /// bootstraps a pipeline + session over it.
  void BootstrapPartitioned() {
    store::PartitionedStoreOptions opts;
    opts.partitions = 3;
    opts.initial_boundaries = {"g", "p"};
    auto store = store::PartitionedTruthStore::Open(root_ + "/parted", opts);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    store_ = std::move(*store);
    ASSERT_TRUE(store_->AppendRaw(raw_).ok());
    ASSERT_TRUE(store_->Flush().ok());
    pipeline_ = std::make_unique<ext::StreamingPipeline>(Options());
    ASSERT_TRUE(pipeline_->BootstrapFromStore(store_.get()).ok());
    auto session = ServeSession::Create(pipeline_.get(), ServeOptions());
    ASSERT_TRUE(session.ok()) << session.status().ToString();
    session_ = std::move(*session);
  }

  std::string root_;
  RawDatabase raw_;
  std::unique_ptr<store::PartitionedTruthStore> store_;
  std::unique_ptr<ext::StreamingPipeline> pipeline_;
  std::unique_ptr<ServeSession> session_;
};

// Regression for the cross-partition range read: materialization visits
// partitions in range order but rows within each in ingest order; the
// API contract is GLOBAL lexicographic entity order. The queried range
// straddles both partition boundaries.
TEST_F(ServeSessionPartitionedTest, QueryEntityRangeGloballyOrdered) {
  BootstrapPartitioned();
  ASSERT_EQ(store_->num_partitions(), 3u);

  auto served = session_->QueryEntityRange("banana", "plum");
  ASSERT_TRUE(served.ok()) << served.status().ToString();

  // Everything in [banana, plum] and nothing else — entities from all
  // three partitions.
  std::vector<std::string> expected = {"banana", "fig",   "grape", "kiwi",
                                       "mango",  "peach", "plum"};
  std::vector<std::string> got_entities;
  for (const ServedFact& fact : *served) {
    if (got_entities.empty() || got_entities.back() != fact.entity) {
      got_entities.push_back(fact.entity);
    }
  }
  EXPECT_EQ(got_entities, expected);  // sorted AND deduplicated-adjacent
  ASSERT_EQ(served->size(), expected.size() * 2);  // two attributes each
  for (size_t i = 1; i < served->size(); ++i) {
    EXPECT_LE((*served)[i - 1].entity, (*served)[i].entity)
        << "out of order at " << i;
  }

  // Range posteriors agree with point reads (which route one partition).
  for (const ServedFact& fact : *served) {
    auto point = session_->Query({fact.entity, fact.attribute});
    ASSERT_TRUE(point.ok());
    EXPECT_EQ(*point, fact.posterior) << fact.entity << "/" << fact.attribute;
  }
}

// Point queries through a 3-way store serve the same bits as a session
// over a one-partition store holding the same rows, and both equal the
// batch-load oracle: a pipeline bootstrapped from Dataset::FromRaw of the
// rows, scoring the entity's slice with LTMinc — partitioning is
// invisible to the serving surface.
TEST_F(ServeSessionPartitionedTest, QueriesMatchSingleStoreSession) {
  BootstrapPartitioned();

  auto single = store::PartitionedTruthStore::Open(root_ + "/single");
  ASSERT_TRUE(single.ok());
  ASSERT_EQ((*single)->num_partitions(), 1u);
  ASSERT_TRUE((*single)->AppendRaw(raw_).ok());
  ASSERT_TRUE((*single)->Flush().ok());
  ext::StreamingPipeline single_pipeline(Options());
  ASSERT_TRUE(single_pipeline.BootstrapFromStore(single->get()).ok());
  auto single_session =
      ServeSession::Create(&single_pipeline, ServeOptions());
  ASSERT_TRUE(single_session.ok());

  ext::StreamingPipeline batch_pipeline(Options());
  ASSERT_TRUE(batch_pipeline.Bootstrap(Dataset::FromRaw("batch", raw_)).ok());
  const SourceQuality& fitted = batch_pipeline.quality();

  for (const char* e : {"apple", "grape", "mango", "zucchini"}) {
    const FactRef ref{e, std::string(e) + "-color"};
    auto parted = session_->Query(ref);
    auto plain = (*single_session)->Query(ref);
    ASSERT_TRUE(parted.ok());
    ASSERT_TRUE(plain.ok());
    EXPECT_EQ(*parted, *plain) << e;  // bit-identical

    // The oracle: the entity's rows carved from the batch rows, the
    // batch fit's quality remapped onto the slice's sources by name.
    RawDatabase rows;
    for (const RawRow& row : raw_.rows()) {
      if (raw_.entities().Get(row.entity) != ref.entity) continue;
      rows.Add(ref.entity, raw_.attributes().Get(row.attribute),
               raw_.sources().Get(row.source));
    }
    const Dataset slice = Dataset::FromRaw("slice", std::move(rows));
    SourceQuality quality;
    for (SourceId s = 0; s < slice.raw.NumSources(); ++s) {
      const auto id =
          batch_pipeline.cumulative_sources().Find(slice.raw.sources().Get(s));
      ASSERT_TRUE(id.has_value());
      quality.sensitivity.push_back(fitted.sensitivity[*id]);
      quality.specificity.push_back(fitted.specificity[*id]);
      quality.precision.push_back(0.0);
      quality.accuracy.push_back(0.0);
    }
    quality.expected_counts.resize(slice.raw.NumSources());
    LtmIncremental scorer(std::move(quality), Options().ltm);
    const TruthEstimate oracle = scorer.Score(slice.facts, slice.graph);
    const auto fid = slice.facts.Find(*slice.raw.entities().Find(ref.entity),
                                      *slice.raw.attributes().Find(
                                          ref.attribute));
    ASSERT_TRUE(fid.has_value());
    EXPECT_EQ(*parted, oracle.probability[*fid]) << e;  // bit-identical
  }
}

// AcquireSnapshot pins every partition at one consistent vector epoch:
// reads stay frozen while appends land in other partitions.
TEST_F(ServeSessionPartitionedTest, SnapshotPinsAllPartitionsConsistently) {
  BootstrapPartitioned();

  std::vector<FactRef> probes = {{"apple", "apple-color"},
                                 {"kiwi", "kiwi-size"},
                                 {"zucchini", "zucchini-color"}};
  const auto snapshot = session_->AcquireSnapshot();
  const uint64_t pinned_epoch = snapshot->epoch();
  auto baseline = snapshot->QueryBatch(probes);
  ASSERT_TRUE(baseline.ok());

  // New evidence in every partition advances the composite epoch...
  RawDatabase more;
  more.Add("avocado", "avocado-color", "s1");
  more.Add("lime", "lime-color", "s1");
  more.Add("tomato", "tomato-color", "s1");
  ASSERT_TRUE(store_->AppendRaw(more).ok());
  ASSERT_TRUE(store_->Flush().ok());
  EXPECT_GT(store_->epoch(), pinned_epoch);

  // ...but the pinned view is bit-stable.
  EXPECT_EQ(snapshot->epoch(), pinned_epoch);
  auto again = snapshot->QueryBatch(probes);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, *baseline);
}

// The partitions spec key drives the serving store's layout end to end.
TEST_F(ServeSessionPartitionedTest, PartitionsSpecKeyCarvesTheStore) {
  auto options = ParseServeSpec("serve(partitions=3,block_cache_mb=4)");
  ASSERT_TRUE(options.ok()) << options.status().ToString();
  EXPECT_EQ(options->partitions, 3u);

  store::PartitionedStoreOptions popts;
  popts.store = options->ApplyToStore(popts.store);
  popts.partitions = options->partitions;
  auto store = store::PartitionedTruthStore::Open(root_ + "/spec", popts);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  EXPECT_EQ((*store)->num_partitions(), 3u);

  EXPECT_NE(options->ToSpecString().find("partitions=3"), std::string::npos);
  EXPECT_FALSE(ParseServeSpec("serve(partitions=0)").ok());
  EXPECT_FALSE(ParseServeSpec("serve(partitions=257)").ok());
  // The spec bound is the store's own: everything the spec accepts, the
  // store opens.
  EXPECT_EQ(ParseServeSpec("serve(partitions=64)")->partitions,
            store::kMaxPartitions);
  EXPECT_FALSE(ParseServeSpec("serve(partitions=65)").ok());
}

}  // namespace
}  // namespace serve
}  // namespace ltm
