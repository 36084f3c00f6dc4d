#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "ext/streaming.h"
#include "serve/serve_options.h"
#include "serve/serve_session.h"
#include "store/partitioned_store.h"
#include "test_util.h"
#include "truth/ltm.h"
#include "truth/ltm_incremental.h"

namespace ltm {
namespace ext {
namespace {

namespace fs = std::filesystem;

class StreamingStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/streaming_store_test_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    fs::remove_all(dir_);
    world_ = Dataset::FromRaw("world", testing::RandomRaw(17));
    // Split entities into a bootstrap history and two arriving chunks.
    std::vector<EntityId> first_half;
    for (EntityId e = 0; e < world_.raw.NumEntities() / 2; ++e) {
      first_half.push_back(e);
    }
    auto [arrivals, history] = world_.SplitByEntities(first_half);
    history_ = std::move(history);
    std::vector<EntityId> odd;
    for (EntityId e = 0; e < arrivals.raw.NumEntities(); e += 2) {
      odd.push_back(e);
    }
    auto [chunk_b, chunk_a] = arrivals.SplitByEntities(odd);
    chunk_a_ = std::move(chunk_a);
    chunk_b_ = std::move(chunk_b);
  }

  StreamingOptions Options() {
    StreamingOptions options;
    options.ltm = LtmOptions::ScaledDefaults(world_.facts.NumFacts());
    options.ltm.iterations = 40;
    options.ltm.burnin = 10;
    options.ltm.seed = 5;
    options.refit_every_chunks = 0;  // tests arm triggers explicitly
    return options;
  }

  std::string FactKey(const Dataset& ds, FactId f, std::string* entity,
                      std::string* attribute) {
    const Fact& fact = ds.facts.fact(f);
    *entity = std::string(ds.raw.entities().Get(fact.entity));
    *attribute = std::string(ds.raw.attributes().Get(fact.attribute));
    return *entity + "\t" + *attribute;
  }

  std::string dir_;
  Dataset world_;
  Dataset history_;
  Dataset chunk_a_;
  Dataset chunk_b_;
};

TEST_F(StreamingStoreTest, ObserveToStoreRequiresAnAttachedStore) {
  StreamingPipeline pipeline(Options());
  Status st = pipeline.ObserveToStore(chunk_a_);
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);
  // The serving layer refuses a store-less pipeline the same way.
  EXPECT_EQ(
      serve::ServeSession::Create(&pipeline, serve::ServeOptions())
          .status()
          .code(),
      StatusCode::kFailedPrecondition);
}

TEST_F(StreamingStoreTest, BootstrapObserveAndServeAgainstTheStore) {
  auto store = store::PartitionedTruthStore::Open(dir_);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->AppendRaw(history_.raw).ok());
  ASSERT_TRUE((*store)->Flush().ok());

  StreamingPipeline pipeline(Options());
  ASSERT_TRUE(pipeline.BootstrapFromStore(store->get()).ok());
  ASSERT_TRUE(pipeline.ObserveToStore(chunk_a_).ok());

  // The store now durably holds history + chunk_a.
  auto ds = (*store)->Materialize();
  ASSERT_TRUE(ds.ok());
  EXPECT_EQ(ds->raw.NumRows(),
            history_.raw.NumRows() + chunk_a_.raw.NumRows());

  // A point read through the serving layer: the first read computes
  // from the entity's slice and caches; a repeat read at the same epoch
  // is a hit.
  auto session = serve::ServeSession::Create(&pipeline, serve::ServeOptions());
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  std::string entity, attribute;
  FactKey(chunk_a_, 0, &entity, &attribute);
  auto served = (*session)->Query({entity, attribute});
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  const uint64_t hits_before = (*store)->PosteriorCacheStats().hits;
  auto repeat = (*session)->Query({entity, attribute});
  ASSERT_TRUE(repeat.ok());
  EXPECT_GT((*store)->PosteriorCacheStats().hits, hits_before);
  EXPECT_DOUBLE_EQ(*served, *repeat);

  // The chunk's entities are new, so the full-evidence posterior agrees
  // with the chunk estimate LTMinc produced.
  auto estimate = pipeline.Estimate();
  ASSERT_TRUE(estimate.ok());
  EXPECT_NEAR(*served, estimate->estimate.probability[0], 1e-9);

  // An entity nobody ever claimed scores at the beta prior mean.
  auto unknown = (*session)->Query({"no-such-entity", "no-such-attr"});
  ASSERT_TRUE(unknown.ok());
  EXPECT_DOUBLE_EQ(*unknown, Options().ltm.beta.Mean());
}

TEST_F(StreamingStoreTest, QueryRecomputesAfterNewEvidence) {
  auto store = store::PartitionedTruthStore::Open(dir_);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->AppendRaw(history_.raw).ok());

  StreamingPipeline pipeline(Options());
  ASSERT_TRUE(pipeline.BootstrapFromStore(store->get()).ok());
  auto session = serve::ServeSession::Create(&pipeline, serve::ServeOptions());
  ASSERT_TRUE(session.ok());

  std::string entity, attribute;
  FactKey(history_, 0, &entity, &attribute);
  auto first = (*session)->Query({entity, attribute});
  ASSERT_TRUE(first.ok());
  // Second read at the same epoch: served from cache.
  const uint64_t misses_before = (*store)->PosteriorCacheStats().misses;
  auto second = (*session)->Query({entity, attribute});
  ASSERT_TRUE(second.ok());
  EXPECT_EQ((*store)->PosteriorCacheStats().misses, misses_before);
  EXPECT_DOUBLE_EQ(*first, *second);

  // New evidence advances the store epoch; the stale entry must not be
  // served even though the key is cached.
  ASSERT_TRUE(pipeline.ObserveToStore(chunk_a_).ok());
  auto third = (*session)->Query({entity, attribute});
  ASSERT_TRUE(third.ok());
  EXPECT_GT((*store)->PosteriorCacheStats().misses, misses_before);
}

TEST_F(StreamingStoreTest, QueryMatchesFullGraphClosedForm) {
  auto store = store::PartitionedTruthStore::Open(dir_);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->AppendRaw(history_.raw).ok());
  ASSERT_TRUE((*store)->Flush().ok());

  StreamingPipeline pipeline(Options());
  ASSERT_TRUE(pipeline.BootstrapFromStore(store->get()).ok());
  auto session = serve::ServeSession::Create(&pipeline, serve::ServeOptions());
  ASSERT_TRUE(session.ok());

  // Reference: LTMinc over the full materialized graph with the
  // pipeline's learned quality. A served read rebuilds only the
  // entity's slice; per-fact Eq. 3 must agree to FP noise.
  auto full = (*store)->Materialize();
  ASSERT_TRUE(full.ok());
  LtmIncremental reference(pipeline.quality(), Options().ltm);
  TruthEstimate est = reference.Score(full->facts, full->graph);
  for (FactId f = 0; f < full->facts.NumFacts(); f += 7) {
    std::string entity, attribute;
    FactKey(*full, f, &entity, &attribute);
    auto served = (*session)->Query({entity, attribute});
    ASSERT_TRUE(served.ok()) << served.status().ToString();
    EXPECT_NEAR(*served, est.probability[f], 1e-9) << "fact " << f;
  }
}

TEST_F(StreamingStoreTest, EpochDeltaTriggersRefit) {
  auto store = store::PartitionedTruthStore::Open(dir_);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->AppendRaw(history_.raw).ok());

  StreamingOptions options = Options();
  options.ltm.refit_epoch_delta = 1;  // any new evidence forces a refit
  StreamingPipeline eager(options);
  ASSERT_TRUE(eager.BootstrapFromStore(store->get()).ok());
  ASSERT_TRUE(eager.ObserveToStore(chunk_a_).ok());
  EXPECT_TRUE(eager.last_refit());

  // With the trigger disabled, the same ingest does not refit.
  std::filesystem::remove_all(dir_ + "_no_trigger");
  auto store2 = store::PartitionedTruthStore::Open(dir_ + "_no_trigger");
  ASSERT_TRUE(store2.ok());
  ASSERT_TRUE((*store2)->AppendRaw(history_.raw).ok());
  StreamingPipeline lazy(Options());
  ASSERT_TRUE(lazy.BootstrapFromStore(store2->get()).ok());
  ASSERT_TRUE(lazy.ObserveToStore(chunk_a_).ok());
  EXPECT_FALSE(lazy.last_refit());
}

// The epoch trigger covers durable evidence that bypassed this pipeline
// (a foreign writer appending straight to the store) — even when the
// chunk-count trigger also fires, which only refits the in-memory mirror.
TEST_F(StreamingStoreTest, EpochRefitCoversForeignDurableAppends) {
  auto store = store::PartitionedTruthStore::Open(dir_);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->AppendRaw(history_.raw).ok());

  StreamingOptions options = Options();
  options.refit_every_chunks = 1;     // chunk-count refit every observe
  options.ltm.refit_epoch_delta = 1;  // and the epoch trigger is armed
  StreamingPipeline pipeline(options);
  ASSERT_TRUE(pipeline.BootstrapFromStore(store->get()).ok());

  // Foreign writer: evidence reaches the store without the pipeline.
  ASSERT_TRUE((*store)->AppendRaw(chunk_b_.raw).ok());
  ASSERT_TRUE(pipeline.ObserveToStore(chunk_a_).ok());
  EXPECT_TRUE(pipeline.last_refit());

  // The final fit must equal a batch fit over the store's full contents
  // (history + foreign chunk_b + chunk_a) — bit-identical, same seed.
  auto full = (*store)->Materialize();
  ASSERT_TRUE(full.ok());
  LatentTruthModel reference(options.ltm);
  RunContext ctx;
  ctx.with_quality = true;
  auto ref = reference.Run(ctx, full->facts, full->graph);
  ASSERT_TRUE(ref.ok());
  EXPECT_EQ(pipeline.quality().sensitivity, ref->quality->sensitivity);
  EXPECT_EQ(pipeline.quality().specificity, ref->quality->specificity);
}

// The restartable-service pin: a fresh process that reopens the store and
// bootstraps sees exactly the batch fit over everything ever ingested.
TEST_F(StreamingStoreTest, RestartResumesFromDurableState) {
  {
    auto store = store::PartitionedTruthStore::Open(dir_);
    ASSERT_TRUE(store.ok());
    StreamingPipeline pipeline(Options());
    ASSERT_TRUE((*store)->AppendRaw(history_.raw).ok());
    ASSERT_TRUE(pipeline.BootstrapFromStore(store->get()).ok());
    ASSERT_TRUE(pipeline.ObserveToStore(chunk_a_).ok());
    ASSERT_TRUE(pipeline.ObserveToStore(chunk_b_).ok());
    ASSERT_TRUE((*store)->Flush().ok());
  }  // process "dies"

  auto reopened = store::PartitionedTruthStore::Open(dir_);
  ASSERT_TRUE(reopened.ok());
  StreamingPipeline resumed(Options());
  ASSERT_TRUE(resumed.BootstrapFromStore(reopened->get()).ok());

  // Reference: batch LTM on the store's materialized cumulative data.
  auto cumulative = (*reopened)->Materialize();
  ASSERT_TRUE(cumulative.ok());
  LtmOptions opts = Options().ltm;
  LatentTruthModel reference(opts);
  RunContext ctx;
  ctx.with_quality = true;
  auto ref = reference.Run(ctx, cumulative->facts, cumulative->graph);
  ASSERT_TRUE(ref.ok());
  EXPECT_EQ(resumed.quality().sensitivity, ref->quality->sensitivity);
  EXPECT_EQ(resumed.quality().specificity, ref->quality->specificity);
}

}  // namespace
}  // namespace ext
}  // namespace ltm
