#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "ext/streaming.h"
#include "obs/metrics.h"
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
  const obs::MetricsRegistry& metrics = *(*store)->metrics();
  const uint64_t hits_before =
      metrics.CounterValue("ltm_cache_posterior_hits_total");
  auto repeat = (*session)->Query({entity, attribute});
  ASSERT_TRUE(repeat.ok());
  EXPECT_GT(metrics.CounterValue("ltm_cache_posterior_hits_total"),
            hits_before);
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
  const obs::MetricsRegistry& metrics = *(*store)->metrics();
  const uint64_t misses_before =
      metrics.CounterValue("ltm_cache_posterior_misses_total");
  auto second = (*session)->Query({entity, attribute});
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(metrics.CounterValue("ltm_cache_posterior_misses_total"),
            misses_before);
  EXPECT_DOUBLE_EQ(*first, *second);

  // New evidence advances the store epoch; the stale entry must not be
  // served even though the key is cached.
  ASSERT_TRUE(pipeline.ObserveToStore(chunk_a_).ok());
  auto third = (*session)->Query({entity, attribute});
  ASSERT_TRUE(third.ok());
  EXPECT_GT(metrics.CounterValue("ltm_cache_posterior_misses_total"),
            misses_before);
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

// A refit covers durable evidence that bypassed this pipeline (a foreign
// writer appending straight to the store) whichever trigger fires: the
// chunk-count and the epoch trigger both refit from the store.
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

// The chunk-count trigger refits from the store: after every
// ObserveToStore the installed fit is the batch fit of Materialize(), bit
// for bit, and the source table is its source order — also when a foreign
// writer brought a source no chunk named.
TEST_F(StreamingStoreTest, ChunkCountRefitFitsTheStore) {
  auto store = store::PartitionedTruthStore::Open(dir_);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->AppendRaw(history_.raw).ok());
  ASSERT_TRUE((*store)->Flush().ok());

  StreamingOptions options = Options();
  options.refit_every_chunks = 1;  // no epoch trigger
  StreamingPipeline pipeline(options);
  ASSERT_TRUE(pipeline.BootstrapFromStore(store->get()).ok());

  RawDatabase foreign;
  foreign.Add("e0", "foreign-attribute", "foreign-source");
  const std::vector<const RawDatabase*> foreign_before = {nullptr, &foreign};
  const std::vector<const Dataset*> chunks = {&chunk_a_, &chunk_b_};
  for (size_t i = 0; i < chunks.size(); ++i) {
    SCOPED_TRACE("chunk " + std::to_string(i));
    if (foreign_before[i] != nullptr) {
      ASSERT_TRUE((*store)->AppendRaw(*foreign_before[i]).ok());
    }
    ASSERT_TRUE(pipeline.ObserveToStore(*chunks[i]).ok());
    EXPECT_TRUE(pipeline.last_refit());
    EXPECT_EQ(pipeline.last_fit_epoch(), (*store)->epoch());

    auto full = (*store)->Materialize();
    ASSERT_TRUE(full.ok());
    LatentTruthModel reference(options.ltm);
    RunContext ctx;
    ctx.with_quality = true;
    auto ref = reference.Run(ctx, full->facts, full->graph);
    ASSERT_TRUE(ref.ok());
    EXPECT_EQ(pipeline.quality().sensitivity, ref->quality->sensitivity);
    EXPECT_EQ(pipeline.quality().specificity, ref->quality->specificity);
    EXPECT_EQ(pipeline.cumulative_sources().strings(),
              full->raw.sources().strings());
  }
  EXPECT_TRUE(pipeline.cumulative_sources().Find("foreign-source"));
  // The store is the evidence: a bare-Dataset bootstrap is refused.
  EXPECT_EQ(pipeline.Bootstrap(history_).code(),
            StatusCode::kFailedPrecondition);
}

// A pipeline attached to an empty store cold-starts on its first
// ObserveToStore by fitting the whole store (here also a foreign
// writer's rows), and scores the chunk under that fit's source order.
TEST_F(StreamingStoreTest, ColdStartOnAnEmptyStoreFitsTheStore) {
  auto store = store::PartitionedTruthStore::Open(dir_);
  ASSERT_TRUE(store.ok());
  StreamingPipeline pipeline(Options());
  ASSERT_TRUE(pipeline.BootstrapFromStore(store->get()).ok());
  EXPECT_TRUE(pipeline.cumulative_sources().empty());

  ASSERT_TRUE((*store)->AppendRaw(chunk_b_.raw).ok());  // foreign writer
  ASSERT_TRUE(pipeline.ObserveToStore(chunk_a_).ok());
  EXPECT_TRUE(pipeline.last_refit());

  auto full = (*store)->Materialize();
  ASSERT_TRUE(full.ok());
  LatentTruthModel reference(Options().ltm);
  RunContext ctx;
  ctx.with_quality = true;
  auto ref = reference.Run(ctx, full->facts, full->graph);
  ASSERT_TRUE(ref.ok());
  EXPECT_EQ(pipeline.quality().sensitivity, ref->quality->sensitivity);
  EXPECT_EQ(pipeline.cumulative_sources().strings(),
            full->raw.sources().strings());

  // chunk_a's entities are its own, so the served full-evidence
  // posterior of each of its facts is the chunk estimate.
  auto session = serve::ServeSession::Create(&pipeline, serve::ServeOptions());
  ASSERT_TRUE(session.ok());
  auto estimate = pipeline.Estimate();
  ASSERT_TRUE(estimate.ok());
  for (FactId f = 0; f < chunk_a_.facts.NumFacts(); ++f) {
    std::string entity, attribute;
    FactKey(chunk_a_, f, &entity, &attribute);
    auto served = (*session)->Query({entity, attribute});
    ASSERT_TRUE(served.ok());
    EXPECT_NEAR(*served, estimate->estimate.probability[f], 1e-9) << f;
  }
}

// A refit cancelled through RunContext::cancel installs nothing: the
// quality and the source table stay exactly as they were, although the
// store holds a source the table lacks.
TEST_F(StreamingStoreTest, CancelledRefitLeavesQualityAndSources) {
  auto store = store::PartitionedTruthStore::Open(dir_);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->AppendRaw(history_.raw).ok());

  StreamingPipeline pipeline(Options());
  ASSERT_TRUE(pipeline.BootstrapFromStore(store->get()).ok());
  const SourceQuality quality = pipeline.quality();
  const std::vector<std::string> sources =
      pipeline.cumulative_sources().strings();
  const uint64_t fit_epoch = pipeline.last_fit_epoch();

  RawDatabase foreign;
  foreign.Add("e0", "foreign-attribute", "foreign-source");
  ASSERT_TRUE((*store)->AppendRaw(foreign).ok());
  const std::atomic<bool> cancel{true};
  RunContext ctx;
  ctx.cancel = &cancel;
  auto refit = pipeline.RefitFromStore(ctx);
  ASSERT_FALSE(refit.ok());
  EXPECT_EQ(refit.status().code(), StatusCode::kCancelled);
  EXPECT_EQ(pipeline.quality().sensitivity, quality.sensitivity);
  EXPECT_EQ(pipeline.quality().specificity, quality.specificity);
  EXPECT_EQ(pipeline.cumulative_sources().strings(), sources);
  EXPECT_EQ(pipeline.last_fit_epoch(), fit_epoch);

  // The same refit uncancelled picks the new source up.
  ASSERT_TRUE(pipeline.RefitFromStore().ok());
  EXPECT_TRUE(pipeline.cumulative_sources().Find("foreign-source"));
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

// The bootstrap fit is a refit of the attached store: over a 3-way
// partitioned store it runs the same chain as a RefitFromStore at the
// same epoch, bit for bit.
TEST_F(StreamingStoreTest, BootstrapFitsLikeRefitFromStore) {
  store::PartitionedStoreOptions store_options;
  store_options.partitions = 3;
  store_options.initial_boundaries = {"e3", "e6"};
  auto store = store::PartitionedTruthStore::Open(dir_, store_options);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  ASSERT_TRUE((*store)->AppendRaw(history_.raw).ok());
  ASSERT_TRUE((*store)->Flush().ok());

  StreamingPipeline pipeline(Options());
  ASSERT_TRUE(pipeline.BootstrapFromStore(store->get()).ok());
  const SourceQuality bootstrapped = pipeline.quality();
  const uint64_t epoch = (*store)->epoch();
  EXPECT_EQ(pipeline.last_fit_epoch(), epoch);

  auto refit = pipeline.RefitFromStore();
  ASSERT_TRUE(refit.ok()) << refit.status().ToString();
  EXPECT_EQ(*refit, epoch);
  EXPECT_EQ(pipeline.quality().sensitivity, bootstrapped.sensitivity);
  EXPECT_EQ(pipeline.quality().specificity, bootstrapped.specificity);
}

}  // namespace
}  // namespace ext
}  // namespace ltm
