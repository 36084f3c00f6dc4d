// End-to-end registry coverage: one injected MetricsRegistry observes a
// real store (WAL, flush, compaction, caches), a ServeSession over
// it, and a Gibbs inference run — the unified-observability contract
// that the whole stack reports through one exposition surface.

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "ext/streaming.h"
#include "obs/metrics.h"
#include "serve/serve_options.h"
#include "serve/serve_session.h"
#include "store/partitioned_store.h"
#include "test_util.h"
#include "truth/registry.h"

namespace ltm {
namespace obs {
namespace {

namespace fs = std::filesystem;

/// Distinct metric families in an exposition: line prefixes up to the
/// first space, with histogram `_bucket`/`_sum`/`_count` expansions and
/// embedded label sets folded back into their base name.
std::set<std::string> MetricFamilies(const std::string& exposition) {
  std::set<std::string> families;
  std::istringstream lines(exposition);
  std::string line;
  while (std::getline(lines, line)) {
    std::string name = line.substr(0, line.find(' '));
    const size_t brace = name.find('{');
    if (brace != std::string::npos) name.resize(brace);
    for (const char* suffix : {"_bucket", "_sum", "_count"}) {
      const std::string s(suffix);
      if (name.size() > s.size() &&
          name.compare(name.size() - s.size(), s.size(), s) == 0) {
        name.resize(name.size() - s.size());
        break;
      }
    }
    if (!name.empty()) families.insert(name);
  }
  return families;
}

size_t CountWithPrefix(const std::set<std::string>& families,
                       const std::string& prefix) {
  size_t n = 0;
  for (const std::string& f : families) {
    if (f.rfind(prefix, 0) == 0) ++n;
  }
  return n;
}

TEST(ObsMetricsIntegrationTest, OneRegistryObservesStoreServeAndInference) {
  const std::string dir =
      ::testing::TempDir() + "/obs_metrics_integration_test";
  fs::remove_all(dir);

  MetricsRegistry registry;
  Dataset world = Dataset::FromRaw("world", testing::RandomRaw(17));

  // Store phase: two flushed segments, then a forced compaction — WAL,
  // flush, and compaction counters all move.
  store::PartitionedStoreOptions store_options;
  store_options.store.metrics = &registry;
  auto store = store::PartitionedTruthStore::Open(dir, store_options);
  ASSERT_TRUE(store.ok());
  std::vector<EntityId> first_half;
  for (EntityId e = 0; e < world.raw.NumEntities() / 2; ++e) {
    first_half.push_back(e);
  }
  auto [second, first] = world.SplitByEntities(first_half);
  for (const Dataset* part : {&first, &second}) {
    ASSERT_TRUE((*store)->AppendRaw(part->raw).ok());
    ASSERT_TRUE((*store)->Flush().ok());
  }
  ASSERT_TRUE((*store)->Compact().ok());

  // Serve phase: bootstrap a pipeline and answer point + range queries
  // so the session, posterior cache, and block cache all report.
  ext::StreamingOptions stream_opts;
  stream_opts.ltm = LtmOptions::ScaledDefaults(world.facts.NumFacts());
  stream_opts.ltm.iterations = 30;
  stream_opts.ltm.burnin = 10;
  ext::StreamingPipeline pipeline(stream_opts);
  ASSERT_TRUE(pipeline.BootstrapFromStore(store->get()).ok());
  auto session = serve::ServeSession::Create(&pipeline, serve::ServeOptions());
  ASSERT_TRUE(session.ok());
  for (FactId f = 0; f < 4 && f < world.facts.NumFacts(); ++f) {
    const Fact& fact = world.facts.fact(f);
    serve::FactRef ref;
    ref.entity = std::string(world.raw.entities().Get(fact.entity));
    ref.attribute = std::string(world.raw.attributes().Get(fact.attribute));
    ASSERT_TRUE((*session)->Query(ref).ok());
    ASSERT_TRUE((*session)->Query(ref).ok());  // second hit -> cache hit
  }

  // Inference phase: a batch Gibbs run with the registry on its context.
  LtmOptions ltm_opts = LtmOptions::ScaledDefaults(world.facts.NumFacts());
  ltm_opts.iterations = 20;
  ltm_opts.burnin = 5;
  auto method = CreateMethod("LTM", ltm_opts);
  ASSERT_TRUE(method.ok());
  RunContext ctx;
  ctx.metrics = &registry;
  ASSERT_TRUE((*method)->Run(ctx, world.facts, world.graph).ok());

  // The acceptance bar: one exposition, >= 20 distinct families, with
  // every subsystem represented.
  const std::string exposition = registry.RenderText();
  const std::set<std::string> families = MetricFamilies(exposition);
  EXPECT_GE(families.size(), 20u) << exposition;
  EXPECT_GE(CountWithPrefix(families, "ltm_store_"), 5u) << exposition;
  EXPECT_GE(CountWithPrefix(families, "ltm_cache_"), 4u) << exposition;
  EXPECT_GE(CountWithPrefix(families, "ltm_serve_"), 4u) << exposition;
  EXPECT_GE(CountWithPrefix(families, "ltm_infer_"), 2u) << exposition;

  EXPECT_GT(registry.CounterValue("ltm_store_compactions_total"), 0u);
  EXPECT_GT(registry.CounterValue("ltm_store_wal_appends_total"), 0u);
  EXPECT_GT(registry.CounterValue("ltm_store_flushes_total"), 0u);
  EXPECT_GT(registry.CounterValue("ltm_serve_queries_total"), 0u);
  EXPECT_GT(registry.CounterValue("ltm_cache_posterior_hits_total"), 0u);
  EXPECT_GT(registry.CounterValue("ltm_infer_sweeps_total"), 0u);
  EXPECT_GT(registry.GaugeValue("ltm_store_epoch"), 0);

  // Per-level compaction attribution rides on embedded labels.
  EXPECT_NE(
      exposition.find("ltm_store_compaction_micros_total{level=\""),
      std::string::npos)
      << exposition;

  fs::remove_all(dir);
}

// Isolation: a store opened without an injected registry keeps its
// metrics private — nothing leaks into an unrelated registry, and its
// own Stats() still work.
TEST(ObsMetricsIntegrationTest, StoresWithoutInjectionStayPrivate) {
  const std::string dir =
      ::testing::TempDir() + "/obs_metrics_isolation_test";
  fs::remove_all(dir);

  MetricsRegistry bystander;
  auto store = store::PartitionedTruthStore::Open(dir);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->AppendRaw(testing::RandomRaw(5)).ok());
  ASSERT_TRUE((*store)->Flush().ok());

  EXPECT_EQ(bystander.NumMetrics(), 0u);
  EXPECT_EQ(bystander.CounterValue("ltm_store_wal_appends_total"), 0u);
  const store::TruthStoreStats stats = (*store)->Stats();
  EXPECT_GT(stats.epoch, 0u);

  fs::remove_all(dir);
}

}  // namespace
}  // namespace obs
}  // namespace ltm
