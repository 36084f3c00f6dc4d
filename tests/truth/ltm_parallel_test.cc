#include "truth/ltm.h"

#include <gtest/gtest.h>

#include <atomic>
#include <vector>

#include "data/dataset.h"
#include "eval/metrics.h"
#include "synth/ltm_process.h"
#include "test_util.h"
#include "truth/registry.h"

namespace ltm {
namespace {

LtmOptions SmallDataOptions() {
  LtmOptions opts;
  opts.alpha0 = BetaPrior{1.0, 100.0};
  opts.alpha1 = BetaPrior{1.0, 1.0};
  opts.beta = BetaPrior{1.0, 1.0};
  opts.iterations = 120;
  opts.burnin = 20;
  opts.sample_gap = 2;
  opts.seed = 7;
  return opts;
}

ClaimGraph BuildGraph(uint64_t seed) {
  RawDatabase raw = testing::RandomRaw(seed);
  FactTable facts = FactTable::Build(raw);
  return ClaimGraph::Build(raw, facts);
}

TEST(ShardedLtmGibbsTest, MultiShardDeterministicAcrossRepeatedRuns) {
  ClaimGraph graph = BuildGraph(71);
  LtmOptions opts = SmallDataOptions();
  opts.threads = 4;

  TruthEstimate a = LtmGibbs(graph, opts).Run();
  TruthEstimate b = LtmGibbs(graph, opts).Run();
  EXPECT_EQ(a.probability, b.probability);
}

TEST(ShardedLtmGibbsTest, RegistryThreads4DeterministicForFixedSeed) {
  RawDatabase raw = testing::RandomRaw(71);
  FactTable facts = FactTable::Build(raw);
  ClaimGraph claims = ClaimGraph::Build(raw, facts);

  auto method = CreateMethod("LTM(threads=4,seed=7)", SmallDataOptions());
  ASSERT_TRUE(method.ok()) << method.status().ToString();
  TruthEstimate a = (*method)->Score(facts, claims);
  TruthEstimate b = (*method)->Score(facts, claims);
  EXPECT_EQ(a.probability, b.probability);

  // A different seed must give a different chain (same decisions are
  // fine; bit-identical posteriors are not).
  auto reseeded = CreateMethod("LTM(threads=4,seed=8)", SmallDataOptions());
  ASSERT_TRUE(reseeded.ok());
  TruthEstimate c = (*reseeded)->Score(facts, claims);
  EXPECT_NE(a.probability, c.probability);
}

// The merged count matrix must equal a fresh recount of the claim graph
// against the current truth vector after every parallel sweep — the
// invariant that catches barrier-merge bugs.
TEST(ShardedLtmGibbsTest, MergedCountsStayConsistentWithTruth) {
  ClaimGraph graph = BuildGraph(29);
  LtmOptions opts = SmallDataOptions();
  opts.threads = 3;
  LtmGibbs sampler(graph, opts);

  for (int sweep = 0; sweep < 5; ++sweep) {
    sampler.RunSweep();
    std::vector<int64_t> recount(graph.NumSources() * 4, 0);
    for (FactId f = 0; f < graph.NumFacts(); ++f) {
      const int i = sampler.truth()[f];
      for (uint32_t entry : graph.FactClaims(f)) {
        ++recount[ClaimGraph::PackedId(entry) * 4 + i * 2 +
                  ClaimGraph::PackedObs(entry)];
      }
    }
    for (SourceId s = 0; s < graph.NumSources(); ++s) {
      for (int i = 0; i < 2; ++i) {
        for (int j = 0; j < 2; ++j) {
          ASSERT_EQ(sampler.Count(s, i, j), recount[s * 4 + i * 2 + j])
              << "s=" << s << " i=" << i << " j=" << j << " sweep=" << sweep;
        }
      }
    }
  }
}

TEST(ShardedLtmGibbsTest, MultiShardRecoversTruthOnGoodSyntheticData) {
  synth::LtmProcessOptions gen;
  gen.num_facts = 800;
  gen.num_sources = 16;
  gen.alpha0 = BetaPrior{10.0, 90.0};
  gen.alpha1 = BetaPrior{90.0, 10.0};
  gen.seed = 21;
  synth::LtmProcessData data = synth::GenerateLtmProcess(gen);

  LtmOptions opts;
  opts.alpha0 = BetaPrior{10.0, 1000.0};
  opts.iterations = 100;
  opts.burnin = 20;
  opts.sample_gap = 4;
  opts.threads = 4;
  LatentTruthModel model(opts);
  TruthEstimate est = model.Score(data.facts, data.graph);
  PointMetrics m = EvaluateAtThreshold(est.probability, data.truth, 0.5);
  EXPECT_GT(m.accuracy(), 0.95) << m.confusion.ToString();
}

TEST(ShardedLtmGibbsTest, ThreadsZeroAutoResolvesAndRuns) {
  RawDatabase raw = testing::RandomRaw(13);
  FactTable facts = FactTable::Build(raw);
  ClaimGraph claims = ClaimGraph::Build(raw, facts);
  auto method = CreateMethod("LTM(threads=0,iterations=30,burnin=5)");
  ASSERT_TRUE(method.ok()) << method.status().ToString();
  TruthEstimate est = (*method)->Score(facts, claims);
  ASSERT_EQ(est.probability.size(), claims.NumFacts());
  for (double p : est.probability) {
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
  }
}

TEST(ShardedLtmGibbsTest, MoreShardsThanFactsIsHarmless) {
  RawDatabase raw = testing::RandomRaw(99, /*entities=*/2, /*max_attrs=*/2,
                                       /*sources=*/3);
  FactTable facts = FactTable::Build(raw);
  const ClaimGraph& graph = ClaimGraph::Build(raw, facts);
  LtmOptions opts = SmallDataOptions();
  opts.threads = 64;
  TruthEstimate est = LtmGibbs(graph, opts).Run();
  EXPECT_EQ(est.probability.size(), graph.NumFacts());
}

TEST(ShardedLtmGibbsTest, EmptyClaimTable) {
  ClaimGraph graph;
  LtmOptions opts = SmallDataOptions();
  opts.threads = 4;
  TruthEstimate est = LtmGibbs(graph, opts).Run();
  EXPECT_TRUE(est.probability.empty());
}

TEST(ShardedLtmGibbsTest, CancelledContextStopsShardedRun) {
  RawDatabase raw = testing::RandomRaw(31);
  FactTable facts = FactTable::Build(raw);
  ClaimGraph claims = ClaimGraph::Build(raw, facts);
  LtmOptions opts = SmallDataOptions();
  opts.threads = 4;
  LatentTruthModel model(opts);

  std::atomic<bool> cancel{true};  // cancelled before the first sweep
  RunContext ctx;
  ctx.cancel = &cancel;
  Result<TruthResult> result = model.Run(ctx, facts, claims);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
}

TEST(ShardedLtmGibbsTest, DeadlineExpiresShardedRun) {
  RawDatabase raw = testing::RandomRaw(31);
  FactTable facts = FactTable::Build(raw);
  ClaimGraph claims = ClaimGraph::Build(raw, facts);
  LtmOptions opts = SmallDataOptions();
  opts.threads = 4;
  opts.iterations = 100000;  // would take far longer than the deadline
  opts.burnin = 0;
  LatentTruthModel model(opts);

  RunContext ctx;
  ctx.deadline_seconds = 0.02;
  Result<TruthResult> result = model.Run(ctx, facts, claims);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
}

TEST(ShardedLtmGibbsTest, ShardedQualityReadOffMatchesSequentialShape) {
  Dataset ds = Dataset::FromRaw("paper", testing::PaperTable1());
  LtmOptions opts = SmallDataOptions();
  opts.threads = 2;
  LatentTruthModel model(opts);
  RunContext ctx;
  ctx.with_quality = true;
  Result<TruthResult> result = model.Run(ctx, ds.facts, ds.graph);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_TRUE(result->quality.has_value());
  EXPECT_EQ(result->quality->specificity.size(), ds.graph.NumSources());
  EXPECT_EQ(result->quality->sensitivity.size(), ds.graph.NumSources());
}

TEST(ShardedLtmGibbsTest, LtmPosShardedUsesFilteredClaims) {
  RawDatabase raw = testing::RandomRaw(77, 40, 4, 12, 0.6);
  FactTable facts = FactTable::Build(raw);
  ClaimGraph claims = ClaimGraph::Build(raw, facts);
  auto method = CreateMethod("LTMpos(threads=4,iterations=60,burnin=10)");
  ASSERT_TRUE(method.ok()) << method.status().ToString();
  TruthEstimate est = (*method)->Score(facts, claims);
  // §6.2.1: positives only -> nothing scores below the prior.
  for (double p : est.probability) EXPECT_GE(p, 0.5);
}

TEST(LtmOptionsThreadsTest, ValidateRejectsOutOfRange) {
  LtmOptions opts;
  opts.threads = -1;
  EXPECT_FALSE(opts.Validate().ok());
  opts.threads = 2000;
  EXPECT_FALSE(opts.Validate().ok());
  opts.threads = 0;  // auto
  EXPECT_TRUE(opts.Validate().ok());
}

TEST(LtmOptionsThreadsTest, SpecParsesThreads) {
  auto bad = CreateMethod("LTM(threads=-3)");
  EXPECT_FALSE(bad.ok());
  auto good = CreateMethod("LTM(threads=8)");
  EXPECT_TRUE(good.ok()) << good.status().ToString();
}

TEST(RunMethodsConcurrentlyTest, MatchesSequentialRuns) {
  RawDatabase raw = testing::RandomRaw(17);
  FactTable facts = FactTable::Build(raw);
  ClaimGraph claims = ClaimGraph::Build(raw, facts);
  LtmOptions base = SmallDataOptions();
  base.iterations = 40;
  base.burnin = 10;

  const std::vector<std::string> specs{"Voting", "LTM(threads=2)",
                                       "TruthFinder", "AvgLog"};
  RunContext ctx;
  std::vector<MethodRunOutcome> outcomes =
      RunMethodsConcurrently(specs, ctx, facts, claims, base);
  ASSERT_EQ(outcomes.size(), specs.size());
  for (size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(outcomes[i].spec, specs[i]);
    ASSERT_TRUE(outcomes[i].result.ok())
        << specs[i] << ": " << outcomes[i].result.status().ToString();
    auto method = CreateMethod(specs[i], base);
    ASSERT_TRUE(method.ok());
    Result<TruthResult> solo = (*method)->Run(RunContext(), facts, claims);
    ASSERT_TRUE(solo.ok());
    EXPECT_EQ(outcomes[i].result->estimate.probability,
              solo->estimate.probability)
        << specs[i];
  }
}

TEST(RunMethodsConcurrentlyTest, BadSpecYieldsErrorOutcomeInOrder) {
  RawDatabase raw = testing::RandomRaw(17);
  FactTable facts = FactTable::Build(raw);
  ClaimGraph claims = ClaimGraph::Build(raw, facts);

  const std::vector<std::string> specs{"Voting", "NoSuchMethod", "AvgLog"};
  std::vector<MethodRunOutcome> outcomes = RunMethodsConcurrently(
      specs, RunContext(), facts, claims, SmallDataOptions());
  ASSERT_EQ(outcomes.size(), 3u);
  EXPECT_TRUE(outcomes[0].result.ok());
  EXPECT_EQ(outcomes[1].result.status().code(), StatusCode::kNotFound);
  EXPECT_TRUE(outcomes[2].result.ok());
}

}  // namespace
}  // namespace ltm
