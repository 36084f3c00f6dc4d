#include "truth/ltm.h"

#include <gtest/gtest.h>

#include <cmath>

#include "data/dataset.h"
#include "eval/metrics.h"
#include "obs/metrics.h"
#include "obs/trace.h"
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
  opts.iterations = 300;
  opts.burnin = 50;
  opts.sample_gap = 2;
  opts.seed = 7;
  return opts;
}

TEST(LtmOptionsTest, ValidateAcceptsDefaults) {
  EXPECT_TRUE(LtmOptions().Validate().ok());
  EXPECT_TRUE(LtmOptions::BookDataDefaults().Validate().ok());
  EXPECT_TRUE(LtmOptions::MovieDataDefaults().Validate().ok());
}

TEST(LtmOptionsTest, ValidateRejectsBadRanges) {
  LtmOptions opts;
  opts.alpha0.pos = 0.0;
  EXPECT_FALSE(opts.Validate().ok());

  opts = LtmOptions();
  opts.iterations = 0;
  EXPECT_FALSE(opts.Validate().ok());

  opts = LtmOptions();
  opts.burnin = opts.iterations;
  EXPECT_FALSE(opts.Validate().ok());

  opts = LtmOptions();
  opts.sample_gap = 0;
  EXPECT_FALSE(opts.Validate().ok());

  opts = LtmOptions();
  opts.truth_threshold = 1.5;
  EXPECT_FALSE(opts.Validate().ok());
}

TEST(LtmOptionsTest, PaperPriorsAreAsPublished) {
  LtmOptions book = LtmOptions::BookDataDefaults();
  EXPECT_DOUBLE_EQ(book.alpha0.pos, 10.0);
  EXPECT_DOUBLE_EQ(book.alpha0.neg, 1000.0);
  LtmOptions movie = LtmOptions::MovieDataDefaults();
  EXPECT_DOUBLE_EQ(movie.alpha0.pos, 100.0);
  EXPECT_DOUBLE_EQ(movie.alpha0.neg, 10000.0);
  EXPECT_DOUBLE_EQ(movie.alpha1.pos, 50.0);
  EXPECT_DOUBLE_EQ(movie.alpha1.neg, 50.0);
  EXPECT_DOUBLE_EQ(movie.beta.pos, 10.0);
  EXPECT_DOUBLE_EQ(movie.beta.neg, 10.0);
}

class LtmGibbsCountsTest : public ::testing::TestWithParam<uint64_t> {};

// Invariant: the per-source count matrix always equals a fresh recount of
// the claim table against the current truth vector, after any number of
// sweeps.
TEST_P(LtmGibbsCountsTest, CountsStayConsistentWithTruth) {
  RawDatabase raw = testing::RandomRaw(GetParam());
  FactTable facts = FactTable::Build(raw);
  ClaimGraph claims = ClaimGraph::Build(raw, facts);
  LtmOptions opts = SmallDataOptions();
  opts.seed = GetParam();
  LtmGibbs sampler(claims, opts);

  for (int sweep = 0; sweep < 5; ++sweep) {
    sampler.RunSweep();
    std::vector<int64_t> recount(claims.NumSources() * 4, 0);
    for (FactId f = 0; f < claims.NumFacts(); ++f) {
      const int i = sampler.truth()[f];
      for (uint32_t entry : claims.FactClaims(f)) {
        ++recount[ClaimGraph::PackedId(entry) * 4 + i * 2 +
                  ClaimGraph::PackedObs(entry)];
      }
    }
    for (SourceId s = 0; s < claims.NumSources(); ++s) {
      for (int i = 0; i < 2; ++i) {
        for (int j = 0; j < 2; ++j) {
          ASSERT_EQ(sampler.Count(s, i, j), recount[s * 4 + i * 2 + j])
              << "s=" << s << " i=" << i << " j=" << j << " sweep=" << sweep;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LtmGibbsCountsTest,
                         ::testing::Values(3, 17, 29, 61));

TEST(LtmGibbsTest, CountsSumToClaimCount) {
  RawDatabase raw = testing::PaperTable1();
  FactTable facts = FactTable::Build(raw);
  ClaimGraph claims = ClaimGraph::Build(raw, facts);
  LtmGibbs sampler(claims, SmallDataOptions());
  sampler.RunSweep();
  int64_t total = 0;
  for (SourceId s = 0; s < claims.NumSources(); ++s) {
    for (int i = 0; i < 2; ++i) {
      for (int j = 0; j < 2; ++j) total += sampler.Count(s, i, j);
    }
  }
  EXPECT_EQ(total, static_cast<int64_t>(claims.NumClaims()));
}

TEST(LtmGibbsTest, PosteriorMeanBeforeSamplingIsHalf) {
  RawDatabase raw = testing::PaperTable1();
  FactTable facts = FactTable::Build(raw);
  ClaimGraph claims = ClaimGraph::Build(raw, facts);
  LtmGibbs sampler(claims, SmallDataOptions());
  TruthEstimate est = sampler.PosteriorMean();
  for (double p : est.probability) EXPECT_DOUBLE_EQ(p, 0.5);
}

TEST(LtmGibbsTest, ProbabilitiesAreValid) {
  RawDatabase raw = testing::RandomRaw(123);
  FactTable facts = FactTable::Build(raw);
  ClaimGraph claims = ClaimGraph::Build(raw, facts);
  LtmGibbs sampler(claims, SmallDataOptions());
  TruthEstimate est = sampler.Run();
  ASSERT_EQ(est.probability.size(), claims.NumFacts());
  for (double p : est.probability) {
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
  }
}

// The RNG stream contract the bit-pinned posteriors depend on:
// construction consumes exactly NumFacts Bernoulli draws, Initialize()
// consumes NumFacts more, each sweep one Uniform per fact. The golden
// values below were captured from the pre-lazy-counts sampler (which
// built the count matrix eagerly in both the constructor and
// Initialize()); eliminating the duplicated count pass must not move a
// single bit of them.
ClaimGraph GoldenGraph() {
  std::vector<Claim> claims;
  for (FactId f = 0; f < 8; ++f) {
    for (SourceId s = 0; s < 4; ++s) {
      if ((f + s) % 3 == 0) {
        claims.push_back({f, s, true});
      } else if ((f * 2 + s) % 5 == 0) {
        claims.push_back({f, s, false});
      }
    }
  }
  return ClaimGraph::FromClaims(std::move(claims), 8, 4);
}

LtmOptions GoldenOptions() {
  LtmOptions opts;
  opts.alpha0 = BetaPrior{2.0, 8.0};
  opts.alpha1 = BetaPrior{1.0, 1.0};
  opts.beta = BetaPrior{1.0, 1.0};
  opts.iterations = 48;
  opts.burnin = 8;
  opts.sample_gap = 1;
  opts.seed = 7;
  // Pinned explicitly (kReference is the default today, but a golden
  // bit-pin must not depend on that default — the determinism lint
  // enforces this).
  opts.kernel = LtmKernel::kReference;
  return opts;
}

const std::vector<double>& GoldenPosteriors() {
  static const std::vector<double> golden{0.9,   0.4,  0.775, 0.925,
                                          0.675, 0.35, 0.9,   0.55};
  return golden;
}

TEST(LtmGibbsTest, StreamContractPinsGoldenPosteriors) {
  ClaimGraph graph = GoldenGraph();
  const LtmOptions opts = GoldenOptions();
  const std::vector<double>& golden = GoldenPosteriors();

  TruthEstimate run = LtmGibbs(graph, opts).Run();
  ASSERT_EQ(run.probability.size(), golden.size());
  for (size_t f = 0; f < golden.size(); ++f) {
    EXPECT_DOUBLE_EQ(run.probability[f], golden[f]) << "f=" << f;
  }

  // The TruthMethod wrapper's replay — construct, explicit Initialize(),
  // manual sweep/accumulate loop — consumes the identical stream.
  LtmGibbs sampler(graph, opts);
  sampler.Initialize();
  for (int it = 0; it < opts.iterations; ++it) {
    sampler.RunSweep();
    if (it >= opts.burnin && (it - opts.burnin) % opts.sample_gap == 0) {
      sampler.AccumulateSample();
    }
  }
  TruthEstimate replay = sampler.PosteriorMean();
  for (size_t f = 0; f < golden.size(); ++f) {
    EXPECT_DOUBLE_EQ(replay.probability[f], golden[f]) << "f=" << f;
  }
}

// Observability must be invisible to the chain: the pinned run through
// the TruthMethod wrapper, with a metrics registry on the context AND
// the trace recorder armed (so every sweep lands a span in the ring),
// reproduces the golden posteriors bit for bit. The instrumentation
// reads clocks, never sampled values — this is the proof.
TEST(LtmGibbsTest, GoldenPosteriorsUnmovedByMetricsAndTracing) {
  ClaimGraph graph = GoldenGraph();
  const LtmOptions opts = GoldenOptions();
  const std::vector<double>& golden = GoldenPosteriors();

  obs::MetricsRegistry registry;
  obs::TraceRecorder::Global().Enable();

  LatentTruthModel model(opts);
  RunContext ctx;
  ctx.metrics = &registry;
  ctx.collect_trace = true;
  FactTable unused;
  auto run = model.Run(ctx, unused, graph);
  obs::TraceRecorder::Global().Disable();
  ASSERT_TRUE(run.ok());

  ASSERT_EQ(run->estimate.probability.size(), golden.size());
  for (size_t f = 0; f < golden.size(); ++f) {
    EXPECT_DOUBLE_EQ(run->estimate.probability[f], golden[f]) << "f=" << f;
  }

  // The side channel filled up while the chain didn't move: one sweep
  // span and one timing sample per iteration, and every flip the trace
  // reports (delta is the flip fraction of the facts) counted once.
  EXPECT_EQ(registry.CounterValue("ltm_infer_sweeps_total"),
            static_cast<uint64_t>(opts.iterations));
  ASSERT_EQ(run->trace.size(), static_cast<size_t>(opts.iterations));
  uint64_t traced_flips = 0;
  for (const IterationStat& stat : run->trace) {
    traced_flips += static_cast<uint64_t>(
        std::llround(stat.delta * static_cast<double>(graph.NumFacts())));
  }
  EXPECT_GT(traced_flips, 0u);
  EXPECT_EQ(registry.CounterValue("ltm_infer_flips_total"), traced_flips);
  bool saw_sweep_span = false;
  for (const obs::TraceEvent& event : obs::TraceRecorder::Global().Collect()) {
    if (std::string(event.name) == "gibbs_sweep") saw_sweep_span = true;
  }
  EXPECT_TRUE(saw_sweep_span);
}

// Full-precision golden on a 66-fact random world (RandomRaw(55) under
// SmallDataOptions()). The posterior means are multiples of 1/125 (125
// accumulated samples), so every entry is exact and any drift in the RNG
// stream, the draw order or the Eq. 2 arithmetic moves at least one of
// them. On this world the fused chain makes exactly the reference
// chain's flip decisions, so both kernels are pinned to this vector.
const std::vector<double>& RandomWorldGolden() {
  static const std::vector<double> golden{
      1.0, 1.0, 1.0, 1.0, 1.0, 0.888, 1.0, 1.0, 1.0, 1.0, 0.936, 1.0, 1.0,
      1.0, 1.0, 1.0, 1.0, 0.84, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 0.56, 0.6,
      1.0, 1.0, 0.952, 0.952, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 0.992, 0.8,
      0.832, 0.896, 1.0, 1.0, 1.0, 1.0, 0.992, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0,
      1.0, 1.0, 1.0, 1.0, 1.0, 0.976, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0};
  return golden;
}

void ExpectGolden(const TruthEstimate& est,
                  const std::vector<double>& golden) {
  ASSERT_EQ(est.probability.size(), golden.size());
  for (size_t f = 0; f < golden.size(); ++f) {
    EXPECT_DOUBLE_EQ(est.probability[f], golden[f]) << "f=" << f;
  }
}

TEST(LtmGibbsTest, ReferenceKernelPinsRandomWorldGolden) {
  const Dataset world = Dataset::FromRaw("world", testing::RandomRaw(55));
  LtmOptions opts = SmallDataOptions();
  opts.kernel = LtmKernel::kReference;
  ExpectGolden(LtmGibbs(world.graph, opts).Run(),
               RandomWorldGolden());

  auto method = CreateMethod("LTM(kernel=reference)", SmallDataOptions());
  ASSERT_TRUE(method.ok()) << method.status().ToString();
  ExpectGolden((*method)->Score(world.facts, world.graph),
               RandomWorldGolden());
}

TEST(LtmGibbsTest, FusedSingleShardPinsRandomWorldGolden) {
  const Dataset world = Dataset::FromRaw("world", testing::RandomRaw(55));
  LtmOptions opts = SmallDataOptions();
  opts.kernel = LtmKernel::kFused;
  ExpectGolden(LtmGibbs(world.graph, opts).Run(),
               RandomWorldGolden());

  auto method = CreateMethod("LTM(kernel=fused)", SmallDataOptions());
  ASSERT_TRUE(method.ok()) << method.status().ToString();
  ExpectGolden((*method)->Score(world.facts, world.graph),
               RandomWorldGolden());
}

// The lazy count build must be invisible: counts queried straight after
// construction (before any sweep or Initialize) equal a fresh recount of
// the graph against the constructor-drawn truth vector.
TEST(LtmGibbsTest, CountsAvailableRightAfterConstruction) {
  RawDatabase raw = testing::RandomRaw(91);
  FactTable facts = FactTable::Build(raw);
  ClaimGraph claims = ClaimGraph::Build(raw, facts);
  LtmGibbs sampler(claims, SmallDataOptions());
  std::vector<int64_t> recount(claims.NumSources() * 4, 0);
  for (FactId f = 0; f < claims.NumFacts(); ++f) {
    const int i = sampler.truth()[f];
    for (uint32_t entry : claims.FactClaims(f)) {
      ++recount[ClaimGraph::PackedId(entry) * 4 + i * 2 +
                ClaimGraph::PackedObs(entry)];
    }
  }
  for (SourceId s = 0; s < claims.NumSources(); ++s) {
    for (int i = 0; i < 2; ++i) {
      for (int j = 0; j < 2; ++j) {
        ASSERT_EQ(sampler.Count(s, i, j), recount[s * 4 + i * 2 + j])
            << "s=" << s << " i=" << i << " j=" << j;
      }
    }
  }
}

TEST(LtmGibbsTest, DeterministicForSeed) {
  RawDatabase raw = testing::RandomRaw(55);
  FactTable facts = FactTable::Build(raw);
  ClaimGraph claims = ClaimGraph::Build(raw, facts);
  LtmOptions opts = SmallDataOptions();
  TruthEstimate a = LtmGibbs(claims, opts).Run();
  TruthEstimate b = LtmGibbs(claims, opts).Run();
  EXPECT_EQ(a.probability, b.probability);
}

TEST(LtmGibbsTest, DifferentSeedsStillAgreeOnDecisions) {
  // Chains from different seeds should converge to the same posterior
  // mode on well-separated synthetic data.
  synth::LtmProcessOptions gen;
  gen.num_facts = 400;
  gen.num_sources = 12;
  gen.alpha0 = BetaPrior{5.0, 95.0};   // High specificity.
  gen.alpha1 = BetaPrior{80.0, 20.0};  // High sensitivity.
  gen.seed = 9;
  synth::LtmProcessData data = synth::GenerateLtmProcess(gen);

  LtmOptions opts;
  opts.alpha0 = BetaPrior{10.0, 400.0};
  opts.iterations = 120;
  opts.burnin = 20;
  opts.sample_gap = 2;

  opts.seed = 1;
  TruthEstimate a = LtmGibbs(data.graph, opts).Run();
  opts.seed = 2;
  TruthEstimate b = LtmGibbs(data.graph, opts).Run();
  size_t disagreements = 0;
  for (FactId f = 0; f < data.graph.NumFacts(); ++f) {
    if ((a.probability[f] >= 0.5) != (b.probability[f] >= 0.5)) {
      ++disagreements;
    }
  }
  EXPECT_LT(disagreements, data.graph.NumFacts() / 50);
}

TEST(LatentTruthModelTest, RecoversTruthOnGoodSyntheticData) {
  synth::LtmProcessOptions gen;
  gen.num_facts = 1000;
  gen.num_sources = 20;
  gen.alpha0 = BetaPrior{10.0, 90.0};
  gen.alpha1 = BetaPrior{90.0, 10.0};
  gen.seed = 21;
  synth::LtmProcessData data = synth::GenerateLtmProcess(gen);

  LtmOptions opts;
  opts.alpha0 = BetaPrior{10.0, 1000.0};
  opts.iterations = 100;
  opts.burnin = 20;
  opts.sample_gap = 4;
  LatentTruthModel model(opts);
  TruthEstimate est = model.Score(data.facts, data.graph);
  PointMetrics m = EvaluateAtThreshold(est.probability, data.truth, 0.5);
  EXPECT_GT(m.accuracy(), 0.95) << m.confusion.ToString();
}

TEST(LatentTruthModelTest, PaperExampleInference) {
  // On the enriched Table 1 example, LTM should keep all IMDB-supported
  // facts true; the key paper inference is about two-sided quality.
  Dataset ds = Dataset::FromRaw("paper", testing::PaperTable1());
  LatentTruthModel model(SmallDataOptions());
  SourceQuality quality;
  TruthEstimate est = model.RunWithQuality(ds.graph, &quality);

  auto fact_prob = [&](const std::string& e, const std::string& a) {
    auto eid = ds.raw.entities().Find(e);
    auto aid = ds.raw.attributes().Find(a);
    return est.probability[*ds.facts.Find(*eid, *aid)];
  };
  EXPECT_GT(fact_prob("Harry Potter", "Daniel Radcliffe"), 0.9);
  EXPECT_GT(fact_prob("Harry Potter", "Emma Watson"), 0.9);

  // Netflix asserted only correct facts: specificity must stay high.
  SourceId netflix = *ds.raw.sources().Find("Netflix");
  EXPECT_GT(quality.specificity[netflix], 0.9);
  // Netflix omitted two true cast members: sensitivity must be below
  // IMDB's, which asserted all of them (paper Example 4).
  SourceId imdb = *ds.raw.sources().Find("IMDB");
  EXPECT_LT(quality.sensitivity[netflix], quality.sensitivity[imdb]);
}

TEST(LatentTruthModelTest, LtmPosPredictsEverythingTrue) {
  // §6.2.1: without negative claims, every fact has only supporting
  // evidence, so all posterior probabilities land at or above 0.5.
  RawDatabase raw = testing::RandomRaw(77, 40, 4, 12, 0.6);
  FactTable facts = FactTable::Build(raw);
  ClaimGraph claims = ClaimGraph::Build(raw, facts);
  LtmOptions opts = SmallDataOptions();
  opts.positive_claims_only = true;
  LatentTruthModel model(opts);
  TruthEstimate est = model.Score(facts, claims);
  size_t below = 0;
  for (double p : est.probability) {
    if (p < 0.5) ++below;
  }
  EXPECT_EQ(below, 0u);
}

TEST(LatentTruthModelTest, NameReflectsVariant) {
  EXPECT_EQ(LatentTruthModel(LtmOptions()).name(), "LTM");
  LtmOptions pos;
  pos.positive_claims_only = true;
  EXPECT_EQ(LatentTruthModel(pos).name(), "LTMpos");
}

TEST(LatentTruthModelTest, InvalidOptionsFallBackToDefaults) {
  LtmOptions bad;
  bad.iterations = -5;
  bad.seed = 123;
  LatentTruthModel model(bad);
  EXPECT_TRUE(model.options().Validate().ok());
  EXPECT_EQ(model.options().seed, 123u);
}

TEST(LatentTruthModelTest, EmptyClaimGraph) {
  ClaimGraph empty;
  LatentTruthModel model(SmallDataOptions());
  FactTable facts;
  TruthEstimate est = model.Score(facts, empty);
  EXPECT_TRUE(est.probability.empty());
}

TEST(TruthEstimateTest, DecisionsUseThreshold) {
  TruthEstimate est;
  est.probability = {0.1, 0.5, 0.9};
  auto d = est.Decisions(0.5);
  EXPECT_EQ(d, (std::vector<bool>{false, true, true}));
  auto strict = est.Decisions(0.95);
  EXPECT_EQ(strict, (std::vector<bool>{false, false, false}));
}

}  // namespace
}  // namespace ltm
