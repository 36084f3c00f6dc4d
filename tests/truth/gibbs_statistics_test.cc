// Statistical behaviour of the collapsed Gibbs sampler beyond point
// correctness: posterior-mean stability across chains, mixing under label
// flips, behaviour at prior extremes, and robustness to degenerate claim
// patterns (failure injection).

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "synth/ltm_process.h"
#include "test_util.h"
#include "truth/exact_inference.h"
#include "truth/ltm.h"

namespace ltm {
namespace {

LtmOptions ChainOptions(uint64_t seed) {
  LtmOptions opts;
  opts.alpha0 = BetaPrior{1.0, 20.0};
  opts.alpha1 = BetaPrior{2.0, 2.0};
  opts.beta = BetaPrior{1.0, 1.0};
  opts.iterations = 2000;
  opts.burnin = 400;
  opts.sample_gap = 1;
  opts.seed = seed;
  return opts;
}

TEST(GibbsStatisticsTest, IndependentChainsAgreeOnMarginals) {
  RawDatabase raw = testing::RandomRaw(1234, 12, 3, 5, 0.7);
  FactTable facts = FactTable::Build(raw);
  ClaimGraph claims = ClaimGraph::Build(raw, facts);

  TruthEstimate a = LtmGibbs(claims, ChainOptions(1)).Run();
  TruthEstimate b = LtmGibbs(claims, ChainOptions(2)).Run();
  for (FactId f = 0; f < claims.NumFacts(); ++f) {
    EXPECT_NEAR(a.probability[f], b.probability[f], 0.08) << "fact " << f;
  }
}

TEST(GibbsStatisticsTest, AllPositiveUnanimousFactsGoTrue) {
  // 5 sources, all asserting every fact: posterior must be ~1 everywhere
  // under a high-specificity prior (a positive claim under t=0 is rare).
  std::vector<Claim> claims;
  for (FactId f = 0; f < 10; ++f) {
    for (SourceId s = 0; s < 5; ++s) claims.push_back({f, s, true});
  }
  ClaimGraph table = ClaimGraph::FromClaims(std::move(claims), 10, 5);
  TruthEstimate est = LtmGibbs(table, ChainOptions(3)).Run();
  for (double p : est.probability) EXPECT_GT(p, 0.9);
}

TEST(GibbsStatisticsTest, AllNegativeUnanimousFactsGoFalse) {
  // Facts denied by everyone (plus one supported anchor fact so
  // sensitivity is identifiable) end up false.
  std::vector<Claim> claims;
  for (SourceId s = 0; s < 5; ++s) claims.push_back({0, s, true});
  for (FactId f = 1; f < 8; ++f) {
    for (SourceId s = 0; s < 5; ++s) claims.push_back({f, s, false});
  }
  ClaimGraph table = ClaimGraph::FromClaims(std::move(claims), 8, 5);
  TruthEstimate est = LtmGibbs(table, ChainOptions(4)).Run();
  EXPECT_GT(est.probability[0], 0.5);
  for (FactId f = 1; f < 8; ++f) {
    EXPECT_LT(est.probability[f], 0.3) << "fact " << f;
  }
}

TEST(GibbsStatisticsTest, ExtremeTruthPriorDominatesWeakEvidence) {
  // beta = (1, 999): a single positive claim cannot rescue a fact.
  ClaimGraph table = ClaimGraph::FromClaims({{0, 0, true}}, 1, 1);
  LtmOptions opts = ChainOptions(5);
  opts.beta = BetaPrior{1.0, 999.0};
  TruthEstimate est = LtmGibbs(table, opts).Run();
  EXPECT_LT(est.probability[0], 0.1);

  opts.beta = BetaPrior{999.0, 1.0};
  TruthEstimate est2 = LtmGibbs(table, opts).Run();
  EXPECT_GT(est2.probability[0], 0.9);
}

TEST(GibbsStatisticsTest, SingleSourceSelfConsistency) {
  // One source only: its quality is unidentifiable beyond the prior, and
  // the sampler must neither crash nor produce out-of-range output.
  std::vector<Claim> claims;
  Rng rng(6);
  for (FactId f = 0; f < 30; ++f) {
    claims.push_back({f, 0, rng.Bernoulli(0.7)});
  }
  ClaimGraph table = ClaimGraph::FromClaims(std::move(claims), 30, 1);
  TruthEstimate est = LtmGibbs(table, ChainOptions(7)).Run();
  for (double p : est.probability) {
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
  }
}

TEST(GibbsStatisticsTest, FactsWithNoClaimsFollowTruthPrior) {
  // Fact 1 has no claims at all: its conditional is driven by beta only
  // (Eq. 2 with an empty product), so the posterior mean approaches
  // beta1 / (beta1 + beta0).
  ClaimGraph table = ClaimGraph::FromClaims({{0, 0, true}}, 2, 1);
  LtmOptions opts = ChainOptions(8);
  opts.beta = BetaPrior{3.0, 1.0};
  TruthEstimate est = LtmGibbs(table, opts).Run();
  EXPECT_NEAR(est.probability[1], 0.75, 0.05);
}

TEST(GibbsStatisticsTest, QualityRecoveryOnGenerativeData) {
  // Sources drawn from known quality; inferred sensitivity must correlate
  // with the generating values.
  synth::LtmProcessOptions gen;
  gen.num_facts = 2000;
  gen.num_sources = 15;
  gen.alpha0 = BetaPrior{5.0, 95.0};
  gen.alpha1 = BetaPrior{30.0, 30.0};  // Broad spread of sensitivities.
  gen.seed = 31;
  synth::LtmProcessData data = synth::GenerateLtmProcess(gen);

  LtmOptions opts = LtmOptions::ScaledDefaults(gen.num_facts);
  opts.iterations = 150;
  opts.burnin = 30;
  opts.sample_gap = 2;
  LatentTruthModel model(opts);
  SourceQuality quality;
  model.RunWithQuality(data.graph, &quality);

  // Pearson correlation between generating and inferred sensitivity.
  double sx = 0, sy = 0, sxx = 0, syy = 0, sxy = 0;
  const double n = gen.num_sources;
  for (size_t s = 0; s < gen.num_sources; ++s) {
    const double x = data.true_sensitivity[s];
    const double y = quality.sensitivity[s];
    sx += x;
    sy += y;
    sxx += x * x;
    syy += y * y;
    sxy += x * y;
  }
  const double corr = (n * sxy - sx * sy) /
                      std::sqrt((n * sxx - sx * sx) * (n * syy - sy * sy));
  EXPECT_GT(corr, 0.9);
}

// Failure injection: duplicate claims, conflicting duplicate claims and
// empty structures must not corrupt the sampler's counts.
TEST(GibbsStatisticsTest, DegenerateInputsAreSafe) {
  // FromClaims dedups (fact, source) pairs; feed adversarial duplicates.
  std::vector<Claim> messy{{0, 0, true},  {0, 0, false}, {0, 0, true},
                           {1, 0, false}, {1, 0, false}};
  ClaimGraph table = ClaimGraph::FromClaims(std::move(messy), 3, 2);
  EXPECT_EQ(table.NumClaims(), 2u);
  LtmGibbs sampler(table, ChainOptions(9));
  for (int i = 0; i < 50; ++i) sampler.RunSweep();
  int64_t total = 0;
  for (SourceId s = 0; s < table.NumSources(); ++s) {
    for (int i = 0; i < 2; ++i) {
      for (int j = 0; j < 2; ++j) total += sampler.Count(s, i, j);
    }
  }
  EXPECT_EQ(total, static_cast<int64_t>(table.NumClaims()));
}

}  // namespace
}  // namespace ltm
