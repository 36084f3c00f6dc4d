// Focused tests for the 3-Estimates baseline (Galland et al., WSDM 2010)
// beyond the cross-method checks in baselines_test.cc: difficulty
// handling, negative-claim usage, and option plumbing.

#include "truth/three_estimates.h"

#include <gtest/gtest.h>

#include <cmath>

#include "data/dataset.h"
#include "test_util.h"

namespace ltm {
namespace {

TEST(ThreeEstimatesTest, UnanimousPositiveBeatsContested) {
  // Fact 0: 3 supporters, no denials. Fact 1: 1 supporter, 2 denials.
  std::vector<Claim> claims{{0, 0, true},  {0, 1, true},  {0, 2, true},
                            {1, 0, false}, {1, 1, false}, {1, 2, true}};
  ClaimGraph table = ClaimGraph::FromClaims(std::move(claims), 2, 3);
  FactTable facts = FactTable::FromFactList({{0, 0}, {0, 1}});
  ThreeEstimates te;
  TruthEstimate est = te.Score(facts, table);
  EXPECT_GT(est.probability[0], est.probability[1]);
  EXPECT_GT(est.probability[0], 0.5);
  EXPECT_LT(est.probability[1], 0.5);
}

TEST(ThreeEstimatesTest, NegativeClaimsChangeTheAnswer) {
  // Same positive support; only the negative claims distinguish the facts.
  std::vector<Claim> with_denials{{0, 0, true}, {0, 1, false}, {0, 2, false},
                                  {1, 0, true}};
  ClaimGraph table = ClaimGraph::FromClaims(std::move(with_denials), 2, 3);
  FactTable facts = FactTable::FromFactList({{0, 0}, {0, 1}});
  ThreeEstimates te;
  TruthEstimate est = te.Score(facts, table);
  EXPECT_LT(est.probability[0], est.probability[1]);
}

TEST(ThreeEstimatesTest, FloorPreventsDegenerateDivision) {
  // A source with error driven to the floor must not produce NaN/Inf.
  ThreeEstimatesOptions opts;
  opts.floor = 1e-3;
  opts.iterations = 200;
  std::vector<Claim> claims;
  for (FactId f = 0; f < 20; ++f) {
    claims.push_back({f, 0, true});
    claims.push_back({f, 1, true});
  }
  ClaimGraph table = ClaimGraph::FromClaims(std::move(claims), 20, 2);
  FactTable facts;
  ThreeEstimates te(opts);
  TruthEstimate est = te.Score(facts, table);
  for (double p : est.probability) {
    EXPECT_TRUE(std::isfinite(p));
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
  }
}

TEST(ThreeEstimatesTest, MoreIterationsStayStable) {
  RawDatabase raw = testing::RandomRaw(71);
  FactTable facts = FactTable::Build(raw);
  ClaimGraph claims = ClaimGraph::Build(raw, facts);
  ThreeEstimatesOptions short_opts;
  short_opts.iterations = 100;
  ThreeEstimatesOptions long_opts;
  long_opts.iterations = 400;
  TruthEstimate a = ThreeEstimates(short_opts).Score(facts, claims);
  TruthEstimate b = ThreeEstimates(long_opts).Score(facts, claims);
  // Converged fixed point: decisions agree on nearly all facts.
  size_t disagree = 0;
  for (FactId f = 0; f < claims.NumFacts(); ++f) {
    if ((a.probability[f] >= 0.5) != (b.probability[f] >= 0.5)) ++disagree;
  }
  EXPECT_LE(disagree, claims.NumFacts() / 20);
}

}  // namespace
}  // namespace ltm
