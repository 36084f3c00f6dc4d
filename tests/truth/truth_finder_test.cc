// Focused tests for the TruthFinder baseline (Yin, Han & Yu, KDD 2007):
// trust dynamics, dampening, convergence and option plumbing.

#include "truth/truth_finder.h"

#include <gtest/gtest.h>

#include <cmath>

#include "data/dataset.h"
#include "test_util.h"

namespace ltm {
namespace {

TEST(TruthFinderTest, MoreSupportersMeansHigherConfidence) {
  std::vector<Claim> claims{{0, 0, true}, {0, 1, true}, {0, 2, true},
                            {1, 0, true}};
  ClaimGraph table = ClaimGraph::FromClaims(std::move(claims), 2, 3);
  FactTable facts;
  TruthFinder tf;
  TruthEstimate est = tf.Score(facts, table);
  EXPECT_GT(est.probability[0], est.probability[1]);
}

TEST(TruthFinderTest, IgnoresNegativeClaims) {
  // Adding denials must not change any score: TruthFinder is
  // positive-claims-only (§6.2).
  std::vector<Claim> base{{0, 0, true}, {1, 1, true}};
  std::vector<Claim> with_neg = base;
  with_neg.push_back({0, 1, false});
  with_neg.push_back({1, 0, false});
  FactTable facts;
  TruthFinder tf;
  TruthEstimate a =
      tf.Score(facts, ClaimGraph::FromClaims(std::move(base), 2, 2));
  TruthEstimate b =
      tf.Score(facts, ClaimGraph::FromClaims(std::move(with_neg), 2, 2));
  EXPECT_EQ(a.probability, b.probability);
}

TEST(TruthFinderTest, DampeningControlsSaturation) {
  std::vector<Claim> claims{{0, 0, true}, {0, 1, true}, {0, 2, true}};
  FactTable facts;
  TruthFinderOptions weak;
  weak.dampening = 0.1;
  TruthFinderOptions strong;
  strong.dampening = 1.0;
  ClaimGraph table = ClaimGraph::FromClaims(std::move(claims), 1, 3);
  TruthEstimate w = TruthFinder(weak).Score(facts, table);
  TruthEstimate s = TruthFinder(strong).Score(facts, table);
  // Stronger dampening factor amplifies support into higher confidence.
  EXPECT_LT(w.probability[0], s.probability[0]);
  EXPECT_GE(w.probability[0], 0.5);
}

TEST(TruthFinderTest, ConvergesOnLargerData) {
  RawDatabase raw = testing::RandomRaw(83, 40, 4, 10, 0.6);
  FactTable facts = FactTable::Build(raw);
  ClaimGraph claims = ClaimGraph::Build(raw, facts);
  TruthFinderOptions tight;
  tight.tolerance = 1e-9;
  tight.max_iterations = 500;
  TruthFinderOptions loose;
  loose.tolerance = 1e-9;
  loose.max_iterations = 1000;
  TruthEstimate a = TruthFinder(tight).Score(facts, claims);
  TruthEstimate b = TruthFinder(loose).Score(facts, claims);
  for (FactId f = 0; f < claims.NumFacts(); ++f) {
    EXPECT_NEAR(a.probability[f], b.probability[f], 1e-6);
  }
}

TEST(TruthFinderTest, PerfectInitialTrustDoesNotBlowUp) {
  // initial_trust = 1 would make -ln(1 - t) infinite; the implementation
  // caps trust below 1.
  TruthFinderOptions opts;
  opts.initial_trust = 1.0;
  std::vector<Claim> claims{{0, 0, true}};
  FactTable facts;
  TruthEstimate est =
      TruthFinder(opts).Score(facts, ClaimGraph::FromClaims(std::move(claims), 1, 1));
  EXPECT_TRUE(std::isfinite(est.probability[0]));
  EXPECT_LE(est.probability[0], 1.0);
}

}  // namespace
}  // namespace ltm
