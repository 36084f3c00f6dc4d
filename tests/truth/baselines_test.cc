#include <gtest/gtest.h>

#include "data/dataset.h"
#include "test_util.h"
#include "truth/avg_log.h"
#include "truth/hub_authority.h"
#include "truth/investment.h"
#include "truth/pooled_investment.h"
#include "truth/three_estimates.h"
#include "truth/truth_finder.h"
#include "truth/voting.h"

namespace ltm {
namespace {

class BaselineFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    ds_ = Dataset::FromRaw("paper", testing::PaperTable1());
  }

  double Score(const TruthEstimate& est, const std::string& e,
               const std::string& a) {
    auto eid = ds_.raw.entities().Find(e);
    auto aid = ds_.raw.attributes().Find(a);
    return est.probability[*ds_.facts.Find(*eid, *aid)];
  }

  Dataset ds_;
};

TEST_F(BaselineFixture, VotingProportionsMatchTable3) {
  Voting voting;
  TruthEstimate est = voting.Score(ds_.facts, ds_.graph);
  // Radcliffe: 3/3 positive, Watson: 2/3, Grint: 1/3, Depp@HP: 1/3,
  // Depp@P4: 1/1.
  EXPECT_DOUBLE_EQ(Score(est, "Harry Potter", "Daniel Radcliffe"), 1.0);
  EXPECT_NEAR(Score(est, "Harry Potter", "Emma Watson"), 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(Score(est, "Harry Potter", "Rupert Grint"), 1.0 / 3.0, 1e-12);
  EXPECT_NEAR(Score(est, "Harry Potter", "Johnny Depp"), 1.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(Score(est, "Pirates 4", "Johnny Depp"), 1.0);
}

TEST_F(BaselineFixture, VotingCannotSeparateGrintFromDepp) {
  // The paper's motivating failure (Example 1): both land at 1/3, so any
  // threshold treats them identically.
  Voting voting;
  TruthEstimate est = voting.Score(ds_.facts, ds_.graph);
  EXPECT_DOUBLE_EQ(Score(est, "Harry Potter", "Rupert Grint"),
                   Score(est, "Harry Potter", "Johnny Depp"));
}

TEST_F(BaselineFixture, TruthFinderScoresAtLeastHalf) {
  // Structural over-optimism: dampened sigmoid of non-negative support.
  TruthFinder tf;
  TruthEstimate est = tf.Score(ds_.facts, ds_.graph);
  for (double p : est.probability) {
    EXPECT_GE(p, 0.5);
    EXPECT_LE(p, 1.0);
  }
}

TEST_F(BaselineFixture, TruthFinderRanksBySupport) {
  TruthFinder tf;
  TruthEstimate est = tf.Score(ds_.facts, ds_.graph);
  EXPECT_GT(Score(est, "Harry Potter", "Daniel Radcliffe"),
            Score(est, "Harry Potter", "Rupert Grint"));
}

TEST_F(BaselineFixture, HubAuthorityMaxNormalized) {
  HubAuthority ha;
  TruthEstimate est = ha.Score(ds_.facts, ds_.graph);
  double max_score = 0.0;
  for (double p : est.probability) {
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
    max_score = std::max(max_score, p);
  }
  EXPECT_DOUBLE_EQ(max_score, 1.0);
  // Best-supported fact gets the top score.
  EXPECT_DOUBLE_EQ(Score(est, "Harry Potter", "Daniel Radcliffe"), 1.0);
}

TEST_F(BaselineFixture, HubAuthorityIsConservative) {
  // Facts asserted by a single low-degree source score far below 0.5 —
  // the paper's "overly conservative" family.
  HubAuthority ha;
  TruthEstimate est = ha.Score(ds_.facts, ds_.graph);
  EXPECT_LT(Score(est, "Pirates 4", "Johnny Depp"), 0.5);
}

TEST_F(BaselineFixture, AvgLogBoundsAndRanking) {
  AvgLog al;
  TruthEstimate est = al.Score(ds_.facts, ds_.graph);
  for (double p : est.probability) {
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
  }
  EXPECT_GE(Score(est, "Harry Potter", "Daniel Radcliffe"),
            Score(est, "Harry Potter", "Rupert Grint"));
}

TEST_F(BaselineFixture, InvestmentBoundsAndRanking) {
  Investment inv;
  TruthEstimate est = inv.Score(ds_.facts, ds_.graph);
  for (double p : est.probability) {
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
  }
  EXPECT_GE(Score(est, "Harry Potter", "Daniel Radcliffe"),
            Score(est, "Harry Potter", "Johnny Depp"));
}

TEST_F(BaselineFixture, PooledInvestmentPoolsWithinEntity) {
  PooledInvestment pi;
  TruthEstimate est = pi.Score(ds_.facts, ds_.graph);
  // Beliefs of one entity's facts are shares of a pool: they are bounded
  // by the pool total (<= 1 each, and the 4 HP facts cannot all be ~1).
  double hp_sum = Score(est, "Harry Potter", "Daniel Radcliffe") +
                  Score(est, "Harry Potter", "Emma Watson") +
                  Score(est, "Harry Potter", "Rupert Grint") +
                  Score(est, "Harry Potter", "Johnny Depp");
  EXPECT_LE(hp_sum, 1.5);
  for (double p : est.probability) {
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
  }
}

TEST_F(BaselineFixture, ThreeEstimatesUsesNegativeClaims) {
  ThreeEstimates te;
  TruthEstimate est = te.Score(ds_.facts, ds_.graph);
  for (double p : est.probability) {
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
  }
  // Depp@HP has 1 positive vs 2 negative claims; Radcliffe has 3 positive.
  EXPECT_GT(Score(est, "Harry Potter", "Daniel Radcliffe"),
            Score(est, "Harry Potter", "Johnny Depp"));
}

TEST_F(BaselineFixture, AllMethodsSizeOutputToFactCount) {
  std::vector<std::unique_ptr<TruthMethod>> methods;
  methods.emplace_back(new Voting());
  methods.emplace_back(new TruthFinder());
  methods.emplace_back(new HubAuthority());
  methods.emplace_back(new AvgLog());
  methods.emplace_back(new Investment());
  methods.emplace_back(new PooledInvestment());
  methods.emplace_back(new ThreeEstimates());
  for (const auto& m : methods) {
    TruthEstimate est = m->Score(ds_.facts, ds_.graph);
    EXPECT_EQ(est.probability.size(), ds_.facts.NumFacts()) << m->name();
  }
}

TEST_F(BaselineFixture, AllMethodsHandleEmptyInput) {
  FactTable facts;
  ClaimGraph claims;
  std::vector<std::unique_ptr<TruthMethod>> methods;
  methods.emplace_back(new Voting());
  methods.emplace_back(new TruthFinder());
  methods.emplace_back(new HubAuthority());
  methods.emplace_back(new AvgLog());
  methods.emplace_back(new Investment());
  methods.emplace_back(new PooledInvestment());
  methods.emplace_back(new ThreeEstimates());
  for (const auto& m : methods) {
    TruthEstimate est = m->Score(facts, claims);
    EXPECT_TRUE(est.probability.empty()) << m->name();
  }
}

// Property across random databases: every method emits scores in [0, 1]
// and is deterministic.
class BaselinePropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BaselinePropertyTest, BoundedAndDeterministic) {
  RawDatabase raw = testing::RandomRaw(GetParam(), 25, 3, 8, 0.5);
  FactTable facts = FactTable::Build(raw);
  ClaimGraph claims = ClaimGraph::Build(raw, facts);
  std::vector<std::unique_ptr<TruthMethod>> methods;
  methods.emplace_back(new Voting());
  methods.emplace_back(new TruthFinder());
  methods.emplace_back(new HubAuthority());
  methods.emplace_back(new AvgLog());
  methods.emplace_back(new Investment());
  methods.emplace_back(new PooledInvestment());
  methods.emplace_back(new ThreeEstimates());
  for (const auto& m : methods) {
    TruthEstimate a = m->Score(facts, claims);
    TruthEstimate b = m->Score(facts, claims);
    EXPECT_EQ(a.probability, b.probability) << m->name();
    for (double p : a.probability) {
      ASSERT_GE(p, 0.0) << m->name();
      ASSERT_LE(p, 1.0) << m->name();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BaselinePropertyTest,
                         ::testing::Values(101, 202, 303, 404));

}  // namespace
}  // namespace ltm
