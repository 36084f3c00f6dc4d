#include "common/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

namespace ltm {
namespace {

TEST(SplitMix64Test, DeterministicForSeed) {
  SplitMix64 a(123);
  SplitMix64 b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(SplitMix64Test, DifferentSeedsDiverge) {
  SplitMix64 a(1);
  SplitMix64 b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++equal;
  }
  EXPECT_EQ(equal, 0);
}

TEST(Pcg32Test, ReproducibleStream) {
  Pcg32 a(42);
  Pcg32 b(42);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 10000; ++i) {
    double u = rng.Uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformMeanNearHalf) {
  Rng rng(11);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.Uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(RngTest, UniformIntRangeAndCoverage) {
  Rng rng(13);
  std::vector<int> counts(7, 0);
  for (int i = 0; i < 7000; ++i) {
    uint64_t v = rng.UniformInt(7);
    ASSERT_LT(v, 7u);
    ++counts[v];
  }
  for (int c : counts) {
    EXPECT_GT(c, 700);  // Roughly uniform (expected 1000).
    EXPECT_LT(c, 1300);
  }
}

TEST(RngTest, UniformIntOfOneIsZero) {
  Rng rng(1);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.UniformInt(1), 0u);
}

TEST(RngTest, BernoulliEdgeCases) {
  Rng rng(5);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
    EXPECT_FALSE(rng.Bernoulli(-0.5));
    EXPECT_TRUE(rng.Bernoulli(1.5));
  }
}

TEST(RngTest, BernoulliFrequencyMatchesP) {
  Rng rng(17);
  const double p = 0.3;
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    if (rng.Bernoulli(p)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, p, 0.01);
}

TEST(RngTest, GammaMeanMatchesShape) {
  // E[Gamma(k, 1)] = k.
  for (double shape : {0.5, 1.0, 2.5, 9.0}) {
    Rng rng(static_cast<uint64_t>(shape * 100) + 3);
    double sum = 0.0;
    const int n = 50000;
    for (int i = 0; i < n; ++i) sum += rng.Gamma(shape);
    EXPECT_NEAR(sum / n, shape, shape * 0.05) << "shape=" << shape;
  }
}

TEST(RngTest, GammaIsPositive) {
  Rng rng(23);
  for (int i = 0; i < 10000; ++i) {
    ASSERT_GT(rng.Gamma(0.3), 0.0);
  }
}

struct BetaParam {
  double a;
  double b;
};

class RngBetaTest : public ::testing::TestWithParam<BetaParam> {};

TEST_P(RngBetaTest, MomentsMatchDistribution) {
  const auto [a, b] = GetParam();
  Rng rng(static_cast<uint64_t>(a * 1000 + b));
  const int n = 50000;
  double sum = 0.0;
  double sq = 0.0;
  for (int i = 0; i < n; ++i) {
    double x = rng.Beta(a, b);
    ASSERT_GE(x, 0.0);
    ASSERT_LE(x, 1.0);
    sum += x;
    sq += x * x;
  }
  const double mean = sum / n;
  const double expected_mean = a / (a + b);
  const double expected_var =
      a * b / ((a + b) * (a + b) * (a + b + 1.0));
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, expected_mean, 0.01);
  EXPECT_NEAR(var, expected_var, expected_var * 0.15 + 1e-4);
}

INSTANTIATE_TEST_SUITE_P(BetaSweep, RngBetaTest,
                         ::testing::Values(BetaParam{1, 1}, BetaParam{2, 5},
                                           BetaParam{10, 90},
                                           BetaParam{90, 10},
                                           BetaParam{0.5, 0.5},
                                           BetaParam{50, 50}));

TEST(RngTest, NormalMoments) {
  Rng rng(31);
  const int n = 100000;
  double sum = 0.0;
  double sq = 0.0;
  for (int i = 0; i < n; ++i) {
    double x = rng.Normal();
    sum += x;
    sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sq / n, 1.0, 0.03);
}

TEST(RngTest, NormalWithParams) {
  Rng rng(37);
  const int n = 50000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += rng.Normal(10.0, 2.0);
  EXPECT_NEAR(sum / n, 10.0, 0.1);
}

TEST(RngTest, PoissonMeanSmallLambda) {
  Rng rng(41);
  const double lambda = 1.2;
  const int n = 50000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += rng.Poisson(lambda);
  EXPECT_NEAR(sum / n, lambda, 0.05);
}

TEST(RngTest, PoissonLargeLambdaUsesNormalApprox) {
  Rng rng(43);
  const double lambda = 100.0;
  const int n = 20000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += rng.Poisson(lambda);
  EXPECT_NEAR(sum / n, lambda, 1.0);
}

TEST(RngTest, PoissonZeroLambda) {
  Rng rng(47);
  EXPECT_EQ(rng.Poisson(0.0), 0u);
  EXPECT_EQ(rng.Poisson(-1.0), 0u);
}

TEST(RngTest, ZipfStaysInRangeAndSkewsLow) {
  Rng rng(53);
  const uint64_t n = 100;
  int low_ranks = 0;
  const int draws = 20000;
  for (int i = 0; i < draws; ++i) {
    uint64_t z = rng.Zipf(n, 1.5);
    ASSERT_LT(z, n);
    if (z < 10) ++low_ranks;
  }
  // With s=1.5 the first 10 ranks should dominate.
  EXPECT_GT(low_ranks, draws / 2);
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(59);
  std::vector<int> v(100);
  std::iota(v.begin(), v.end(), 0);
  std::vector<int> orig = v;
  rng.Shuffle(&v);
  EXPECT_NE(v, orig);  // Astronomically unlikely to match.
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(RngTest, ShuffleEmptyAndSingleton) {
  Rng rng(61);
  std::vector<int> empty;
  rng.Shuffle(&empty);
  EXPECT_TRUE(empty.empty());
  std::vector<int> one{7};
  rng.Shuffle(&one);
  EXPECT_EQ(one, std::vector<int>{7});
}

TEST(RngTest, ForkProducesIndependentStreams) {
  Rng parent(67);
  Rng a = parent.Fork(1);
  Rng b = parent.Fork(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.UniformInt(1000000) == b.UniformInt(1000000)) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(RngTest, SameSeedSameSequence) {
  Rng a(71);
  Rng b(71);
  for (int i = 0; i < 100; ++i) {
    ASSERT_DOUBLE_EQ(a.Uniform(), b.Uniform());
  }
}

}  // namespace
}  // namespace ltm
