#include "data/claim_stats.h"

#include <gtest/gtest.h>

#include "test_util.h"

namespace ltm {
namespace {

TEST(ClaimStatsTest, PaperExampleCounts) {
  RawDatabase raw = testing::PaperTable1();
  FactTable facts = FactTable::Build(raw);
  ClaimGraph claims = ClaimGraph::Build(raw, facts);
  ClaimStats stats = ComputeClaimStats(facts, claims);

  EXPECT_EQ(stats.num_facts, 5u);
  EXPECT_EQ(stats.num_claims, 13u);
  EXPECT_EQ(stats.num_positive, 8u);
  EXPECT_EQ(stats.num_sources, 4u);
  EXPECT_EQ(stats.active_sources, 4u);
  EXPECT_NEAR(stats.mean_claims_per_fact, 13.0 / 5.0, 1e-12);
  // Harry Potter facts each have 3 claims; Pirates 4 has 1.
  EXPECT_EQ(stats.max_claims_per_fact, 3u);
  EXPECT_EQ(stats.max_facts_per_entity, 4u);
  EXPECT_NEAR(stats.mean_facts_per_entity, 2.5, 1e-12);
}

TEST(ClaimStatsTest, SupportHistogramSums) {
  RawDatabase raw = testing::RandomRaw(9);
  FactTable facts = FactTable::Build(raw);
  ClaimGraph claims = ClaimGraph::Build(raw, facts);
  ClaimStats stats = ComputeClaimStats(facts, claims);
  size_t total = 0;
  for (size_t c : stats.positive_support_histogram) total += c;
  EXPECT_EQ(total, stats.num_facts);
  // Every materialized fact has at least one positive claim.
  EXPECT_EQ(stats.positive_support_histogram[0], 0u);
}

TEST(ClaimStatsTest, EmptyTableIsSafe) {
  FactTable facts;
  ClaimGraph claims;
  ClaimStats stats = ComputeClaimStats(facts, claims);
  EXPECT_EQ(stats.num_facts, 0u);
  EXPECT_EQ(stats.num_claims, 0u);
  EXPECT_EQ(stats.active_sources, 0u);
  EXPECT_FALSE(stats.ToString().empty());
}

TEST(ClaimStatsTest, InactiveSourcesExcludedFromMeans) {
  // Source id space of 5, but only 2 sources make claims.
  ClaimGraph claims = ClaimGraph::FromClaims(
      {{0, 0, true}, {0, 1, true}, {1, 0, true}}, 2, 5);
  FactTable facts = FactTable::FromFactList({{0, 0}, {0, 1}});
  ClaimStats stats = ComputeClaimStats(facts, claims);
  EXPECT_EQ(stats.num_sources, 5u);
  EXPECT_EQ(stats.active_sources, 2u);
  EXPECT_NEAR(stats.mean_claims_per_active_source, 1.5, 1e-12);
  EXPECT_EQ(stats.max_claims_per_source, 2u);
}

}  // namespace
}  // namespace ltm
