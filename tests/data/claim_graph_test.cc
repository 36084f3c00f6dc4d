#include "data/claim_graph.h"

#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "data/fact_table.h"
#include "data/raw_database.h"
#include "test_util.h"

namespace ltm {
namespace {

ClaimGraph BuildGraph(uint64_t seed) {
  RawDatabase raw = testing::RandomRaw(seed);
  FactTable facts = FactTable::Build(raw);
  return ClaimGraph::Build(raw, facts);
}

/// The graph's fact side unpacked back into claims, fact-major.
std::vector<Claim> Unpack(const ClaimGraph& g) {
  std::vector<Claim> claims;
  for (FactId f = 0; f < g.NumFacts(); ++f) {
    for (uint32_t entry : g.FactClaims(f)) {
      claims.push_back({f, ClaimGraph::PackedId(entry),
                        ClaimGraph::PackedObs(entry) == 1});
    }
  }
  return claims;
}

class PaperExampleTest : public ::testing::Test {
 protected:
  void SetUp() override {
    raw_ = testing::PaperTable1();
    facts_ = FactTable::Build(raw_);
    claims_ = ClaimGraph::Build(raw_, facts_);
  }

  std::optional<FactId> FindFact(const std::string& e, const std::string& a) {
    auto eid = raw_.entities().Find(e);
    auto aid = raw_.attributes().Find(a);
    if (!eid || !aid) return std::nullopt;
    return facts_.Find(*eid, *aid);
  }

  std::optional<bool> Observation(FactId f, const std::string& source) {
    auto sid = raw_.sources().Find(source);
    if (!sid) return std::nullopt;
    for (uint32_t entry : claims_.FactClaims(f)) {
      if (ClaimGraph::PackedId(entry) == *sid) {
        return ClaimGraph::PackedObs(entry) == 1;
      }
    }
    return std::nullopt;
  }

  RawDatabase raw_;
  FactTable facts_;
  ClaimGraph claims_;
};

// Definition 2: 5 distinct facts from Table 1.
TEST_F(PaperExampleTest, FactTableMatchesTable2) {
  EXPECT_EQ(facts_.NumFacts(), 5u);
  EXPECT_TRUE(FindFact("Harry Potter", "Daniel Radcliffe").has_value());
  EXPECT_TRUE(FindFact("Harry Potter", "Emma Watson").has_value());
  EXPECT_TRUE(FindFact("Harry Potter", "Rupert Grint").has_value());
  EXPECT_TRUE(FindFact("Harry Potter", "Johnny Depp").has_value());
  EXPECT_TRUE(FindFact("Pirates 4", "Johnny Depp").has_value());
}

// Definition 3 / Table 3: 13 claims with the exact observations.
TEST_F(PaperExampleTest, ClaimGraphMatchesTable3) {
  EXPECT_EQ(claims_.NumClaims(), 13u);
  EXPECT_EQ(claims_.NumPositiveClaims(), 8u);
  EXPECT_EQ(claims_.NumNegativeClaims(), 5u);

  auto radcliffe = *FindFact("Harry Potter", "Daniel Radcliffe");
  EXPECT_EQ(Observation(radcliffe, "IMDB"), true);
  EXPECT_EQ(Observation(radcliffe, "Netflix"), true);
  EXPECT_EQ(Observation(radcliffe, "BadSource.com"), true);
  // Hulu.com never asserted anything about Harry Potter: no claim at all.
  EXPECT_EQ(Observation(radcliffe, "Hulu.com"), std::nullopt);

  auto watson = *FindFact("Harry Potter", "Emma Watson");
  EXPECT_EQ(Observation(watson, "IMDB"), true);
  EXPECT_EQ(Observation(watson, "Netflix"), false);  // Negative claim.
  EXPECT_EQ(Observation(watson, "BadSource.com"), true);

  auto grint = *FindFact("Harry Potter", "Rupert Grint");
  EXPECT_EQ(Observation(grint, "IMDB"), true);
  EXPECT_EQ(Observation(grint, "Netflix"), false);
  EXPECT_EQ(Observation(grint, "BadSource.com"), false);

  auto depp_hp = *FindFact("Harry Potter", "Johnny Depp");
  EXPECT_EQ(Observation(depp_hp, "IMDB"), false);
  EXPECT_EQ(Observation(depp_hp, "Netflix"), false);
  EXPECT_EQ(Observation(depp_hp, "BadSource.com"), true);

  auto depp_p4 = *FindFact("Pirates 4", "Johnny Depp");
  EXPECT_EQ(Observation(depp_p4, "Hulu.com"), true);
  EXPECT_EQ(Observation(depp_p4, "IMDB"), std::nullopt);
}

TEST_F(PaperExampleTest, PositiveClaimsPrecedeNegativeWithinFact) {
  for (FactId f = 0; f < claims_.NumFacts(); ++f) {
    bool seen_negative = false;
    for (uint32_t entry : claims_.FactClaims(f)) {
      if (!ClaimGraph::PackedObs(entry)) seen_negative = true;
      if (seen_negative) {
        EXPECT_EQ(ClaimGraph::PackedObs(entry), 0);
      }
    }
  }
}

TEST(ClaimGraphFromClaimsTest, SortsAndDedups) {
  std::vector<Claim> input{
      {2, 0, false}, {0, 1, true}, {0, 0, false}, {1, 0, true},
      {0, 1, false},  // Duplicate (fact 0, source 1): first kept.
  };
  ClaimGraph g = ClaimGraph::FromClaims(input, 3, 2);
  EXPECT_EQ(g.NumClaims(), 4u);
  auto f0 = g.FactClaims(0);
  ASSERT_EQ(f0.size(), 2u);
  EXPECT_EQ(ClaimGraph::PackedObs(f0[0]), 1);  // Positive first.
  EXPECT_EQ(ClaimGraph::PackedId(f0[0]), 1u);
  EXPECT_EQ(ClaimGraph::PackedObs(f0[1]), 0);
  EXPECT_EQ(ClaimGraph::PackedId(f0[1]), 0u);
  EXPECT_EQ(g.FactClaims(1).size(), 1u);
  EXPECT_EQ(g.FactClaims(2).size(), 1u);
}

TEST(ClaimGraphFromClaimsTest, FactsWithNoClaimsGetEmptySpans) {
  ClaimGraph g = ClaimGraph::FromClaims({{1, 0, true}}, 3, 1);
  EXPECT_EQ(g.FactClaims(0).size(), 0u);
  EXPECT_EQ(g.FactClaims(1).size(), 1u);
  EXPECT_EQ(g.FactClaims(2).size(), 0u);
}

// Property: the generation rule of Definition 3 holds on random databases.
class ClaimGenerationPropertyTest : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(ClaimGenerationPropertyTest, DefinitionThreeInvariants) {
  RawDatabase raw = testing::RandomRaw(GetParam());
  FactTable facts = FactTable::Build(raw);
  ClaimGraph claims = ClaimGraph::Build(raw, facts);

  // Sources asserting each entity.
  std::map<EntityId, std::set<SourceId>> entity_sources;
  for (const RawRow& row : raw.rows()) {
    entity_sources[row.entity].insert(row.source);
  }

  size_t expected_claims = 0;
  for (FactId f = 0; f < facts.NumFacts(); ++f) {
    expected_claims += entity_sources[facts.fact(f).entity].size();
  }
  // Every (fact, entity-source) pair yields exactly one claim.
  EXPECT_EQ(claims.NumClaims(), expected_claims);
  EXPECT_EQ(claims.NumPositiveClaims(), raw.NumRows());

  for (FactId f = 0; f < facts.NumFacts(); ++f) {
    const Fact& fact = facts.fact(f);
    const auto& es = entity_sources[fact.entity];
    std::set<SourceId> seen;
    for (uint32_t entry : claims.FactClaims(f)) {
      const SourceId source = ClaimGraph::PackedId(entry);
      // Claim sources must have asserted the entity.
      EXPECT_TRUE(es.count(source)) << "claim from silent source";
      // Observation matches raw-row presence.
      EXPECT_EQ(ClaimGraph::PackedObs(entry) == 1,
                raw.Contains(fact.entity, fact.attribute, source));
      // One claim per (fact, source).
      EXPECT_TRUE(seen.insert(source).second);
    }
    // Every entity source produced a claim.
    EXPECT_EQ(seen.size(), es.size());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ClaimGenerationPropertyTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

TEST(ClaimGraphTest, EmptyTable) {
  ClaimGraph g = ClaimGraph::Build(RawDatabase(), FactTable());
  EXPECT_EQ(g.NumFacts(), 0u);
  EXPECT_EQ(g.NumSources(), 0u);
  EXPECT_EQ(g.NumClaims(), 0u);
}

// The canonical fact-side order, checked against a brute-force
// transcription of Definition 3: the fact's asserters ascending, then the
// entity's other sources ascending.
TEST(ClaimGraphTest, FactSideMatchesCanonicalOrder) {
  RawDatabase raw = testing::RandomRaw(11);
  FactTable facts = FactTable::Build(raw);
  ClaimGraph g = ClaimGraph::Build(raw, facts);
  ASSERT_EQ(g.NumFacts(), facts.NumFacts());
  ASSERT_EQ(g.NumSources(), raw.NumSources());

  std::map<EntityId, std::set<SourceId>> entity_sources;
  for (const RawRow& row : raw.rows()) {
    entity_sources[row.entity].insert(row.source);
  }
  for (FactId f = 0; f < facts.NumFacts(); ++f) {
    const Fact& fact = facts.fact(f);
    std::vector<uint32_t> expected;
    for (SourceId s : entity_sources[fact.entity]) {
      if (raw.Contains(fact.entity, fact.attribute, s)) {
        expected.push_back((s << 1) | 1u);
      }
    }
    for (SourceId s : entity_sources[fact.entity]) {
      if (!raw.Contains(fact.entity, fact.attribute, s)) {
        expected.push_back(s << 1);
      }
    }
    auto packed = g.FactClaims(f);
    ASSERT_EQ(g.FactDegree(f), expected.size());
    EXPECT_EQ(std::vector<uint32_t>(packed.begin(), packed.end()), expected)
        << "f=" << f;
  }
}

TEST(ClaimGraphTest, SourceSideGroupsClaimsFactMajor) {
  ClaimGraph g = BuildGraph(23);

  // Reference by-source index: claims in fact-major order.
  std::vector<std::vector<Claim>> by_source(g.NumSources());
  for (const Claim& c : Unpack(g)) by_source[c.source].push_back(c);
  for (SourceId s = 0; s < g.NumSources(); ++s) {
    auto packed = g.SourceClaims(s);
    ASSERT_EQ(packed.size(), by_source[s].size());
    ASSERT_EQ(g.SourceDegree(s), by_source[s].size());
    for (size_t i = 0; i < packed.size(); ++i) {
      EXPECT_EQ(ClaimGraph::PackedId(packed[i]), by_source[s][i].fact);
      EXPECT_EQ(ClaimGraph::PackedObs(packed[i]),
                by_source[s][i].observation ? 1 : 0);
    }
  }
}

TEST(ClaimGraphTest, DerivedStatsMatchBruteForce) {
  ClaimGraph g = BuildGraph(61);
  const std::vector<Claim> claims = Unpack(g);
  size_t positives = 0;
  for (const Claim& c : claims) positives += c.observation ? 1 : 0;
  EXPECT_EQ(g.NumPositiveClaims(), positives);
  EXPECT_EQ(g.NumNegativeClaims(), claims.size() - positives);

  std::vector<uint32_t> fact_pos(g.NumFacts(), 0);
  std::vector<uint32_t> source_pos(g.NumSources(), 0);
  std::vector<uint32_t> source_deg(g.NumSources(), 0);
  for (const Claim& c : claims) {
    ++source_deg[c.source];
    if (c.observation) {
      ++fact_pos[c.fact];
      ++source_pos[c.source];
    }
  }
  for (FactId f = 0; f < g.NumFacts(); ++f) {
    EXPECT_EQ(g.FactPositiveCount(f), fact_pos[f]) << "f=" << f;
  }
  for (SourceId s = 0; s < g.NumSources(); ++s) {
    EXPECT_EQ(g.SourcePositiveCount(s), source_pos[s]) << "s=" << s;
    EXPECT_EQ(g.SourceDegree(s), source_deg[s]) << "s=" << s;
  }
}

TEST(ClaimGraphTest, PositiveOnlyDropsNegativesKeepingOrder) {
  const RawDatabase raw = testing::PaperTable1();
  ClaimGraph g = ClaimGraph::Build(raw, FactTable::Build(raw));
  ClaimGraph pos = g.PositiveOnly();
  EXPECT_EQ(pos.NumClaims(), 8u);
  EXPECT_EQ(pos.NumNegativeClaims(), 0u);
  EXPECT_EQ(pos.NumFacts(), g.NumFacts());
  EXPECT_EQ(pos.NumSources(), g.NumSources());
  for (FactId f = 0; f < pos.NumFacts(); ++f) {
    auto full = g.FactClaims(f);
    auto filtered = pos.FactClaims(f);
    ASSERT_EQ(filtered.size(), g.FactPositiveCount(f));
    // Positives precede negatives, so the filtered adjacency is exactly
    // the prefix of the full one.
    for (size_t i = 0; i < filtered.size(); ++i) {
      EXPECT_EQ(filtered[i], full[i]);
    }
  }
}

// FromClaims and Build agree on the same claim set: the Build output,
// unpacked, shuffled and salted with conflicting duplicates placed after
// the originals, comes back in the identical canonical layout.
TEST(ClaimGraphTest, FromClaimsMatchesBuildOnSameClaims) {
  ClaimGraph built = BuildGraph(19);
  std::vector<Claim> claims = Unpack(built);
  Rng(5).Shuffle(&claims);
  const size_t num_unique = claims.size();
  for (size_t i = 0; i < num_unique; i += 3) {
    claims.push_back({claims[i].fact, claims[i].source,
                      !claims[i].observation});
  }
  ClaimGraph direct = ClaimGraph::FromClaims(std::move(claims),
                                             built.NumFacts(),
                                             built.NumSources());
  EXPECT_EQ(direct.fact_offsets(), built.fact_offsets());
  EXPECT_EQ(direct.fact_claims(), built.fact_claims());
  EXPECT_EQ(direct.NumPositiveClaims(), built.NumPositiveClaims());
  for (SourceId s = 0; s < built.NumSources(); ++s) {
    auto a = built.SourceClaims(s);
    auto b = direct.SourceClaims(s);
    ASSERT_EQ(std::vector<uint32_t>(a.begin(), a.end()),
              std::vector<uint32_t>(b.begin(), b.end()))
        << "s=" << s;
  }
}

TEST(ClaimGraphTest, FromCsrRoundTripsBuildOutput) {
  ClaimGraph g = BuildGraph(67);
  auto rebuilt = ClaimGraph::FromCsr(g.fact_offsets(), g.fact_claims(),
                                     g.NumSources());
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().ToString();
  EXPECT_EQ(rebuilt->fact_offsets(), g.fact_offsets());
  EXPECT_EQ(rebuilt->fact_claims(), g.fact_claims());
  EXPECT_EQ(rebuilt->NumPositiveClaims(), g.NumPositiveClaims());
  for (SourceId s = 0; s < g.NumSources(); ++s) {
    auto a = g.SourceClaims(s);
    auto b = rebuilt->SourceClaims(s);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
  }
}

TEST(ClaimGraphTest, FromCsrRejectsCorruptInput) {
  // Offsets not starting at 0.
  EXPECT_FALSE(ClaimGraph::FromCsr({1, 2}, {0u << 1, 0u << 1}, 1).ok());
  // Offsets not ending at the claim count.
  EXPECT_FALSE(ClaimGraph::FromCsr({0, 1}, {(0u << 1), (0u << 1)}, 1).ok());
  // Non-monotone offsets.
  EXPECT_FALSE(ClaimGraph::FromCsr({0, 2, 1, 2}, {1u, 1u}, 1).ok());
  // Source id out of range.
  EXPECT_FALSE(ClaimGraph::FromCsr({0, 1}, {(5u << 1) | 1u}, 5).ok());
  // Duplicate (fact, source) pair — would inflate the derived counts.
  EXPECT_FALSE(
      ClaimGraph::FromCsr({0, 2}, {(1u << 1) | 1u, (1u << 1) | 1u}, 2).ok());
  // Negative claim before a positive one violates canonical order.
  EXPECT_FALSE(
      ClaimGraph::FromCsr({0, 2}, {(0u << 1), (1u << 1) | 1u}, 2).ok());
  // Sources out of ascending order within the positive group.
  EXPECT_FALSE(
      ClaimGraph::FromCsr({0, 2}, {(1u << 1) | 1u, (0u << 1) | 1u}, 2).ok());
  // Canonical order across both groups is accepted.
  EXPECT_TRUE(ClaimGraph::FromCsr(
                  {0, 3}, {(0u << 1) | 1u, (2u << 1) | 1u, (1u << 1)}, 3)
                  .ok());
  // Valid tiny graph.
  auto ok = ClaimGraph::FromCsr({0, 1}, {(4u << 1) | 1u}, 5);
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(ok->NumFacts(), 1u);
  EXPECT_EQ(ok->SourcePositiveCount(4), 1u);
}

TEST(ClaimGraphTest, ValidateIdBoundsAtTheBoundary) {
  // Ids are dense, so counts up to 2^31 keep every id below 2^31.
  const size_t limit = size_t{1} << 31;
  EXPECT_TRUE(ClaimGraph::ValidateIdBounds(limit, limit).ok());
  const Status facts_over = ClaimGraph::ValidateIdBounds(limit + 1, 1);
  EXPECT_EQ(facts_over.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(facts_over.message().find("2^31"), std::string::npos);
  const Status sources_over = ClaimGraph::ValidateIdBounds(1, limit + 1);
  EXPECT_EQ(sources_over.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(sources_over.message().find("sources"), std::string::npos);
}

TEST(ClaimGraphTest, PackedRoundTrip) {
  // Top of the id range: 2^31 - 1 with both observation values.
  const uint32_t id = (1u << 31) - 1;
  EXPECT_EQ(ClaimGraph::PackedId((id << 1) | 1u), id);
  EXPECT_EQ(ClaimGraph::PackedObs((id << 1) | 1u), 1);
  EXPECT_EQ(ClaimGraph::PackedObs(id << 1), 0);
}

}  // namespace
}  // namespace ltm
