#include "truth/registry.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "data/claim_graph.h"
#include "data/fact_table.h"
#include "test_util.h"

namespace ltm {
namespace {

TEST(RegistryTest, CreatesEveryListedMethod) {
  for (const std::string& name : MethodNames()) {
    auto m = CreateMethod(name);
    ASSERT_TRUE(m.ok()) << name;
    EXPECT_EQ((*m)->name(), name);
  }
}

TEST(RegistryTest, NamesRoundTripCaseInsensitively) {
  for (const std::string& name : MethodNames()) {
    std::string upper = name;
    std::transform(upper.begin(), upper.end(), upper.begin(), ::toupper);
    std::string lower = name;
    std::transform(lower.begin(), lower.end(), lower.begin(), ::tolower);
    for (const std::string& variant : {upper, lower}) {
      auto m = CreateMethod(variant);
      ASSERT_TRUE(m.ok()) << variant;
      // The canonical display name survives any spelling of the lookup.
      EXPECT_EQ((*m)->name(), name) << variant;
    }
  }
}

TEST(RegistryTest, KnownAliasesResolve) {
  EXPECT_TRUE(CreateMethod("ltm").ok());
  EXPECT_TRUE(CreateMethod("VOTING").ok());
  EXPECT_TRUE(CreateMethod("TruthFinder").ok());
  EXPECT_TRUE(CreateMethod("3estimates").ok());
  EXPECT_TRUE(CreateMethod("ThreeEstimates").ok());
  EXPECT_TRUE(CreateMethod("hits").ok());
  EXPECT_TRUE(CreateMethod("LTMincremental").ok());
}

TEST(RegistryTest, UnknownNameIsNotFound) {
  auto m = CreateMethod("definitely-not-a-method");
  ASSERT_FALSE(m.ok());
  EXPECT_EQ(m.status().code(), StatusCode::kNotFound);
}

TEST(RegistryTest, MalformedSpecIsInvalidArgument) {
  for (const char* bad : {"", "   ", "LTM(iterations=5",   // missing ')'
                          "LTM)", "(rho=1)",               // missing name
                          "LTM(iterations)",               // missing '='
                          "LTM(=5)",                       // missing key
                          "LTM(seed=1,seed=2)",            // duplicate key
                          "LTM((seed=1))"}) {              // nested parens
    auto m = CreateMethod(bad);
    ASSERT_FALSE(m.ok()) << "'" << bad << "'";
    EXPECT_EQ(m.status().code(), StatusCode::kInvalidArgument)
        << "'" << bad << "': " << m.status().ToString();
  }
}

TEST(RegistryTest, EveryMethodRejectsUnknownOptionKeys) {
  for (const std::string& name : MethodNames()) {
    auto m = CreateMethod(name + "(definitely_unknown_key=1)");
    ASSERT_FALSE(m.ok()) << name;
    EXPECT_EQ(m.status().code(), StatusCode::kInvalidArgument) << name;
  }
}

TEST(RegistryTest, PerMethodOptionValidation) {
  // Non-numeric and out-of-range values are InvalidArgument per method.
  for (const char* bad :
       {"TruthFinder(rho=nope)", "TruthFinder(rho=1.5)",
        "TruthFinder(gamma=-1)", "TruthFinder(iterations=0)",
        "HubAuthority(iterations=-3)", "AvgLog(iterations=0)",
        "Investment(g=0)", "PooledInvestment(iterations=2.5)",
        "3-Estimates(initial_error=1.2)", "3-Estimates(floor=0.7)",
        "LTM(iterations=0)", "LTM(burnin=100,iterations=50)",
        "LTM(sample_gap=0)", "LTM(beta_pos=-1)", "LTM(threshold=2)",
        "LTM(seed=-1)", "ExactLTM(max_facts=99)",
        "StreamingLTM(refit_every=-1)",
        // Keys and values of the deleted sharded sampler fail loudly.
        "LTM(threads=4)", "LTM(shards=2)", "LTM(kernel=auto)",
        "StreamingLTM(align_shards_to_partitions=true)"}) {
    auto m = CreateMethod(bad);
    ASSERT_FALSE(m.ok()) << bad;
    EXPECT_EQ(m.status().code(), StatusCode::kInvalidArgument)
        << bad << ": " << m.status().ToString();
  }
}

TEST(RegistryTest, ParameterizedSpecsCreateForEveryName) {
  // Every registered method accepts at least one parameterized spec.
  EXPECT_TRUE(CreateMethod("LTM(iterations=200,seed=7)").ok());
  EXPECT_TRUE(CreateMethod("LTMpos(iterations=50,burnin=10)").ok());
  EXPECT_TRUE(CreateMethod("Voting()").ok());
  EXPECT_TRUE(CreateMethod("TruthFinder(rho=0.5,gamma=0.3)").ok());
  EXPECT_TRUE(CreateMethod("HubAuthority(iterations=10)").ok());
  EXPECT_TRUE(CreateMethod("AvgLog(iterations=5)").ok());
  EXPECT_TRUE(CreateMethod("Investment(iterations=5,g=1.4)").ok());
  EXPECT_TRUE(CreateMethod("PooledInvestment(g=1.1)").ok());
  EXPECT_TRUE(CreateMethod("3-Estimates(initial_error=0.3)").ok());
  EXPECT_TRUE(CreateMethod("LTMinc(beta_pos=2,beta_neg=2)").ok());
  EXPECT_TRUE(CreateMethod("ExactLTM(max_facts=12)").ok());
  EXPECT_TRUE(CreateMethod("StreamingLTM(refit_every=2,iterations=30)").ok());
}

TEST(RegistryTest, SpecOptionsChangeBehaviour) {
  // Two LTM seeds differ; the same seed reproduces bit-identically.
  ClaimGraph claims = ClaimGraph::FromClaims(
      {{0, 0, true}, {0, 1, false}, {1, 0, true}, {1, 1, true}, {2, 2, false}},
      3, 3);
  FactTable facts;
  auto a1 = CreateMethod("LTM(iterations=40,burnin=10,seed=1)");
  auto a2 = CreateMethod("LTM(iterations=40,burnin=10,seed=1)");
  auto b = CreateMethod("LTM(iterations=40,burnin=10,seed=2)");
  ASSERT_TRUE(a1.ok() && a2.ok() && b.ok());
  TruthEstimate ea1 = (*a1)->Score(facts, claims);
  TruthEstimate ea2 = (*a2)->Score(facts, claims);
  EXPECT_EQ(ea1.probability, ea2.probability);
}

TEST(RegistryTest, CreateAllMethodsCoversComparison) {
  auto methods = CreateAllMethods();
  EXPECT_EQ(methods.size(), BatchMethodNames().size());
  std::set<std::string> names;
  for (const auto& m : methods) names.insert(m->name());
  EXPECT_EQ(names.size(), methods.size());  // No duplicates.
  EXPECT_TRUE(names.count("LTM"));
  EXPECT_TRUE(names.count("LTMpos"));
  EXPECT_TRUE(names.count("3-Estimates"));
  EXPECT_TRUE(names.count("Voting"));
}

TEST(RegistryTest, BatchNamesAreASubsetOfAllNames) {
  auto all = MethodNames();
  std::set<std::string> universe(all.begin(), all.end());
  for (const std::string& name : BatchMethodNames()) {
    EXPECT_TRUE(universe.count(name)) << name;
  }
  // The streaming/incremental methods now share the same registry.
  EXPECT_TRUE(universe.count("LTMinc"));
  EXPECT_TRUE(universe.count("StreamingLTM"));
}

TEST(RegistryTest, LtmOptionsArePropagated) {
  LtmOptions opts;
  opts.seed = 987;
  auto m = CreateMethod("LTM", opts);
  ASSERT_TRUE(m.ok());
  EXPECT_EQ((*m)->name(), "LTM");
}

TEST(RegistryTest, StreamingCapabilityDowncast) {
  auto inc = CreateMethod("LTMinc");
  auto voting = CreateMethod("Voting");
  ASSERT_TRUE(inc.ok() && voting.ok());
  EXPECT_NE(AsStreaming(inc->get()), nullptr);
  EXPECT_EQ(AsStreaming(voting->get()), nullptr);
}

TEST(RegistryTest, RuntimeRegistrationAndRemoval) {
  // Extensions can register methods at runtime; duplicates are rejected.
  auto factory = [](const MethodOptions&, const LtmOptions&)
      -> Result<std::unique_ptr<TruthMethod>> {
    return CreateMethod("Voting");
  };
  ASSERT_TRUE(MethodRegistry::Global()
                  .Register("TestOnlyMethod", {"tom"}, factory)
                  .ok());
  EXPECT_TRUE(MethodRegistry::Global().Contains("testonlymethod"));
  EXPECT_TRUE(CreateMethod("TOM").ok());
  EXPECT_EQ(MethodRegistry::Global().Register("tom", {}, factory).code(),
            StatusCode::kAlreadyExists);
  ASSERT_TRUE(MethodRegistry::Global().Unregister("TestOnlyMethod").ok());
  EXPECT_FALSE(MethodRegistry::Global().Contains("TestOnlyMethod"));
  EXPECT_EQ(CreateMethod("tom").status().code(), StatusCode::kNotFound);
}

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

TEST(RunMethodsConcurrentlyTest, MatchesSequentialRuns) {
  RawDatabase raw = testing::RandomRaw(17);
  FactTable facts = FactTable::Build(raw);
  ClaimGraph claims = ClaimGraph::Build(raw, facts);
  LtmOptions base = SmallDataOptions();
  base.iterations = 40;
  base.burnin = 10;

  const std::vector<std::string> specs{"Voting", "LTM", "TruthFinder",
                                       "AvgLog"};
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
