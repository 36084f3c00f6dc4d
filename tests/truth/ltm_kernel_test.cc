// Statistical-equivalence harness for the fused Gibbs kernel: the fused
// kernel draws the same RNG sequence as the reference kernel but rounds
// differently (one fused accumulation instead of two LogConditional
// passes), so its chain diverges bit-wise while remaining a sampler of
// the identical collapsed posterior. These tests pin the contract: fused
// marginals match the exact enumeration oracle on small instances, fused
// and reference posterior means agree within sampling tolerance on
// synthetic LTM-process data, the counts invariant holds sweep by sweep,
// the cached-term sweep reproduces the uncached per-fact log-odds chain
// bit for bit, and the kernel option wires through specs, the registry
// and the sampler.

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <thread>
#include <vector>

#include "eval/metrics.h"
#include "synth/ltm_process.h"
#include "synth/movie_simulator.h"
#include "test_util.h"
#include "truth/exact_inference.h"
#include "truth/gibbs_kernel.h"
#include "truth/ltm.h"
#include "truth/registry.h"

namespace ltm {
namespace {

LtmOptions TinyOptions(uint64_t seed = 5) {
  LtmOptions opts;
  opts.alpha0 = BetaPrior{1.0, 10.0};
  opts.alpha1 = BetaPrior{2.0, 2.0};
  opts.beta = BetaPrior{1.0, 1.0};
  opts.iterations = 4000;
  opts.burnin = 500;
  opts.sample_gap = 1;
  opts.seed = seed;
  return opts;
}

ClaimGraph RandomTinyClaims(uint64_t seed, size_t num_facts,
                            size_t num_sources) {
  Rng rng(seed);
  std::vector<Claim> claims;
  for (FactId f = 0; f < num_facts; ++f) {
    for (SourceId s = 0; s < num_sources; ++s) {
      if (rng.Bernoulli(0.3)) continue;
      claims.push_back(Claim{f, s, rng.Bernoulli(0.5)});
    }
  }
  return ClaimGraph::FromClaims(std::move(claims), num_facts, num_sources);
}

// ---------------------------------------------------------------------------
// Option plumbing.

TEST(GibbsKernelTest, ParseAndNameRoundTrip) {
  for (LtmKernel k : {LtmKernel::kReference, LtmKernel::kFused}) {
    auto parsed = ParseLtmKernel(LtmKernelName(k));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, k);
  }
  auto upper = ParseLtmKernel("FUSED");  // values are case-insensitive
  ASSERT_TRUE(upper.ok());
  EXPECT_EQ(*upper, LtmKernel::kFused);
  // Unknown values, including the removed `auto`, are rejected by name.
  for (const char* bad : {"vectorized", "auto"}) {
    auto parsed = ParseLtmKernel(bad);
    ASSERT_FALSE(parsed.ok()) << bad;
    EXPECT_NE(parsed.status().message().find(bad), std::string::npos)
        << parsed.status().ToString();
  }
}

TEST(GibbsKernelTest, SpecParsesKernelForLtmFamily) {
  for (const char* spec : {"LTM(kernel=fused)", "LTMpos(kernel=reference)",
                           "LTMinc(kernel=fused)"}) {
    auto method = CreateMethod(spec);
    EXPECT_TRUE(method.ok()) << spec << ": " << method.status().ToString();
  }
  auto bad = CreateMethod("LTM(kernel=nope)");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
}

// kernel=reference must be the exact chain default options run — the
// spelled-out form of today's bit-pinned default.
TEST(GibbsKernelTest, ExplicitReferenceBitIdenticalToAutoSequential) {
  ClaimGraph graph = RandomTinyClaims(17, 14, 5);
  LtmOptions opts = TinyOptions(9);
  opts.iterations = 200;
  opts.burnin = 40;
  TruthEstimate auto_run = LtmGibbs(graph, opts).Run();
  opts.kernel = LtmKernel::kReference;
  TruthEstimate ref_run = LtmGibbs(graph, opts).Run();
  EXPECT_EQ(auto_run.probability, ref_run.probability);
}

// ---------------------------------------------------------------------------
// Counts invariant under the fused kernel.

class FusedCountsTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FusedCountsTest, CountsStayConsistentWithTruth) {
  RawDatabase raw = testing::RandomRaw(GetParam());
  FactTable facts = FactTable::Build(raw);
  ClaimGraph claims = ClaimGraph::Build(raw, facts);
  LtmOptions opts = TinyOptions(GetParam());
  opts.iterations = 20;
  opts.burnin = 5;
  opts.kernel = LtmKernel::kFused;
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

INSTANTIATE_TEST_SUITE_P(Seeds, FusedCountsTest,
                         ::testing::Values(3, 17, 29, 61));

// ---------------------------------------------------------------------------
// Exact-marginal equivalence: the fused chain converges to the same
// enumerated posterior as the reference chain (the oracle knows nothing
// about either kernel).

class FusedVsExactTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FusedVsExactTest, PosteriorMeansMatchEnumeration) {
  ClaimGraph claims = RandomTinyClaims(GetParam(), 7, 3);
  LtmOptions opts = TinyOptions(GetParam() * 31 + 7);
  auto exact = ExactPosterior(claims, opts);
  ASSERT_TRUE(exact.ok());

  opts.kernel = LtmKernel::kFused;
  TruthEstimate est = LtmGibbs(claims, opts).Run();
  for (FactId f = 0; f < claims.NumFacts(); ++f) {
    EXPECT_NEAR(est.probability[f], (*exact)[f], 0.05)
        << "fact " << f << " seed " << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FusedVsExactTest,
                         ::testing::Values(2, 3, 5, 8, 13, 21, 42, 99));

// ---------------------------------------------------------------------------
// Fused-vs-reference agreement on synthetic LTM-process data.

TEST(GibbsKernelTest, FusedAndReferenceMarginalsAgreeOnSmallGraphs) {
  RawDatabase raw = testing::RandomRaw(1234, 12, 3, 5, 0.7);
  FactTable facts = FactTable::Build(raw);
  ClaimGraph claims = ClaimGraph::Build(raw, facts);
  LtmOptions opts;
  opts.alpha0 = BetaPrior{1.0, 20.0};
  opts.alpha1 = BetaPrior{2.0, 2.0};
  opts.beta = BetaPrior{1.0, 1.0};
  opts.iterations = 2000;
  opts.burnin = 400;
  opts.sample_gap = 1;
  opts.seed = 11;

  opts.kernel = LtmKernel::kReference;
  TruthEstimate ref = LtmGibbs(claims, opts).Run();
  opts.kernel = LtmKernel::kFused;
  TruthEstimate fused = LtmGibbs(claims, opts).Run();
  for (FactId f = 0; f < claims.NumFacts(); ++f) {
    EXPECT_NEAR(fused.probability[f], ref.probability[f], 0.08)
        << "fact " << f;
  }
}

TEST(GibbsKernelTest, FusedAndReferenceAgreeOnLtmProcessData) {
  synth::LtmProcessOptions gen;
  gen.num_facts = 400;
  gen.num_sources = 12;
  gen.alpha0 = BetaPrior{5.0, 95.0};
  gen.alpha1 = BetaPrior{80.0, 20.0};
  gen.seed = 9;
  synth::LtmProcessData data = synth::GenerateLtmProcess(gen);

  LtmOptions opts;
  opts.alpha0 = BetaPrior{10.0, 400.0};
  opts.iterations = 120;
  opts.burnin = 20;
  opts.sample_gap = 2;
  opts.seed = 4;

  opts.kernel = LtmKernel::kReference;
  TruthEstimate ref = LtmGibbs(data.graph, opts).Run();
  opts.kernel = LtmKernel::kFused;
  TruthEstimate fused = LtmGibbs(data.graph, opts).Run();

  // Posterior-mean tolerance per fact plus a near-zero decision
  // disagreement rate — the same bar two independently seeded reference
  // chains are held to on this data.
  size_t disagreements = 0;
  double total_abs_diff = 0.0;
  for (FactId f = 0; f < data.graph.NumFacts(); ++f) {
    total_abs_diff += std::abs(fused.probability[f] - ref.probability[f]);
    if ((fused.probability[f] >= 0.5) != (ref.probability[f] >= 0.5)) {
      ++disagreements;
    }
  }
  EXPECT_LT(disagreements, data.graph.NumFacts() / 50);
  EXPECT_LT(total_abs_diff / data.graph.NumFacts(), 0.02);

  // Both kernels recover the generating truth.
  PointMetrics m = EvaluateAtThreshold(fused.probability, data.truth, 0.5);
  EXPECT_GT(m.accuracy(), 0.95) << m.confusion.ToString();
}

// Const inspection stays race-free under the lazy count build: two
// threads reading Count() of two chains, one per kernel, right after
// construction (the only window where the build hasn't happened yet)
// must not race — the guarantee eager construction used to give, now
// held by the EnsureCounts guard. Runs under the TSan CI leg.
TEST(GibbsKernelTest, ConcurrentCountReadsAfterConstructionAreSafe) {
  RawDatabase raw = testing::RandomRaw(41);
  FactTable facts = FactTable::Build(raw);
  ClaimGraph claims = ClaimGraph::Build(raw, facts);
  LtmOptions opts = TinyOptions();
  opts.iterations = 10;
  opts.burnin = 2;

  opts.kernel = LtmKernel::kReference;
  const LtmGibbs reference(claims, opts);
  opts.kernel = LtmKernel::kFused;
  const LtmGibbs fused(claims, opts);
  auto reader = [&] {
    int64_t total = 0;
    for (SourceId s = 0; s < claims.NumSources(); ++s) {
      for (int i = 0; i < 2; ++i) {
        for (int j = 0; j < 2; ++j) {
          total += reference.Count(s, i, j) + fused.Count(s, i, j);
        }
      }
    }
    // Each sampler's counts sum to the claim count.
    EXPECT_EQ(total, 2 * static_cast<int64_t>(claims.NumClaims()));
  };
  std::thread a(reader);
  std::thread b(reader);
  a.join();
  b.join();
}

// ---------------------------------------------------------------------------
// The cached-term sweep against the uncached per-fact oracle.

// The uncached fused sweep: FusedFlipLogOdds per fact, one uniform per
// fact, counts updated in place on a flip.
int OracleSweep(const ClaimGraph& graph, std::vector<uint8_t>* truth,
                std::vector<int64_t>* counts,
                const std::array<double, 2>& log_beta, LogCountTables* tables,
                Rng* rng) {
  int flips = 0;
  for (FactId f = 0; f < truth->size(); ++f) {
    const int cur = (*truth)[f];
    const double delta =
        FusedFlipLogOdds(graph, f, cur, *counts, log_beta, tables);
    if (rng->Uniform() < 1.0 / (1.0 + std::exp(-delta))) {
      ++flips;
      const int other = 1 - cur;
      (*truth)[f] = static_cast<uint8_t>(other);
      for (uint32_t entry : graph.FactClaims(f)) {
        const uint32_t s = ClaimGraph::PackedId(entry);
        const int j = ClaimGraph::PackedObs(entry);
        --(*counts)[s * 4 + cur * 2 + j];
        ++(*counts)[s * 4 + other * 2 + j];
      }
    }
  }
  return flips;
}

// Runs FusedSweep and the FusedFlipLogOdds loop side by side from the
// same random truth and stream, asserting after every sweep that both
// chains hold the same truth vector, count matrix and flip count, and
// that the cached terms left behind by the sweep reproduce
// FusedFlipLogOdds for every fact to the bit, i.e. the per-flip refresh
// left no stale source.
void ExpectCachedSweepMatchesOracle(const ClaimGraph& graph,
                                    const LtmOptions& opts, uint64_t seed,
                                    int sweeps) {
  SCOPED_TRACE(::testing::Message() << "seed=" << seed);
  const std::array<std::array<double, 2>, 2> alpha{
      {{opts.alpha0.neg, opts.alpha0.pos}, {opts.alpha1.neg, opts.alpha1.pos}}};
  const std::array<double, 2> log_beta{std::log(opts.beta.neg),
                                       std::log(opts.beta.pos)};

  std::vector<uint8_t> truth(graph.NumFacts());
  Rng init(seed ^ 0x5eedu);
  for (uint8_t& t : truth) t = init.Bernoulli(0.5) ? 1 : 0;
  std::vector<int64_t> counts(graph.NumSources() * 4);
  RecountClaims(graph, truth, &counts);

  std::vector<uint8_t> cached_truth = truth;
  std::vector<int64_t> cached_counts = counts;
  Rng cached_rng(seed);
  FusedKernelState state;
  state.tables.Reset(alpha);

  std::vector<uint8_t> oracle_truth = truth;
  std::vector<int64_t> oracle_counts = counts;
  Rng oracle_rng(seed);
  LogCountTables tables;
  tables.Reset(alpha);

  int total_flips = 0;
  for (int sweep = 0; sweep < sweeps; ++sweep) {
    const int cached_flips = FusedSweep(graph, &cached_truth, &cached_counts,
                                        log_beta, &state, &cached_rng);
    const int oracle_flips = OracleSweep(graph, &oracle_truth, &oracle_counts,
                                         log_beta, &tables, &oracle_rng);
    ASSERT_EQ(cached_flips, oracle_flips) << "sweep " << sweep;
    ASSERT_EQ(cached_truth, oracle_truth) << "sweep " << sweep;
    ASSERT_EQ(cached_counts, oracle_counts) << "sweep " << sweep;
    total_flips += cached_flips;
    for (FactId f = 0; f < graph.NumFacts(); ++f) {
      const int cur = cached_truth[f];
      const double* t = state.terms.data() + cur * 2;
      double delta = log_beta[1 - cur] - log_beta[cur];
      for (uint32_t entry : graph.FactClaims(f)) {
        delta += t[entry * 4];
        delta -= t[entry * 4 + 1];
      }
      const double oracle_delta = FusedFlipLogOdds(
          graph, f, cur, cached_counts, log_beta, &tables);
      ASSERT_EQ(std::bit_cast<uint64_t>(delta),
                std::bit_cast<uint64_t>(oracle_delta))
          << "sweep " << sweep << " fact " << f;
    }
  }
  // The chains must actually move, or the comparison proves nothing.
  EXPECT_GT(total_flips, 0);
}

// A random world with the count cells the cache must never compute
// through a negative index: source 0 makes only negative claims (its
// positive cells are zero under both labels), and source 1 makes a
// single positive claim (all of its cells but one are zero).
ClaimGraph RandomWorldWithSparseSources(uint64_t seed) {
  constexpr size_t kFacts = 80;
  constexpr size_t kSources = 7;
  Rng rng(seed);
  std::vector<Claim> claims;
  for (FactId f = 0; f < kFacts; ++f) {
    if (rng.Bernoulli(0.5)) claims.push_back(Claim{f, 0, false});
    if (f == kFacts / 2) claims.push_back(Claim{f, 1, true});
    for (SourceId s = 2; s < kSources; ++s) {
      if (rng.Bernoulli(0.3)) continue;
      claims.push_back(Claim{f, s, rng.Bernoulli(0.6)});
    }
  }
  return ClaimGraph::FromClaims(std::move(claims), kFacts, kSources);
}

TEST(GibbsKernelTest, CachedTermSweepMatchesUncachedOracle) {
  for (uint64_t seed : {3u, 11u, 29u, 47u}) {
    ExpectCachedSweepMatchesOracle(RandomWorldWithSparseSources(seed),
                                   TinyOptions(), seed, /*sweeps=*/30);
  }

  synth::MovieSimOptions gen;
  gen.num_movies = 2000;
  gen.seed = 19;
  const Dataset movies = synth::GenerateMovieDataset(gen);
  ExpectCachedSweepMatchesOracle(movies.graph, LtmOptions::MovieDataDefaults(),
                                 /*seed=*/7, /*sweeps=*/20);
}

// ---------------------------------------------------------------------------
// The memo tables themselves.

TEST(LogCountTablesTest, MatchesStdLogAcrossGrowth) {
  LogCountTables tables;
  const std::array<std::array<double, 2>, 2> alpha{
      {{10000.0, 100.0}, {50.0, 50.0}}};
  tables.Reset(alpha);
  for (int i = 0; i < 2; ++i) {
    const double alpha_sum = alpha[i][0] + alpha[i][1];
    // Probe out of order, past several growth boundaries, and across the
    // memoization cap (where the direct-std::log fallback takes over);
    // every answer must be the exact std::log of the same argument.
    const int64_t cap = static_cast<int64_t>(LogCountTables::kMaxEntries);
    for (int64_t n : {int64_t{0}, int64_t{1}, int64_t{7}, int64_t{1000},
                      int64_t{63}, int64_t{64}, int64_t{65}, int64_t{4097},
                      cap - 1, cap, cap + 1, cap * 16, int64_t{2},
                      int64_t{0}}) {
      for (int j = 0; j < 2; ++j) {
        EXPECT_EQ(tables.LogNum(i, j, n),
                  std::log(static_cast<double>(n) + alpha[i][j]))
            << "i=" << i << " j=" << j << " n=" << n;
      }
      EXPECT_EQ(tables.LogDen(i, n),
                std::log(static_cast<double>(n) + alpha_sum))
          << "i=" << i << " n=" << n;
    }
  }
}

TEST(LogCountTablesTest, FusedFlipLogOddsMatchesTwoPassConditional) {
  // The fused delta must equal lp(other) - lp(cur) computed the
  // reference way, up to floating-point reassociation.
  ClaimGraph claims = RandomTinyClaims(23, 9, 4);
  LtmOptions opts = TinyOptions();
  std::vector<uint8_t> truth(claims.NumFacts());
  Rng rng(3);
  for (FactId f = 0; f < claims.NumFacts(); ++f) {
    truth[f] = rng.Bernoulli(0.5) ? 1 : 0;
  }
  std::vector<int64_t> counts(claims.NumSources() * 4, 0);
  for (FactId f = 0; f < claims.NumFacts(); ++f) {
    for (uint32_t entry : claims.FactClaims(f)) {
      ++counts[ClaimGraph::PackedId(entry) * 4 + truth[f] * 2 +
               ClaimGraph::PackedObs(entry)];
    }
  }

  const std::array<std::array<double, 2>, 2> alpha{
      {{opts.alpha0.neg, opts.alpha0.pos}, {opts.alpha1.neg, opts.alpha1.pos}}};
  const std::array<double, 2> log_beta{std::log(opts.beta.neg),
                                       std::log(opts.beta.pos)};
  LogCountTables tables;
  tables.Reset(alpha);

  auto reference_lp = [&](FactId f, int i, bool exclude_self) {
    double lp = std::log(i == 1 ? opts.beta.pos : opts.beta.neg);
    const int64_t self = exclude_self ? 1 : 0;
    const double alpha_sum = alpha[i][0] + alpha[i][1];
    for (uint32_t entry : claims.FactClaims(f)) {
      const uint32_t cs = ClaimGraph::PackedId(entry);
      const int j = ClaimGraph::PackedObs(entry);
      const int64_t n_ij = counts[cs * 4 + i * 2 + j] - self;
      const int64_t n_i =
          counts[cs * 4 + i * 2] + counts[cs * 4 + i * 2 + 1] - self;
      lp += std::log(static_cast<double>(n_ij) + alpha[i][j]) -
            std::log(static_cast<double>(n_i) + alpha_sum);
    }
    return lp;
  };

  for (FactId f = 0; f < claims.NumFacts(); ++f) {
    const int cur = static_cast<int>(truth[f]);
    const double fused =
        FusedFlipLogOdds(claims, f, cur, counts, log_beta, &tables);
    const double two_pass = reference_lp(f, 1 - cur, false) -
                            reference_lp(f, cur, true);
    EXPECT_NEAR(fused, two_pass, 1e-9) << "fact " << f;
  }
}

}  // namespace
}  // namespace ltm
