#ifndef LTM_TRUTH_LTM_H_
#define LTM_TRUTH_LTM_H_

#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/mutex.h"
#include "common/rng.h"
#include "common/thread_annotations.h"
#include "common/status.h"
#include "data/claim_graph.h"
#include "data/fact_table.h"
#include "truth/gibbs_kernel.h"
#include "truth/options.h"
#include "truth/source_quality.h"
#include "truth/truth_method.h"

namespace ltm {

/// Collapsed Gibbs sampler for the Latent Truth Model (paper Algorithm 1)
/// on the packed CSR ClaimGraph. Exposed separately from the TruthMethod
/// wrapper so that convergence studies (Fig. 5) and tests can step sweeps
/// manually and inspect the internal truth assignment and quality counts.
///
/// State per sweep: the Boolean truth vector t and, per source, the 2x2
/// integer count matrix n_{s,i,j} (i = current truth of the claimed fact,
/// j = observation). Equation 2 is evaluated in log space so facts with
/// hundreds of claims cannot underflow. One conditional streams a fact's
/// contiguous run of packed 4-byte adjacency words.
///
/// Facts are partitioned into the resolved shard count (`shards`, else
/// `threads`, 0 = hardware concurrency) of contiguous ranges balanced by
/// claim count (ClaimGraph::PartitionFacts):
///
///   - one shard is the exact sequential chain: one RNG stream seeded
///     from `seed`, every flip visible to the next fact. It never touches
///     a thread pool;
///   - N shards run the approximate-collapsed-Gibbs scheme of AD-LDA on
///     ThreadPool::Shared(): each shard samples its facts sequentially
///     against a private copy of the counts, drawing from its own
///     Rng::SplitStream(k) stream, and the per-shard count deltas are
///     merged back at the sweep barrier (integer adds, so the result is
///     independent of scheduling). Deterministic for a fixed
///     (seed, shards) pair, but a different chain than one shard.
///
/// Two kernels evaluate the per-fact update (LtmOptions::kernel):
/// `reference` calls LogConditional twice per fact (bit-pinned chain),
/// `fused` accumulates the flip log-odds in one adjacency pass from
/// per-source Eq. 2 terms cached per shard and refreshed only when a flip
/// moves that source's counts (truth/gibbs_kernel.h) — same RNG draw
/// sequence, statistically equivalent posteriors, several times the
/// reference sweep throughput.
/// kAuto resolves to `reference` on one shard and `fused` on several.
class LtmGibbs {
 public:
  /// `graph` must outlive the sampler. Seeds the RNG streams and draws
  /// an initial truth assignment; a later Initialize() continues the
  /// streams. The count matrix is built lazily on first use, so
  /// construction followed by Initialize() pays one O(edges) count pass.
  LtmGibbs(const ClaimGraph& graph, const LtmOptions& options);

  /// The chain references the graph, owns RNG streams and a mutex; an
  /// accidental copy would fork the streams mid-sequence, so copies and
  /// moves are compile errors.
  LtmGibbs(const LtmGibbs&) = delete;
  LtmGibbs& operator=(const LtmGibbs&) = delete;
  LtmGibbs(LtmGibbs&&) = delete;
  LtmGibbs& operator=(LtmGibbs&&) = delete;

  /// Randomly (re-)initializes the truth assignment (shard k draws its
  /// facts from stream k) and clears the accumulator; counts rebuild
  /// lazily on the next sweep.
  void Initialize();

  /// Runs one full Gibbs sweep over all facts (Eq. 2 per fact). Returns
  /// the number of facts whose truth flipped — the sampler's natural
  /// convergence/mixing measure (reported as IterationStat::delta by the
  /// TruthMethod wrapper, as a fraction of facts).
  int RunSweep();

  /// RunSweep honoring `stop_check` (the RunContext cancellation/deadline
  /// hook; must be thread-safe) before the sweep and between shard
  /// dispatches. On a non-OK status the chain must be considered torn —
  /// callers abandon the run, as the wrapper does. `flips` receives the
  /// sweep's flip count on OK.
  Status RunSweep(const std::function<Status()>& stop_check, int* flips);

  /// Adds the current truth assignment into the running posterior mean.
  void AccumulateSample();

  /// Posterior estimate from the samples accumulated so far; all 0.5 when
  /// no sample was accumulated yet.
  TruthEstimate PosteriorMean() const;

  /// Runs the full schedule from `options` — Initialize(), then
  /// `iterations` sweeps accumulating every `sample_gap`-th sweep after
  /// `burnin` — and returns the posterior mean. The sweeps go through the
  /// one run loop, LatentTruthModel::Run, on a fresh chain over this
  /// sampler's graph: the same streams a just-constructed sampler
  /// replays. This object's own chain is left untouched.
  TruthEstimate Run() const;

  /// Current (hard) truth assignment of the chain.
  const std::vector<uint8_t>& truth() const { return truth_; }

  /// Current count n_{s,i,j} maintained by the chain (merged, between
  /// sweeps).
  int64_t Count(SourceId s, int truth_value, int observation) const {
    EnsureCounts();
    return counts_[s * 4 + truth_value * 2 + observation];
  }

  int num_accumulated_samples() const { return num_samples_; }

  /// The kernel this chain runs (kAuto already resolved).
  LtmKernel kernel() const { return kernel_; }

 private:
  /// Log of the unnormalized conditional p(t_f = i | t_-f, o, s) (Eq. 2)
  /// over `counts` (the chain's matrix or a shard's private copy).
  /// `exclude_self` must be true when i equals the fact's current label so
  /// the fact's own claims are removed from the counts.
  double LogConditional(FactId f, int i, bool exclude_self,
                        const std::vector<int64_t>& counts) const;

  /// Gibbs-samples facts [begin, end) against `counts` using `rng` and
  /// the selected kernel (`fused` backs the fused one), updating
  /// `counts` and truth_ in place. Returns the flip count.
  int SweepRange(FactId begin, FactId end, std::vector<int64_t>* counts,
                 Rng* rng, FusedKernelState* fused);

  /// Draws a fresh Bernoulli(0.5) truth assignment (shard k from stream
  /// k) and marks the count matrix stale. Consumes exactly NumFacts draws
  /// per stream — the stream contract the bit-pinned posteriors depend on.
  void DrawInitialTruth();

  /// Rebuilds counts_ from the graph and truth_ if a DrawInitialTruth
  /// since the last build left them stale. Mutex-guarded so concurrent
  /// const Count() inspections stay race-free. (Count()/RunSweep
  /// concurrency is unsupported either way — RunSweep mutates the chain.)
  void EnsureCounts() const LTM_EXCLUDES(counts_mutex_);

  const ClaimGraph& graph_;
  LtmOptions options_;
  int num_shards_;
  LtmKernel kernel_;
  std::vector<uint32_t> shard_bounds_;  // num_shards_+1 fact boundaries

  Rng rng_;                      // the single-shard stream
  std::vector<Rng> shard_rngs_;  // per-shard SplitStream engines (N > 1)

  std::vector<uint8_t> truth_;  // current t_f per fact
  // n_{s,i,j}, flattened s*4 + i*2 + j; rebuilt lazily (EnsureCounts)
  // after a truth redraw so construction + Initialize() pays one count
  // pass. counts_ itself is covered by the chain's no-concurrent-mutation
  // contract (sweeps mutate it lock-free after EnsureCounts), so only the
  // staleness flag — the one field concurrent const readers race on — is
  // lock-guarded.
  mutable std::vector<int64_t> counts_;
  mutable bool counts_stale_ LTM_GUARDED_BY(counts_mutex_) = true;
  mutable Mutex counts_mutex_;  // guards the lazy build only
  std::vector<std::vector<int64_t>> shard_counts_;  // per-shard local views
  // Fused-kernel state (log memo + cached per-source terms): one per
  // shard, never shared across threads (both grow unsynchronized).
  std::vector<FusedKernelState> shard_kernels_;
  std::vector<int> shard_flips_;
  std::vector<double> truth_sum_;  // sum of sampled t_f
  int num_samples_ = 0;
  // alpha_[i][j]: the Eq. 2 pseudo-count of truth i, observation j.
  std::array<std::array<double, 2>, 2> alpha_;
  std::array<double, 2> log_beta_;  // log(beta.neg), log(beta.pos)
};

/// The paper's headline method as a TruthMethod: runs the collapsed Gibbs
/// sampler and reports posterior truth probabilities. With
/// `options.positive_claims_only` it becomes the LTMpos ablation.
class LatentTruthModel : public TruthMethod {
 public:
  explicit LatentTruthModel(LtmOptions options = LtmOptions());

  std::string name() const override;

  /// The one run loop: steps an LtmGibbs chain under `ctx`, seeded from
  /// `ctx.seed` (falling back to the options seed). Per sweep: checks
  /// cancellation/deadline, records a `gibbs_sweep` span (and, with
  /// ctx.metrics, the sweep and flip counters and the timing histogram),
  /// reports the flip fraction as the convergence delta, and (with
  /// ctx.on_state) the hard truth assignment. With ctx.with_quality the
  /// §5.3 quality
  /// read-off is attached, computed from the full claim graph even for
  /// the LTMpos ablation.
  Result<TruthResult> Run(const RunContext& ctx, const FactTable& facts,
                          const ClaimGraph& graph) const override;

  /// Runs and additionally reads off two-sided source quality (§5.3) from
  /// the posterior truth probabilities.
  TruthEstimate RunWithQuality(const ClaimGraph& graph,
                               SourceQuality* quality) const;

  const LtmOptions& options() const { return options_; }

 private:
  LtmOptions options_;
};

}  // namespace ltm

#endif  // LTM_TRUTH_LTM_H_
