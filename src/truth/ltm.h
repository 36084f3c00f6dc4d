#ifndef LTM_TRUTH_LTM_H_
#define LTM_TRUTH_LTM_H_

#include <array>
#include <cstdint>
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
/// The chain is sequential: one RNG stream seeded from `seed`, facts
/// visited in id order, every flip visible to the next fact.
///
/// Two kernels evaluate the per-fact update (LtmOptions::kernel):
/// `reference` (the default) calls LogConditional twice per fact
/// (bit-pinned chain), `fused` accumulates the flip log-odds in one
/// adjacency pass from per-source Eq. 2 terms cached per chain and
/// refreshed only when a flip moves that source's counts
/// (truth/gibbs_kernel.h) — same RNG draw sequence, statistically
/// equivalent posteriors, several times the reference sweep throughput.
class LtmGibbs {
 public:
  /// `graph` must outlive the sampler. Seeds the RNG stream and draws
  /// an initial truth assignment; a later Initialize() continues the
  /// stream. The count matrix is built lazily on first use, so
  /// construction followed by Initialize() pays one O(edges) count pass.
  LtmGibbs(const ClaimGraph& graph, const LtmOptions& options);

  /// The chain references the graph, owns an RNG stream and a mutex; an
  /// accidental copy would fork the stream mid-sequence, so copies and
  /// moves are compile errors.
  LtmGibbs(const LtmGibbs&) = delete;
  LtmGibbs& operator=(const LtmGibbs&) = delete;
  LtmGibbs(LtmGibbs&&) = delete;
  LtmGibbs& operator=(LtmGibbs&&) = delete;

  /// Randomly (re-)initializes the truth assignment and clears the
  /// accumulator; counts rebuild lazily on the next sweep.
  void Initialize();

  /// Runs one full Gibbs sweep over all facts (Eq. 2 per fact). Returns
  /// the number of facts whose truth flipped — the sampler's natural
  /// convergence/mixing measure (reported as IterationStat::delta by the
  /// TruthMethod wrapper, as a fraction of facts).
  int RunSweep();

  /// Adds the current truth assignment into the running posterior mean.
  void AccumulateSample();

  /// Posterior estimate from the samples accumulated so far; all 0.5 when
  /// no sample was accumulated yet.
  TruthEstimate PosteriorMean() const;

  /// Runs the full schedule from `options` — Initialize(), then
  /// `iterations` sweeps accumulating every `sample_gap`-th sweep after
  /// `burnin` — and returns the posterior mean. The sweeps go through the
  /// one run loop, LatentTruthModel::Run, on a fresh chain over this
  /// sampler's graph: the same stream a just-constructed sampler
  /// replays. This object's own chain is left untouched.
  TruthEstimate Run() const;

  /// Current (hard) truth assignment of the chain.
  const std::vector<uint8_t>& truth() const { return truth_; }

  /// Current count n_{s,i,j} maintained by the chain.
  int64_t Count(SourceId s, int truth_value, int observation) const {
    EnsureCounts();
    return counts_[s * 4 + truth_value * 2 + observation];
  }

  int num_accumulated_samples() const { return num_samples_; }

 private:
  /// Log of the unnormalized conditional p(t_f = i | t_-f, o, s) (Eq. 2)
  /// over the chain's counts. `exclude_self` must be true when i equals
  /// the fact's current label so the fact's own claims are removed from
  /// the counts.
  double LogConditional(FactId f, int i, bool exclude_self) const;

  /// Draws a fresh Bernoulli(0.5) truth assignment and marks the count
  /// matrix stale. Consumes exactly NumFacts draws — the stream contract
  /// the bit-pinned posteriors depend on.
  void DrawInitialTruth();

  /// Rebuilds counts_ from the graph and truth_ if a DrawInitialTruth
  /// since the last build left them stale. Mutex-guarded so concurrent
  /// const Count() inspections stay race-free. (Count()/RunSweep
  /// concurrency is unsupported either way — RunSweep mutates the chain.)
  void EnsureCounts() const LTM_EXCLUDES(counts_mutex_);

  const ClaimGraph& graph_;
  LtmOptions options_;
  Rng rng_;

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
  // Fused-kernel state (log memo + cached per-source terms); unused by
  // the reference kernel.
  FusedKernelState fused_;
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
