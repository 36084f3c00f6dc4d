#ifndef LTM_TRUTH_OPTIONS_H_
#define LTM_TRUTH_OPTIONS_H_

#include <cstdint>
#include <string>

#include "common/status.h"

namespace ltm {

class MethodOptions;  // truth/method_spec.h

/// A Beta(pos, neg) prior expressed as pseudo-counts, following the paper's
/// convention: `pos` is the prior count of positive observations (j = 1)
/// and `neg` of negative observations (j = 0). E.g. the false-positive-rate
/// prior alpha0 = (10, 1000) means 10 prior false positives vs. 1000 prior
/// true negatives, i.e. expected specificity ~0.99.
struct BetaPrior {
  double pos = 1.0;
  double neg = 1.0;

  double Sum() const { return pos + neg; }
  /// Prior mean of the positive-observation probability.
  double Mean() const { return pos / (pos + neg); }
};

/// Which implementation of the per-fact Gibbs update the samplers run.
/// Both evaluate the same collapsed conditional (paper Eq. 2); they
/// differ in how much floating-point work a sweep pays.
enum class LtmKernel {
  /// Two LogConditional passes per fact, four std::log calls per packed
  /// adjacency entry — the original Algorithm 1 transcription whose
  /// posteriors are pinned bit-identical across releases. The default.
  kReference,
  /// One pass per fact accumulating the flip log-odds directly from
  /// per-source Eq. 2 terms cached per chain and refreshed only when a
  /// flip moves that source's counts (truth/gibbs_kernel.h): two cached
  /// loads per claim. Statistically equivalent to kReference — same RNG
  /// draw sequence, different floating-point rounding — and several
  /// times faster per sweep; validated against the exact oracle and the
  /// reference chain by tests/truth/ltm_kernel_test.cc.
  kFused,
};

/// Spec-string form: "reference", "fused" (case-insensitive).
const char* LtmKernelName(LtmKernel kernel);
Result<LtmKernel> ParseLtmKernel(const std::string& name);

/// Hyper-parameters and sampler controls for the Latent Truth Model.
/// Defaults follow the paper's movie-data configuration (§6.2).
struct LtmOptions {
  /// alpha0: prior on each source's false positive rate, phi0_s ~
  /// Beta(alpha0.pos, alpha0.neg). Must be strongly biased toward low FPR
  /// (high specificity), otherwise the model may flip all truths (§4.3.1).
  BetaPrior alpha0{100.0, 10000.0};

  /// alpha1: prior on each source's sensitivity, phi1_s ~
  /// Beta(alpha1.pos, alpha1.neg). Uniform-ish by default: false negatives
  /// are common in practice.
  BetaPrior alpha1{50.0, 50.0};

  /// beta: prior truth probability of each fact, theta_f ~ Beta(beta.pos,
  /// beta.neg).
  BetaPrior beta{10.0, 10.0};

  /// Total Gibbs sweeps, including burn-in.
  int iterations = 100;
  /// Sweeps discarded before collecting samples.
  int burnin = 20;
  /// Keep every `sample_gap`-th post-burn-in sweep (1 = keep all). The
  /// paper calls this thinning.
  int sample_gap = 4;

  /// Seed for the sampler's deterministic RNG.
  uint64_t seed = 42;

  /// Gibbs update kernel, spec key `kernel` (`reference|fused`).
  LtmKernel kernel = LtmKernel::kReference;

  /// When true, negative claims are ignored (the LTMpos ablation of §6.2).
  bool positive_claims_only = false;

  /// Epoch-aware refit trigger for store-backed streaming (§5.4 online
  /// serving over a TruthStore), spec key `refit_epoch_delta`. The
  /// store's epoch advances on every append and every flush/compaction
  /// commit; a store-attached StreamingPipeline refits batch LTM once the
  /// store has advanced at least this many epochs past the last fit.
  /// 0 (default) disables the epoch trigger — only the chunk-count
  /// trigger (StreamingOptions::refit_every_chunks) applies.
  uint64_t refit_epoch_delta = 0;

  /// Decision threshold on the posterior truth probability (§5.2).
  double truth_threshold = 0.5;

  /// Validates ranges (positive priors, iterations > burnin, ...).
  Status Validate() const;

  /// Paper configuration for the book-author dataset: alpha0 = (10, 1000).
  static LtmOptions BookDataDefaults();
  /// Paper configuration for the movie-director dataset:
  /// alpha0 = (100, 10000).
  static LtmOptions MovieDataDefaults();

  /// The paper's prior-scaling rule (§6.2): the specificity prior counts
  /// "should be at the same scale as the number of facts to become
  /// effective". Returns defaults whose alpha0 strength is
  /// `strength_fraction * num_facts` with prior FPR mean `fpr_mean` —
  /// e.g. the paper's movie prior (100, 10000) is strength ~0.3 * 33526
  /// facts at mean ~0.01.
  static LtmOptions ScaledDefaults(size_t num_facts, double fpr_mean = 0.01,
                                   double strength_fraction = 0.3);
};

/// Applies spec-string options (truth/method_spec.h) on top of `base` and
/// validates the result. Accepted keys: iterations, burnin,
/// sample_gap|gap, seed, kernel, threshold|truth_threshold,
/// positive_only, refit_epoch_delta, and the
/// six prior pseudo-counts alpha0_pos, alpha0_neg, alpha1_pos, alpha1_neg,
/// beta_pos, beta_neg. Used by every LTM-family registry factory.
Result<LtmOptions> LtmOptionsFromSpec(const MethodOptions& spec_options,
                                      LtmOptions base);

}  // namespace ltm

#endif  // LTM_TRUTH_OPTIONS_H_
