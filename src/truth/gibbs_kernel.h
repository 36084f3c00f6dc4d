#ifndef LTM_TRUTH_GIBBS_KERNEL_H_
#define LTM_TRUTH_GIBBS_KERNEL_H_

#include <array>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "data/claim_graph.h"

namespace ltm {

/// Memoized transcendental tables behind the fused Gibbs kernel: the
/// Eq. 2 conditional depends on the per-source counts n_{s,i,j} only
/// through log(n + alpha_{i,j}) and log(n_{s,i,0} + n_{s,i,1} + alpha_i0 +
/// alpha_i1), and the counts are small non-negative integers (bounded by
/// the busiest source's claim count). So each distinct argument is
/// log()'d once and read back from a lazily-grown table — the
/// precompute-the-transcendentals idiom of large-scale collapsed
/// Gibbs/LDA samplers. FusedFlipLogOdds reads it per claim; the fused
/// sweep reads it only when it refreshes a source's cached terms
/// (FusedKernelState).
///
/// Tables are keyed by the truth label i (and observation j for the
/// numerator family) because the Beta pseudo-counts differ per (i, j).
/// One instance serves one chain (growth is not synchronized).
class LogCountTables {
 public:
  /// Per-table memoization cap. Counts at or beyond the cap (a source
  /// with > 64k claims) fall back to a direct std::log of the identical
  /// argument — same value to the bit, so behavior is unaffected — which
  /// bounds each table at 512 KB and the eager Grow fill at 64k logs no
  /// matter how prolific the busiest source is.
  static constexpr size_t kMaxEntries = 1 << 16;

  LogCountTables() = default;

  /// (Re-)binds the tables to a prior configuration and drops any
  /// memoized entries. alpha[i][j] is the Eq. 2 pseudo-count layout used
  /// by LtmGibbs: alpha[0] = {alpha0.neg, alpha0.pos}, alpha[1] =
  /// {alpha1.neg, alpha1.pos}.
  void Reset(const std::array<std::array<double, 2>, 2>& alpha);

  /// log(n + alpha[i][j]); n >= 0.
  double LogNum(int i, int j, int64_t n) {
    const size_t idx = static_cast<size_t>(n);
    if (idx >= kMaxEntries) {
      return std::log(static_cast<double>(n) + alpha_[i][j]);
    }
    std::vector<double>& t = num_[i][j];
    if (idx >= t.size()) Grow(&t, alpha_[i][j], idx);
    return t[idx];
  }

  /// log(n + alpha[i][0] + alpha[i][1]); n >= 0.
  double LogDen(int i, int64_t n) {
    const size_t idx = static_cast<size_t>(n);
    if (idx >= kMaxEntries) {
      return std::log(static_cast<double>(n) + alpha_sum_[i]);
    }
    std::vector<double>& t = den_[i];
    if (idx >= t.size()) Grow(&t, alpha_sum_[i], idx);
    return t[idx];
  }

 private:
  /// Extends `t` so index `needed` exists (callers guarantee `needed` is
  /// below kMaxEntries), filling log(k + offset). Doubling growth keeps
  /// the amortized cost per distinct count O(1).
  static void Grow(std::vector<double>* t, double offset, size_t needed);

  std::array<std::array<std::vector<double>, 2>, 2> num_;
  std::array<std::vector<double>, 2> den_;
  std::array<std::array<double, 2>, 2> alpha_{};
  std::array<double, 2> alpha_sum_{};
};

/// The uncached fused per-fact Gibbs update: returns the flip log-odds
///
///   delta = log p(t_f = 1-cur | t_-f, o) - log p(t_f = cur | t_-f, o)
///
/// in a single pass over fact f's packed adjacency, with the cur-side
/// self-exclusion folded into the table indices (fact f's own claim is
/// always counted under cur, so n_{s,cur,j} - 1 and n_{s,cur,+} - 1 are
/// the excluded counts and never go negative). The reference kernel
/// walks the adjacency twice and calls std::log four times per entry;
/// this walks it once and calls std::log zero times once the tables are
/// warm. p(flip) = sigmoid(delta). FusedSweep reads the same terms from
/// its per-source cache; this per-fact form is the oracle tests compare
/// that cache against.
///
/// `counts` is the chain's n_{s,i,j} matrix flattened s*4 + i*2 + j.
/// `log_beta[i]` is log(beta_i) of the truth prior.
double FusedFlipLogOdds(const ClaimGraph& graph, FactId f, int cur,
                        const std::vector<int64_t>& counts,
                        const std::array<double, 2>& log_beta,
                        LogCountTables* tables);

/// Per-chain state of the fused kernel: the log memo plus a per-source
/// cache of the two Eq. 2 terms FusedFlipLogOdds adds per claim. For the
/// packed fact-side entry e = (s << 1) | j and a fact currently labelled
/// cur (other = 1 - cur), terms[e * 4 + cur * 2 + k] holds
///
///   k = 0:  LogNum(other, j, n_{s,other,j}) - LogDen(other, n_{s,other,+})
///   k = 1:  LogNum(cur, j, n_{s,cur,j} - 1) - LogDen(cur, n_{s,cur,+} - 1)
///
/// so one source's eight terms share a cache line. A k = 1 cell whose
/// self-excluded count would be negative (no claim of (s, j) sits under
/// cur) is never read and holds NaN. Each chain owns one instance, so a
/// warm sweep allocates nothing.
struct FusedKernelState {
  LogCountTables tables;
  std::vector<double> terms;  // NumSources() * 8 doubles
};

/// One fused Gibbs pass over every fact in id order. It first rebuilds
/// every source's cached terms in `state` from `counts` (O(sources));
/// then per fact it sums the cached terms of the fact's claims in
/// FusedFlipLogOdds' order (so the flip log-odds match it to the bit),
/// draws one uniform from `rng`, and on a flip updates `truth` and
/// `counts` in place and refreshes the terms of the flipped fact's
/// sources. Returns the flip count. LtmGibbs runs every fused sweep
/// through it.
int FusedSweep(const ClaimGraph& graph, std::vector<uint8_t>* truth,
               std::vector<int64_t>* counts,
               const std::array<double, 2>& log_beta, FusedKernelState* state,
               Rng* rng);

/// Rebuilds the flattened n_{s,i,j} count matrix (s*4 + i*2 + j, the
/// layout both kernels index) from the graph and a truth assignment.
/// `counts` must already be sized NumSources()*4; it is zeroed first.
void RecountClaims(const ClaimGraph& graph,
                   const std::vector<uint8_t>& truth,
                   std::vector<int64_t>* counts);

}  // namespace ltm

#endif  // LTM_TRUTH_GIBBS_KERNEL_H_
