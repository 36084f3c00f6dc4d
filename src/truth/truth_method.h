#ifndef LTM_TRUTH_TRUTH_METHOD_H_
#define LTM_TRUTH_TRUTH_METHOD_H_

#include <atomic>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "common/timer.h"
#include "data/claim_graph.h"
#include "data/fact_table.h"
#include "truth/source_quality.h"

namespace ltm {

namespace obs {
class MetricsRegistry;
}  // namespace obs

/// Output of a truth-finding method: one score per FactId in [0, 1],
/// interpreted as (or used like) the probability that the fact is true.
/// A fact is predicted true iff its score >= the decision threshold
/// (0.5 unless supervised tuning is available; paper §6.2.1).
struct TruthEstimate {
  std::vector<double> probability;

  /// Boolean predictions at `threshold`.
  std::vector<bool> Decisions(double threshold = 0.5) const {
    std::vector<bool> out(probability.size());
    for (size_t i = 0; i < probability.size(); ++i) {
      out[i] = probability[i] >= threshold;
    }
    return out;
  }
};

/// One per-iteration convergence record. `delta` is the method's own
/// convergence measure: max source-trust change for fixed-point solvers,
/// the fraction of facts whose truth flipped for the Gibbs sampler.
struct IterationStat {
  int iteration = 0;        ///< 0-based sweep / fixed-point round.
  double delta = 0.0;       ///< Method-specific convergence measure.
  double elapsed_seconds = 0.0;  ///< Wall clock since Run() entry.
};

/// Per-call controls for TruthMethod::Run: cooperative cancellation, a
/// wall-clock deadline, a seed override, and observability hooks. All
/// fields are optional; a default-constructed context runs to completion
/// silently, exactly like the pre-context API.
struct RunContext {
  /// Checked between iterations; set to true (from any thread) to stop the
  /// run. A cancelled run returns StatusCode::kCancelled.
  const std::atomic<bool>* cancel = nullptr;

  /// Wall-clock budget in seconds, measured from Run() entry; <= 0 means
  /// unlimited. An expired run returns StatusCode::kDeadlineExceeded.
  double deadline_seconds = 0.0;

  /// Overrides the method's configured RNG seed (sampling methods only).
  std::optional<uint64_t> seed;

  /// Record an IterationStat per iteration into TruthResult::trace.
  bool collect_trace = false;

  /// Fill TruthResult::quality (methods with a source-quality read-off:
  /// the LTM family; others leave it empty).
  bool with_quality = false;

  /// When set, samplers publish per-sweep timing and flip counts into
  /// this registry (`ltm_infer_sweeps_total`, `ltm_infer_flips_total`,
  /// `ltm_infer_sweep_micros`). Off (null) by
  /// default: inference is the hot loop, and the instrumentation only
  /// ever observes timing — never sampled values — so enabling it cannot
  /// change results. Must outlive the run. Propagated to nested runs.
  obs::MetricsRegistry* metrics = nullptr;

  /// Invoked after every iteration with the convergence record.
  std::function<void(const IterationStat&)> on_iteration;

  /// Coarse progress: stage label ("gibbs", "refit", ...) and completed
  /// fraction in [0, 1].
  std::function<void(std::string_view stage, double fraction)> on_progress;

  /// Method-specific intermediate state, invoked per iteration when set.
  /// LTM reports the sweep's hard truth assignment as 0/1 probabilities,
  /// which is what the Fig. 5 convergence study consumes; fixed-point
  /// methods report their current belief vector.
  std::function<void(int iteration, const TruthEstimate& state)> on_state;
};

/// Structured output of a run: the estimate plus everything an engine
/// wants to observe — optional source quality, the convergence trace,
/// iteration count and wall-clock time.
struct TruthResult {
  TruthEstimate estimate;

  /// Filled when RunContext::with_quality is set and the method supports a
  /// quality read-off (paper §5.3).
  std::optional<SourceQuality> quality;

  /// Per-iteration records when RunContext::collect_trace is set.
  std::vector<IterationStat> trace;

  /// Iterations actually executed (0 for closed-form methods).
  int iterations = 0;

  /// False iff an iterative method stopped on its iteration cap while its
  /// convergence measure was still above tolerance.
  bool converged = true;

  /// Total wall-clock time of the run in seconds.
  double wall_seconds = 0.0;
};

/// Uniform session-style interface over all truth-finding algorithms in
/// the paper (§6.2): LTM, its variants, and the baselines. Implementations
/// are deterministic given their options and the context seed (any
/// randomness is seeded), and honor the context's cancellation flag and
/// deadline between iterations.
class TruthMethod {
 public:
  virtual ~TruthMethod() = default;

  /// Display name as used in the paper's tables ("LTM", "Voting", ...).
  virtual std::string name() const = 0;

  /// Scores every fact in `graph` under `ctx`. The packed CSR ClaimGraph
  /// is the single inference substrate — every method streams its
  /// adjacency entries. `facts` provides entity grouping for methods that
  /// need it (e.g. PooledInvestment's mutual-exclusion pools). Returns
  /// Cancelled/DeadlineExceeded when the context interrupts the run,
  /// InvalidArgument for unusable options.
  virtual Result<TruthResult> Run(const RunContext& ctx,
                                  const FactTable& facts,
                                  const ClaimGraph& graph) const = 0;

  /// Convenience wrapper: default context, estimate only. A default
  /// context cannot be cancelled or expire, so this only fails on
  /// misconfiguration — in that case the failure is logged and every fact
  /// scores at the 0.5 prior.
  TruthEstimate Score(const FactTable& facts, const ClaimGraph& graph) const;
};

/// Bundles the RunContext bookkeeping iterative solvers share: a wall
/// timer, cancellation/deadline checks, and trace/callback fan-out.
/// Intended use inside TruthMethod::Run implementations:
///
///   RunObserver obs(ctx, name());
///   for (int iter = 0; iter < n; ++iter) {
///     LTM_RETURN_IF_ERROR(obs.Check());
///     ... one iteration ...
///     obs.OnIteration(iter, delta, &result);
///   }
///   obs.Finish(&result, iters_run, converged);
class RunObserver {
 public:
  RunObserver(const RunContext& ctx, std::string stage);

  /// OK, or Cancelled / DeadlineExceeded per the context.
  Status Check() const;

  /// Records one iteration: appends to `result->trace` when tracing, and
  /// invokes the context's on_iteration callback.
  void OnIteration(int iteration, double delta, TruthResult* result) const;

  /// Invokes the context's on_state callback (when set) with the current
  /// method-specific state vector.
  void OnState(int iteration, const TruthEstimate& state) const;

  /// Invokes the context's on_progress callback (when set).
  void Progress(double fraction) const;

  /// Seconds since construction.
  double ElapsedSeconds() const { return timer_.ElapsedSeconds(); }

  /// Context for a nested run: shares the cancel flag, carries the
  /// deadline *minus the time already spent* (so an outer budget is never
  /// handed out twice), and drops the callbacks — the nested run reports
  /// through its caller.
  RunContext NestedContext() const;

  /// Stamps iterations/converged/wall_seconds onto `result`.
  void Finish(TruthResult* result, int iterations, bool converged) const;

 private:
  const RunContext& ctx_;
  std::string stage_;
  WallTimer timer_;
};

}  // namespace ltm

#endif  // LTM_TRUTH_TRUTH_METHOD_H_
