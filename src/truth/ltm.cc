#include "truth/ltm.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>

#include "common/logging.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "truth/registry.h"

namespace ltm {

LtmGibbs::LtmGibbs(const ClaimGraph& graph, const LtmOptions& options)
    : graph_(graph), options_(options), rng_(options.seed) {
  alpha_[0][0] = options_.alpha0.neg;  // prior true negative count
  alpha_[0][1] = options_.alpha0.pos;  // prior false positive count
  alpha_[1][0] = options_.alpha1.neg;  // prior false negative count
  alpha_[1][1] = options_.alpha1.pos;  // prior true positive count
  log_beta_[0] = std::log(options_.beta.neg);
  log_beta_[1] = std::log(options_.beta.pos);
  truth_.assign(graph_.NumFacts(), 0);
  counts_.assign(graph_.NumSources() * 4, 0);
  truth_sum_.assign(graph_.NumFacts(), 0.0);
  if (options_.kernel == LtmKernel::kFused) fused_.tables.Reset(alpha_);
  DrawInitialTruth();
}

void LtmGibbs::DrawInitialTruth() {
  for (FactId f = 0; f < truth_.size(); ++f) {
    truth_[f] = rng_.Bernoulli(0.5) ? 1 : 0;
  }
  MutexLock lock(counts_mutex_);
  counts_stale_ = true;
}

void LtmGibbs::EnsureCounts() const {
  MutexLock lock(counts_mutex_);
  if (!counts_stale_) return;
  RecountClaims(graph_, truth_, &counts_);
  counts_stale_ = false;
}

void LtmGibbs::Initialize() {
  std::fill(truth_sum_.begin(), truth_sum_.end(), 0.0);
  num_samples_ = 0;
  DrawInitialTruth();
}

double LtmGibbs::LogConditional(FactId f, int i, bool exclude_self) const {
  // log beta_i prior factor (Eq. 2).
  double lp = std::log(i == 1 ? options_.beta.pos : options_.beta.neg);
  const int64_t self = exclude_self ? 1 : 0;
  const double alpha_sum = alpha_[i][0] + alpha_[i][1];
  for (uint32_t entry : graph_.FactClaims(f)) {
    const uint32_t s = ClaimGraph::PackedId(entry);
    const int j = ClaimGraph::PackedObs(entry);
    const int64_t n_ij = counts_[s * 4 + i * 2 + j] - self;
    const int64_t n_i =
        counts_[s * 4 + i * 2] + counts_[s * 4 + i * 2 + 1] - self;
    lp += std::log(static_cast<double>(n_ij) + alpha_[i][j]) -
          std::log(static_cast<double>(n_i) + alpha_sum);
  }
  return lp;
}

int LtmGibbs::RunSweep() {
  EnsureCounts();
  if (options_.kernel == LtmKernel::kFused) {
    return FusedSweep(graph_, &truth_, &counts_, log_beta_, &fused_, &rng_);
  }
  const FactId num_facts = static_cast<FactId>(truth_.size());
  int flips = 0;
  for (FactId f = 0; f < num_facts; ++f) {
    const int cur = truth_[f];
    const int other = 1 - cur;
    const double lp_cur = LogConditional(f, cur, /*exclude_self=*/true);
    const double lp_other = LogConditional(f, other, /*exclude_self=*/false);
    // p(flip) = p_other / (p_cur + p_other) = sigmoid(lp_other - lp_cur).
    const double p_flip = 1.0 / (1.0 + std::exp(lp_cur - lp_other));
    if (rng_.Uniform() < p_flip) {
      ++flips;
      truth_[f] = static_cast<uint8_t>(other);
      for (uint32_t entry : graph_.FactClaims(f)) {
        const uint32_t s = ClaimGraph::PackedId(entry);
        const int j = ClaimGraph::PackedObs(entry);
        --counts_[s * 4 + cur * 2 + j];
        ++counts_[s * 4 + other * 2 + j];
      }
    }
  }
  return flips;
}

void LtmGibbs::AccumulateSample() {
  for (FactId f = 0; f < truth_.size(); ++f) {
    truth_sum_[f] += truth_[f];
  }
  ++num_samples_;
}

TruthEstimate LtmGibbs::PosteriorMean() const {
  TruthEstimate est;
  est.probability.resize(truth_.size(), 0.5);
  if (num_samples_ == 0) return est;
  for (FactId f = 0; f < truth_.size(); ++f) {
    est.probability[f] = truth_sum_[f] / num_samples_;
  }
  return est;
}

TruthEstimate LtmGibbs::Run() const {
  // The sampler samples the graph it was given; the LTMpos projection is
  // the wrapper's business.
  LtmOptions opts = options_;
  opts.positive_claims_only = false;
  return LatentTruthModel(opts).RunWithQuality(graph_, /*quality=*/nullptr);
}

LatentTruthModel::LatentTruthModel(LtmOptions options)
    : options_(std::move(options)) {
  Status st = options_.Validate();
  if (!st.ok()) {
    LTM_LOG(Warning) << "invalid LtmOptions (" << st.ToString()
                     << "); falling back to defaults";
    uint64_t seed = options_.seed;
    options_ = LtmOptions();
    options_.seed = seed;
  }
}

std::string LatentTruthModel::name() const {
  return options_.positive_claims_only ? "LTMpos" : "LTM";
}

Result<TruthResult> LatentTruthModel::Run(const RunContext& ctx,
                                          const FactTable& facts,
                                          const ClaimGraph& graph) const {
  (void)facts;
  LtmOptions opts = options_;
  if (ctx.seed.has_value()) opts.seed = *ctx.seed;
  LTM_RETURN_IF_ERROR(opts.Validate());

  const ClaimGraph* active = &graph;
  ClaimGraph positive;
  if (opts.positive_claims_only) {
    positive = graph.PositiveOnly();
    active = &positive;
  }

  // Construction plus the explicit Initialize() is the stream contract:
  // NumFacts draws each, then one uniform per fact per sweep.
  // The count matrix is built lazily, so the double initialization costs
  // two draw passes but only one count pass.
  RunObserver obs(ctx, name());
  LtmGibbs sampler(*active, opts);
  sampler.Initialize();

  TruthResult result;
  const double num_facts = std::max<double>(1.0, sampler.truth().size());
  TruthEstimate state;  // reused buffer for on_state reporting
  // Per-sweep timing, published only when the caller injected a registry.
  // The instrumentation observes the clock, never a sampled value, so
  // enabling it cannot perturb the chain.
  obs::Counter* sweeps_total =
      ctx.metrics == nullptr ? nullptr
                             : ctx.metrics->counter("ltm_infer_sweeps_total");
  obs::Counter* flips_total =
      ctx.metrics == nullptr ? nullptr
                             : ctx.metrics->counter("ltm_infer_flips_total");
  obs::Histogram* sweep_micros =
      ctx.metrics == nullptr
          ? nullptr
          : ctx.metrics->histogram("ltm_infer_sweep_micros");
  for (int iter = 0; iter < opts.iterations; ++iter) {
    LTM_RETURN_IF_ERROR(obs.Check());
    int flips = 0;
    {
      obs::ObsSpan span("gibbs_sweep");
      WallTimer sweep_timer;
      flips = sampler.RunSweep();
      if (sweeps_total != nullptr) {
        sweeps_total->Increment();
        flips_total->Increment(static_cast<uint64_t>(flips));
        sweep_micros->Record(
            static_cast<uint64_t>(sweep_timer.ElapsedSeconds() * 1e6));
      }
    }
    if (iter >= opts.burnin && (iter - opts.burnin) % opts.sample_gap == 0) {
      sampler.AccumulateSample();
    }
    obs.OnIteration(iter, flips / num_facts, &result);
    if (ctx.on_state) {
      state.probability.assign(sampler.truth().begin(), sampler.truth().end());
      obs.OnState(iter, state);
    }
    obs.Progress(static_cast<double>(iter + 1) / opts.iterations);
  }

  result.estimate = sampler.PosteriorMean();
  if (ctx.with_quality) {
    // Quality is read off the full claim graph (§5.3) so that negative
    // claims inform specificity even for LTMpos.
    result.quality = EstimateSourceQuality(
        graph, result.estimate.probability, opts.alpha0, opts.alpha1);
  }
  obs.Finish(&result, opts.iterations, /*converged=*/true);
  return result;
}

TruthEstimate LatentTruthModel::RunWithQuality(const ClaimGraph& graph,
                                               SourceQuality* quality) const {
  RunContext ctx;
  ctx.with_quality = quality != nullptr;
  FactTable unused;
  Result<TruthResult> result = Run(ctx, unused, graph);
  if (!result.ok()) {
    LTM_LOG(Warning) << name() << "::RunWithQuality failed ("
                     << result.status().ToString()
                     << "); scoring every fact at the 0.5 prior";
    TruthEstimate prior;
    prior.probability.assign(graph.NumFacts(), 0.5);
    return prior;
  }
  if (quality != nullptr) {
    *quality = std::move(*result->quality);
  }
  return std::move(*result).estimate;
}

namespace {

/// Shared LTM/LTMpos factory: seeds the ablation flag, applies spec
/// options (which may still override it explicitly), validates.
Result<std::unique_ptr<TruthMethod>> MakeLtm(const MethodOptions& opts,
                                             LtmOptions base,
                                             bool positive_claims_only) {
  base.positive_claims_only = positive_claims_only;
  LTM_ASSIGN_OR_RETURN(const LtmOptions options, LtmOptionsFromSpec(opts, base));
  return std::unique_ptr<TruthMethod>(new LatentTruthModel(options));
}

}  // namespace

LTM_REGISTER_TRUTH_METHOD(
    "LTM", {"latenttruthmodel"},
    [](const MethodOptions& opts, const LtmOptions& base) {
      return MakeLtm(opts, base, /*positive_claims_only=*/false);
    });

LTM_REGISTER_TRUTH_METHOD(
    "LTMpos", {},
    [](const MethodOptions& opts, const LtmOptions& base) {
      return MakeLtm(opts, base, /*positive_claims_only=*/true);
    });

}  // namespace ltm
