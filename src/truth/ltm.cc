#include "truth/ltm.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "truth/registry.h"

namespace ltm {

namespace {

/// An explicit `shards` pins the chain shape regardless of worker count;
/// otherwise the shard count follows `threads` (0 = hardware
/// concurrency).
int ResolveShards(const LtmOptions& options) {
  if (options.shards > 0) return options.shards;
  return options.threads <= 0 ? ThreadPool::HardwareConcurrency()
                              : options.threads;
}

}  // namespace

LtmGibbs::LtmGibbs(const ClaimGraph& graph, const LtmOptions& options)
    : graph_(graph),
      options_(options),
      num_shards_(ResolveShards(options)),
      kernel_(ResolveKernel(options.kernel, num_shards_)),
      shard_bounds_(graph.PartitionFacts(num_shards_)),
      rng_(options.seed) {
  alpha_[0][0] = options_.alpha0.neg;  // prior true negative count
  alpha_[0][1] = options_.alpha0.pos;  // prior false positive count
  alpha_[1][0] = options_.alpha1.neg;  // prior false negative count
  alpha_[1][1] = options_.alpha1.pos;  // prior true positive count
  log_beta_[0] = std::log(options_.beta.neg);
  log_beta_[1] = std::log(options_.beta.pos);
  truth_.assign(graph_.NumFacts(), 0);
  counts_.assign(graph_.NumSources() * 4, 0);
  truth_sum_.assign(graph_.NumFacts(), 0.0);
  if (num_shards_ > 1) {
    shard_rngs_.reserve(num_shards_);
    for (int k = 0; k < num_shards_; ++k) {
      // SplitStream depends only on (seed, k): shard streams are fixed by
      // the options, not by construction order or thread scheduling.
      shard_rngs_.push_back(rng_.SplitStream(static_cast<uint64_t>(k)));
    }
    shard_counts_.assign(num_shards_, std::vector<int64_t>());
    shard_flips_.assign(num_shards_, 0);
  }
  if (kernel_ == LtmKernel::kFused) {
    shard_kernels_.resize(static_cast<size_t>(num_shards_));
    for (FusedKernelState& state : shard_kernels_) {
      state.tables.Reset(alpha_);
    }
  }
  DrawInitialTruth();
}

void LtmGibbs::DrawInitialTruth() {
  if (num_shards_ == 1) {
    for (FactId f = 0; f < truth_.size(); ++f) {
      truth_[f] = rng_.Bernoulli(0.5) ? 1 : 0;
    }
  } else {
    for (int k = 0; k < num_shards_; ++k) {
      for (FactId f = shard_bounds_[k]; f < shard_bounds_[k + 1]; ++f) {
        truth_[f] = shard_rngs_[k].Bernoulli(0.5) ? 1 : 0;
      }
    }
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

double LtmGibbs::LogConditional(FactId f, int i, bool exclude_self,
                                const std::vector<int64_t>& counts) const {
  // log beta_i prior factor (Eq. 2).
  double lp = std::log(i == 1 ? options_.beta.pos : options_.beta.neg);
  const int64_t self = exclude_self ? 1 : 0;
  const double alpha_sum = alpha_[i][0] + alpha_[i][1];
  for (uint32_t entry : graph_.FactClaims(f)) {
    const uint32_t s = ClaimGraph::PackedId(entry);
    const int j = ClaimGraph::PackedObs(entry);
    const int64_t n_ij = counts[s * 4 + i * 2 + j] - self;
    const int64_t n_i =
        counts[s * 4 + i * 2] + counts[s * 4 + i * 2 + 1] - self;
    lp += std::log(static_cast<double>(n_ij) + alpha_[i][j]) -
          std::log(static_cast<double>(n_i) + alpha_sum);
  }
  return lp;
}

int LtmGibbs::SweepRange(FactId begin, FactId end,
                         std::vector<int64_t>* counts, Rng* rng,
                         FusedKernelState* fused) {
  if (kernel_ == LtmKernel::kFused) {
    return FusedSweepRange(graph_, begin, end, &truth_, counts, log_beta_,
                           fused, rng);
  }
  int flips = 0;
  for (FactId f = begin; f < end; ++f) {
    const int cur = truth_[f];
    const int other = 1 - cur;
    const double lp_cur = LogConditional(f, cur, /*exclude_self=*/true,
                                         *counts);
    const double lp_other = LogConditional(f, other, /*exclude_self=*/false,
                                           *counts);
    // p(flip) = p_other / (p_cur + p_other) = sigmoid(lp_other - lp_cur).
    const double p_flip = 1.0 / (1.0 + std::exp(lp_cur - lp_other));
    if (rng->Uniform() < p_flip) {
      ++flips;
      truth_[f] = static_cast<uint8_t>(other);
      for (uint32_t entry : graph_.FactClaims(f)) {
        const uint32_t s = ClaimGraph::PackedId(entry);
        const int j = ClaimGraph::PackedObs(entry);
        --(*counts)[s * 4 + cur * 2 + j];
        ++(*counts)[s * 4 + other * 2 + j];
      }
    }
  }
  return flips;
}

Status LtmGibbs::RunSweep(const std::function<Status()>& stop_check,
                          int* flips) {
  EnsureCounts();
  if (num_shards_ == 1) {
    if (stop_check) LTM_RETURN_IF_ERROR(stop_check());
    *flips = SweepRange(0, static_cast<FactId>(truth_.size()), &counts_,
                        &rng_,
                        shard_kernels_.empty() ? nullptr : &shard_kernels_[0]);
    return Status::OK();
  }

  // Shard k samples its fact range against a private copy of the counts;
  // truth_ writes are disjoint byte ranges. counts_ is read-only until
  // the barrier below.
  Status st = ThreadPool::Shared().ParallelFor(
      0, static_cast<size_t>(num_shards_), 1,
      [this](size_t lo, size_t) {
        const int k = static_cast<int>(lo);
        shard_counts_[k].assign(counts_.begin(), counts_.end());
        shard_flips_[k] =
            SweepRange(shard_bounds_[k], shard_bounds_[k + 1],
                       &shard_counts_[k], &shard_rngs_[k],
                       shard_kernels_.empty() ? nullptr : &shard_kernels_[k]);
      },
      stop_check);
  // A cancelled/expired sweep leaves the chain torn (some shards swept,
  // none merged); callers abandon the run, so skip the merge.
  LTM_RETURN_IF_ERROR(st);

  // Barrier merge: integer deltas commute, so the result is independent
  // of shard completion order.
  for (size_t e = 0; e < counts_.size(); ++e) {
    const int64_t base = counts_[e];
    int64_t acc = base;
    for (int k = 0; k < num_shards_; ++k) {
      acc += shard_counts_[k][e] - base;
    }
    counts_[e] = acc;
  }
  int total_flips = 0;
  for (int k = 0; k < num_shards_; ++k) total_flips += shard_flips_[k];
  *flips = total_flips;
  return Status::OK();
}

int LtmGibbs::RunSweep() {
  int flips = 0;
  Status st = RunSweep(nullptr, &flips);
  (void)st;  // cannot fail without a stop_check
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
  // NumFacts draws per stream each, then one uniform per fact per sweep.
  // The count matrix is built lazily, so the double initialization costs
  // two draw passes but only one count pass.
  RunObserver obs(ctx, name());
  LtmGibbs sampler(*active, opts);
  sampler.Initialize();

  TruthResult result;
  const double num_facts = std::max<double>(1.0, sampler.truth().size());
  TruthEstimate state;  // reused buffer for on_state reporting
  const auto stop_check = [&obs] { return obs.Check(); };
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
    int flips = 0;
    {
      obs::ObsSpan span("gibbs_sweep");
      WallTimer sweep_timer;
      LTM_RETURN_IF_ERROR(sampler.RunSweep(stop_check, &flips));
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
