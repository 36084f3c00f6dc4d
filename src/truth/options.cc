#include "truth/options.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "common/string_util.h"
#include "truth/method_spec.h"

namespace ltm {

const char* LtmKernelName(LtmKernel kernel) {
  return kernel == LtmKernel::kFused ? "fused" : "reference";
}

Result<LtmKernel> ParseLtmKernel(const std::string& name) {
  const std::string lower = ToLower(name);
  if (lower == "reference") return LtmKernel::kReference;
  if (lower == "fused") return LtmKernel::kFused;
  return Status::InvalidArgument(
      "kernel must be reference|fused, got '" + name + "'");
}

namespace {

/// One prior pseudo-count: must be finite and strictly positive.
Status ValidatePseudoCount(const char* name, double value) {
  if (!std::isfinite(value)) {
    return Status::InvalidArgument(std::string(name) +
                                   " pseudo-count must be finite, got " +
                                   std::to_string(value));
  }
  if (value <= 0.0) {
    return Status::InvalidArgument(std::string(name) +
                                   " pseudo-count must be > 0, got " +
                                   std::to_string(value));
  }
  return Status::OK();
}

}  // namespace

Status LtmOptions::Validate() const {
  LTM_RETURN_IF_ERROR(ValidatePseudoCount("alpha0.pos", alpha0.pos));
  LTM_RETURN_IF_ERROR(ValidatePseudoCount("alpha0.neg", alpha0.neg));
  LTM_RETURN_IF_ERROR(ValidatePseudoCount("alpha1.pos", alpha1.pos));
  LTM_RETURN_IF_ERROR(ValidatePseudoCount("alpha1.neg", alpha1.neg));
  LTM_RETURN_IF_ERROR(ValidatePseudoCount("beta.pos", beta.pos));
  LTM_RETURN_IF_ERROR(ValidatePseudoCount("beta.neg", beta.neg));
  if (iterations <= 0) {
    return Status::InvalidArgument("iterations must be > 0, got " +
                                   std::to_string(iterations));
  }
  if (burnin < 0 || burnin >= iterations) {
    return Status::InvalidArgument(
        "burnin must be in [0, iterations); got burnin=" +
        std::to_string(burnin) + " with iterations=" +
        std::to_string(iterations));
  }
  if (sample_gap <= 0) {
    return Status::InvalidArgument("sample_gap must be >= 1, got " +
                                   std::to_string(sample_gap));
  }
  if (!std::isfinite(truth_threshold) || truth_threshold < 0.0 ||
      truth_threshold > 1.0) {
    return Status::InvalidArgument("truth_threshold must be in [0, 1], got " +
                                   std::to_string(truth_threshold));
  }
  return Status::OK();
}

Result<LtmOptions> LtmOptionsFromSpec(const MethodOptions& spec_options,
                                      LtmOptions base) {
  LTM_ASSIGN_OR_RETURN(base.iterations,
                       spec_options.GetInt("iterations", base.iterations));
  LTM_ASSIGN_OR_RETURN(base.burnin, spec_options.GetInt("burnin", base.burnin));
  LTM_ASSIGN_OR_RETURN(base.sample_gap,
                       spec_options.GetInt("sample_gap", base.sample_gap));
  LTM_ASSIGN_OR_RETURN(base.sample_gap,
                       spec_options.GetInt("gap", base.sample_gap));
  LTM_ASSIGN_OR_RETURN(base.seed, spec_options.GetUint64("seed", base.seed));
  LTM_ASSIGN_OR_RETURN(
      const std::string kernel_name,
      spec_options.GetString("kernel", LtmKernelName(base.kernel)));
  LTM_ASSIGN_OR_RETURN(base.kernel, ParseLtmKernel(kernel_name));
  LTM_ASSIGN_OR_RETURN(
      base.truth_threshold,
      spec_options.GetDouble("threshold", base.truth_threshold));
  LTM_ASSIGN_OR_RETURN(
      base.truth_threshold,
      spec_options.GetDouble("truth_threshold", base.truth_threshold));
  LTM_ASSIGN_OR_RETURN(
      base.positive_claims_only,
      spec_options.GetBool("positive_only", base.positive_claims_only));
  LTM_ASSIGN_OR_RETURN(
      base.refit_epoch_delta,
      spec_options.GetUint64("refit_epoch_delta", base.refit_epoch_delta));
  LTM_ASSIGN_OR_RETURN(base.alpha0.pos,
                       spec_options.GetDouble("alpha0_pos", base.alpha0.pos));
  LTM_ASSIGN_OR_RETURN(base.alpha0.neg,
                       spec_options.GetDouble("alpha0_neg", base.alpha0.neg));
  LTM_ASSIGN_OR_RETURN(base.alpha1.pos,
                       spec_options.GetDouble("alpha1_pos", base.alpha1.pos));
  LTM_ASSIGN_OR_RETURN(base.alpha1.neg,
                       spec_options.GetDouble("alpha1_neg", base.alpha1.neg));
  LTM_ASSIGN_OR_RETURN(base.beta.pos,
                       spec_options.GetDouble("beta_pos", base.beta.pos));
  LTM_ASSIGN_OR_RETURN(base.beta.neg,
                       spec_options.GetDouble("beta_neg", base.beta.neg));
  LTM_RETURN_IF_ERROR(base.Validate());
  return base;
}

LtmOptions LtmOptions::BookDataDefaults() {
  LtmOptions opts;
  opts.alpha0 = BetaPrior{10.0, 1000.0};
  opts.alpha1 = BetaPrior{50.0, 50.0};
  opts.beta = BetaPrior{10.0, 10.0};
  return opts;
}

LtmOptions LtmOptions::ScaledDefaults(size_t num_facts, double fpr_mean,
                                      double strength_fraction) {
  LtmOptions opts;
  const double strength =
      std::max(100.0, strength_fraction * static_cast<double>(num_facts));
  opts.alpha0 = BetaPrior{fpr_mean * strength, (1.0 - fpr_mean) * strength};
  opts.alpha1 = BetaPrior{50.0, 50.0};
  opts.beta = BetaPrior{10.0, 10.0};
  return opts;
}

LtmOptions LtmOptions::MovieDataDefaults() {
  LtmOptions opts;
  opts.alpha0 = BetaPrior{100.0, 10000.0};
  opts.alpha1 = BetaPrior{50.0, 50.0};
  opts.beta = BetaPrior{10.0, 10.0};
  return opts;
}

}  // namespace ltm
