#include "ext/adversarial.h"

#include <algorithm>

#include "common/logging.h"

namespace ltm {
namespace ext {

Result<AdversarialResult> RunAdversarialFilter(const FactTable& facts,
                                               const ClaimGraph& graph,
                                               const AdversarialOptions& options,
                                               const RunContext& ctx) {
  RunObserver obs(ctx, "AdversarialFilter");
  AdversarialResult result;
  std::vector<uint8_t> removed(graph.NumSources(), 0);
  ClaimGraph current = graph;
  LatentTruthModel model(options.ltm);

  for (int round = 0; round < options.max_rounds; ++round) {
    LTM_RETURN_IF_ERROR(obs.Check());
    ++result.rounds;
    RunContext fit_ctx = obs.NestedContext();
    fit_ctx.with_quality = true;
    fit_ctx.seed = ctx.seed;
    Result<TruthResult> fit = model.Run(fit_ctx, facts, current);
    if (!fit.ok()) return fit.status();
    result.estimate = std::move(fit->estimate);
    SourceQuality quality = std::move(*fit->quality);
    obs.Progress(static_cast<double>(round + 1) / options.max_rounds);
    if (round == 0) {
      result.quality = quality;
    } else {
      // Refresh quality for surviving sources only.
      for (SourceId s = 0; s < quality.NumSources(); ++s) {
        if (removed[s]) continue;
        result.quality.sensitivity[s] = quality.sensitivity[s];
        result.quality.specificity[s] = quality.specificity[s];
        result.quality.precision[s] = quality.precision[s];
        result.quality.accuracy[s] = quality.accuracy[s];
        result.quality.expected_counts[s] = quality.expected_counts[s];
      }
    }

    // Identify newly adversarial sources.
    std::vector<SourceId> to_remove;
    for (SourceId s = 0; s < quality.NumSources(); ++s) {
      if (removed[s]) continue;
      // Only judge sources that still have claims.
      if (current.SourceDegree(s) == 0) continue;
      if (quality.specificity[s] < options.min_specificity ||
          quality.precision[s] < options.min_precision) {
        to_remove.push_back(s);
      }
    }
    if (to_remove.empty()) break;
    for (SourceId s : to_remove) {
      removed[s] = 1;
      result.removed_sources.push_back(s);
      LTM_LOG(Info) << "adversarial filter: removing source " << s;
    }

    // Rebuild the graph without the removed sources' claims.
    std::vector<Claim> surviving;
    surviving.reserve(current.NumClaims());
    for (FactId f = 0; f < current.NumFacts(); ++f) {
      for (uint32_t entry : current.FactClaims(f)) {
        const SourceId cs = ClaimGraph::PackedId(entry);
        if (!removed[cs]) {
          surviving.push_back(
              Claim{f, cs, ClaimGraph::PackedObs(entry) != 0});
        }
      }
    }
    current = ClaimGraph::FromClaims(std::move(surviving), facts.NumFacts(),
                                     graph.NumSources());
  }
  // Facts whose every assertion came from removed sources have no
  // surviving positive evidence: mark them false rather than leaving them
  // at the prior mean.
  for (FactId f = 0; f < facts.NumFacts(); ++f) {
    if (current.FactPositiveCount(f) == 0) {
      result.estimate.probability[f] = 0.0;
    }
  }
  result.wall_seconds = obs.ElapsedSeconds();
  return result;
}

}  // namespace ext
}  // namespace ltm
