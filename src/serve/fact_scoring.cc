#include "serve/fact_scoring.h"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "common/math_util.h"

namespace ltm {
namespace serve {

namespace {

SourceLogs MakeSourceLogs(double sensitivity, double specificity) {
  constexpr double kEps = 1e-12;
  const double phi1 = Clamp(sensitivity, kEps, 1.0 - kEps);
  const double phi0 = Clamp(1.0 - specificity, kEps, 1.0 - kEps);
  return SourceLogs{std::log(phi1), std::log(phi0), std::log(1.0 - phi1),
                    std::log(1.0 - phi0)};
}

}  // namespace

QualityLookup BuildQualityLookup(const SourceQuality& quality,
                                 const StringInterner& sources,
                                 const LtmOptions& options) {
  QualityLookup lookup;
  const size_t n = std::min(sources.size(), quality.NumSources());
  lookup.sources.reserve(n);
  for (SourceId s = 0; s < n; ++s) {
    lookup.sources.emplace(
        std::string(sources.Get(s)),
        MakeSourceLogs(quality.sensitivity[s], quality.specificity[s]));
  }
  // Unseen sources score at the prior means, with specificity stored as
  // 1 − E[alpha0] so φ0 = 1 − (1 − E[alpha0]): the exact value the oracle
  // (LtmIncremental over name-remapped quality) takes the log of.
  lookup.unseen = MakeSourceLogs(options.alpha1.Mean(),
                                 1.0 - options.alpha0.Mean());
  lookup.log_beta1 = std::log(options.beta.pos);
  lookup.log_beta0 = std::log(options.beta.neg);
  lookup.no_claim_prior = options.beta.Mean();
  return lookup;
}

void ScoreEntityRows(std::span<const store::RowView> rows,
                     const QualityLookup& lookup,
                     std::vector<ScoredFact>* out) {
  struct LocalSource {
    std::string_view name;
    const SourceLogs* logs;
  };
  // Per-thread scratch: this runs on every serving miss, and a few
  // vectors' allocations would cost as much as the arithmetic.
  struct Scratch {
    std::vector<LocalSource> sources;
    std::vector<std::pair<uint32_t, uint32_t>> row_ids;  // (fact, source)
    std::vector<uint8_t> claimed;  // [fact * num_sources + source]
  };
  thread_local Scratch scratch;
  std::vector<LocalSource>& sources = scratch.sources;
  sources.clear();
  scratch.row_ids.clear();
  out->clear();
  // Local fact and source ids by first appearance — what interning the
  // rows into a one-entity RawDatabase assigns. Linear searches: one
  // entity has few distinct attributes and sources.
  for (const store::RowView& row : rows) {
    size_t f = 0;
    while (f < out->size() && (*out)[f].attribute != row.attribute) ++f;
    if (f == out->size()) out->push_back(ScoredFact{row.attribute, 0.0});
    size_t s = 0;
    while (s < sources.size() && sources[s].name != row.source) ++s;
    if (s == sources.size()) {
      sources.push_back(LocalSource{row.source, &lookup.Find(row.source)});
    }
    scratch.row_ids.emplace_back(static_cast<uint32_t>(f),
                                 static_cast<uint32_t>(s));
  }

  const size_t num_sources = sources.size();
  scratch.claimed.assign(out->size() * num_sources, 0);
  for (const auto& [f, s] : scratch.row_ids) {
    scratch.claimed[f * num_sources + s] = 1;
  }
  for (size_t f = 0; f < out->size(); ++f) {
    const uint8_t* fact_claimed = scratch.claimed.data() + f * num_sources;
    double lp1 = lookup.log_beta1;
    double lp0 = lookup.log_beta0;
    for (size_t s = 0; s < num_sources; ++s) {
      if (!fact_claimed[s]) continue;
      lp1 += sources[s].logs->log_phi1;
      lp0 += sources[s].logs->log_phi0;
    }
    for (size_t s = 0; s < num_sources; ++s) {
      if (fact_claimed[s]) continue;
      lp1 += sources[s].logs->log_not_phi1;
      lp0 += sources[s].logs->log_not_phi0;
    }
    (*out)[f].posterior = Sigmoid(lp1 - lp0);
  }
}

}  // namespace serve
}  // namespace ltm
