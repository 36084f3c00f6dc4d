#ifndef LTM_SERVE_FACT_SCORING_H_
#define LTM_SERVE_FACT_SCORING_H_

#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "data/interner.h"
#include "store/block_format.h"
#include "truth/options.h"
#include "truth/source_quality.h"

namespace ltm {
namespace serve {

/// One source's Eq. 3 log terms, precomputed at quality install: the
/// logs LtmIncremental takes per claim, with φ1 = sensitivity and
/// φ0 = 1 − specificity clamped to [1e-12, 1 − 1e-12].
struct SourceLogs {
  double log_phi1 = 0.0;
  double log_phi0 = 0.0;
  double log_not_phi1 = 0.0;  ///< log(1 − φ1)
  double log_not_phi0 = 0.0;  ///< log(1 − φ0)
};

/// std::hash over string_view, so the source table is looked up by
/// string_view without building a std::string.
struct TransparentStringHash {
  using is_transparent = void;
  size_t operator()(std::string_view s) const {
    return std::hash<std::string_view>{}(s);
  }
};

/// Frozen source quality as per-source log tables keyed by source
/// *name* — the serving-side view of a batch fit. Rows read from the
/// store carry source names, not the fit's ids; sources the fit never
/// saw score at the prior means (LtmIncremental's unseen-source rule).
struct QualityLookup {
  std::unordered_map<std::string, SourceLogs, TransparentStringHash,
                     std::equal_to<>>
      sources;
  SourceLogs unseen;
  double log_beta1 = 0.0;
  double log_beta0 = 0.0;
  double no_claim_prior = 0.5;  ///< beta prior mean (fact with no claims)

  /// The source's row, or `unseen`.
  const SourceLogs& Find(std::string_view source) const {
    const auto it = sources.find(source);
    return it != sources.end() ? it->second : unseen;
  }
};

/// Builds the lookup from a batch read-off. `quality` is indexed by
/// `sources` ids (the fitted interner); ids beyond the read-off's range
/// are left out (they arrived after the fit and score as unseen).
QualityLookup BuildQualityLookup(const SourceQuality& quality,
                                 const StringInterner& sources,
                                 const LtmOptions& options);

/// One scored fact of an entity.
struct ScoredFact {
  std::string_view attribute;  ///< views the scored rows
  double posterior = 0.0;
};

/// Eq. 3 for every fact of ONE entity straight from its rows in global
/// ingest (seq) order; duplicate (attribute, source) rows count once.
/// Writes the entity's facts to `out` in first-appearance order.
///
/// Sources get local ids by first appearance and each fact sums its log
/// terms in the packed-adjacency order of a one-entity slice: positives
/// by ascending local id, then the Def. 3 negatives (the entity's other
/// sources) by ascending local id, with lp1 and lp0 accumulated apart.
/// So every posterior is bit-identical to LtmIncremental over the
/// Dataset those rows intern into, with no log taken per query.
void ScoreEntityRows(std::span<const store::RowView> rows,
                     const QualityLookup& lookup,
                     std::vector<ScoredFact>* out);

}  // namespace serve
}  // namespace ltm

#endif  // LTM_SERVE_FACT_SCORING_H_
