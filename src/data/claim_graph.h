#ifndef LTM_DATA_CLAIM_GRAPH_H_
#define LTM_DATA_CLAIM_GRAPH_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/status.h"
#include "data/fact_table.h"
#include "data/raw_database.h"
#include "data/types.h"

namespace ltm {

/// One claim (paper Definition 3): source `source` observed fact `fact` as
/// present (`observation` true, a positive claim) or implicitly absent
/// (`observation` false, a negative claim). The input form of
/// ClaimGraph::FromClaims; the graph itself stores claims packed.
struct Claim {
  FactId fact;
  SourceId source;
  bool observation;

  bool operator==(const Claim&) const = default;
};

/// The claim set C of paper Definition 3 as a packed CSR graph — the one
/// inference substrate every truth-finding method iterates:
///
///   - positive claim (f, s, true): s asserted fact f in the raw data;
///   - negative claim (f, s, false): s did not assert f but asserted some
///     other fact of f's entity;
///   - no claim: s is silent about f's entity.
///
/// Each adjacency entry is a single uint32 packing the neighbor id with
/// the observation bit —
///
///   fact side:   (source << 1) | observation; within a fact, positives
///                precede negatives and each group ascends by source
///   source side: (fact << 1) | observation, grouped by source
///
/// so one Gibbs conditional (or one fixed-point accumulation pass) streams
/// a contiguous run of 4-byte words, and the per-source pass walks its own
/// contiguous run. The canonical fact-side order is what every builder
/// emits and what the bit-pinned posteriors rest on. Derived stats the
/// methods need (per-fact/per-source degrees and positive-claim counts;
/// the fact offsets double as the claim-count prefix sum) are computed
/// once at build time.
///
/// Ids must stay below 2^31 so the shifted pack cannot overflow;
/// ValidateIdBounds makes that limit an explicit checked failure.
///
/// Immutable after construction; spans remain valid for the graph's
/// lifetime.
class ClaimGraph {
 public:
  ClaimGraph() = default;

  /// OK iff every fact and source id fits the 31-bit packed id space
  /// (ids are dense, so the counts bound the ids). Build() CHECK-fails on
  /// a violation; snapshot loading surfaces it as a Status.
  static Status ValidateIdBounds(size_t num_facts, size_t num_sources);

  /// Materializes the claims of every fact in `facts` from `raw` by the
  /// Definition 3 rule, written straight into the canonical CSR order.
  /// Rows whose (entity, attribute) pair `facts` lacks are ignored.
  /// Aborts with a clear message when ValidateIdBounds fails.
  static ClaimGraph Build(const RawDatabase& raw, const FactTable& facts);

  /// The Definition 3 rule over plain ids, behind Build: row i says
  /// source `row_sources[i]` asserted fact `row_facts[i]`, and fact f
  /// belongs to entity `fact_entities[f]` (< `num_entities`).
  /// Repeated (fact, source) rows collapse to one claim. Per-fact and
  /// per-entity source sets are grouped by counting sort, then sorted and
  /// deduplicated; the result passes FromCsr's validation. Returns
  /// ValidateIdBounds' Status on id overflow and InvalidArgument on an
  /// out-of-range id.
  static Result<ClaimGraph> FromRows(std::span<const FactId> row_facts,
                                     std::span<const SourceId> row_sources,
                                     std::span<const EntityId> fact_entities,
                                     size_t num_entities, size_t num_sources);

  /// Appends one fact's canonical adjacency to `fact_claims`: a positive
  /// claim per source of `positives`, then a negative claim per source of
  /// `entity_sources` (the sources naming the fact's entity) not in
  /// `positives`. Both must be strictly ascending, and `positives` a
  /// subset of `entity_sources`. FromRows and the store's refit build
  /// (store::ClaimGraphFromRows) emit every fact through it.
  static void AppendFactClaims(std::span<const SourceId> positives,
                               std::span<const SourceId> entity_sources,
                               std::vector<uint32_t>* fact_claims);

  /// Builds a graph directly from an explicit claim list (synthetic
  /// generators that draw claims without a raw database, filtered
  /// re-builds). Claims are sorted into the canonical order; duplicate
  /// (fact, source) pairs keep their first occurrence. Fact ids must be
  /// < num_facts and source ids < num_sources.
  static ClaimGraph FromClaims(std::vector<Claim> claims, size_t num_facts,
                               size_t num_sources);

  /// Reassembles a graph from a serialized fact-side CSR (snapshot load).
  /// Validates the invariants — offsets monotone from 0 to
  /// fact_claims.size(), every packed source id below `num_sources`, id
  /// bounds — and rebuilds the source side and derived stats. Returns
  /// InvalidArgument on any violation instead of trusting the input.
  static Result<ClaimGraph> FromCsr(std::vector<uint32_t> fact_offsets,
                                    std::vector<uint32_t> fact_claims,
                                    size_t num_sources);

  size_t NumFacts() const {
    return fact_offsets_.empty() ? 0 : fact_offsets_.size() - 1;
  }
  size_t NumSources() const { return num_sources_; }
  size_t NumClaims() const { return fact_claims_.size(); }
  size_t NumPositiveClaims() const { return num_positive_; }
  size_t NumNegativeClaims() const {
    return fact_claims_.size() - num_positive_;
  }

  /// Unpack helpers for adjacency entries.
  static constexpr uint32_t PackedId(uint32_t entry) { return entry >> 1; }
  static constexpr int PackedObs(uint32_t entry) {
    return static_cast<int>(entry & 1u);
  }

  /// Packed (source << 1 | obs) entries of fact `f`'s claims (C_f).
  std::span<const uint32_t> FactClaims(FactId f) const {
    return std::span<const uint32_t>(fact_claims_.data() + fact_offsets_[f],
                                     fact_offsets_[f + 1] - fact_offsets_[f]);
  }

  /// Packed (fact << 1 | obs) entries of source `s`'s claims, in
  /// fact-major order.
  std::span<const uint32_t> SourceClaims(SourceId s) const {
    return std::span<const uint32_t>(
        source_claims_.data() + source_offsets_[s],
        source_offsets_[s + 1] - source_offsets_[s]);
  }

  uint32_t FactDegree(FactId f) const {
    return fact_offsets_[f + 1] - fact_offsets_[f];
  }
  /// Number of positive claims on fact `f` (|S_f| restricted to
  /// asserters). Positives precede negatives within FactClaims(f).
  uint32_t FactPositiveCount(FactId f) const { return fact_pos_counts_[f]; }

  uint32_t SourceDegree(SourceId s) const {
    return source_offsets_[s + 1] - source_offsets_[s];
  }
  /// Number of positive claims made by source `s`.
  uint32_t SourcePositiveCount(SourceId s) const {
    return source_pos_counts_[s];
  }

  /// A copy of this graph with all negative claims removed (same facts
  /// and sources, per-fact order preserved). Used by the LTMpos ablation
  /// and positive-only baselines.
  ClaimGraph PositiveOnly() const;

  /// Raw fact-side CSR arrays, the snapshot serialization payload.
  const std::vector<uint32_t>& fact_offsets() const { return fact_offsets_; }
  const std::vector<uint32_t>& fact_claims() const { return fact_claims_; }

 private:
  /// Rebuilds source_offsets_/source_claims_ and all derived stats from
  /// the fact side. The single code path shared by every builder.
  void BuildSourceSideAndStats();

  std::vector<uint32_t> fact_offsets_;      // size NumFacts()+1
  std::vector<uint32_t> fact_claims_;       // packed source|obs, fact-major
  std::vector<uint32_t> fact_pos_counts_;   // positives per fact
  std::vector<uint32_t> source_offsets_;    // size NumSources()+1
  std::vector<uint32_t> source_claims_;     // packed fact|obs, source-major
  std::vector<uint32_t> source_pos_counts_; // positives per source
  size_t num_sources_ = 0;
  size_t num_positive_ = 0;
};

}  // namespace ltm

#endif  // LTM_DATA_CLAIM_GRAPH_H_
