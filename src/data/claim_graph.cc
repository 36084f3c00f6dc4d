#include "data/claim_graph.h"

#include <algorithm>
#include <cstdlib>
#include <numeric>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.h"

namespace ltm {

namespace {

constexpr size_t kMaxIds = size_t{1} << 31;  // packed ids use 31 bits

}  // namespace

Status ClaimGraph::ValidateIdBounds(size_t num_facts, size_t num_sources) {
  if (num_facts > kMaxIds) {
    return Status::InvalidArgument(
        "ClaimGraph packs ids into 31 bits: " + std::to_string(num_facts) +
        " facts exceeds the 2^31 limit");
  }
  if (num_sources > kMaxIds) {
    return Status::InvalidArgument(
        "ClaimGraph packs ids into 31 bits: " + std::to_string(num_sources) +
        " sources exceeds the 2^31 limit");
  }
  return Status::OK();
}

namespace {

void AbortOnIdOverflow(const char* builder, size_t num_facts,
                       size_t num_sources) {
  const Status bounds = ClaimGraph::ValidateIdBounds(num_facts, num_sources);
  if (!bounds.ok()) {
    LTM_LOG(Error) << "ClaimGraph::" << builder << ": " << bounds.ToString();
    std::abort();
  }
}

}  // namespace

void ClaimGraph::BuildSourceSideAndStats() {
  const size_t num_facts = NumFacts();
  const size_t num_claims = fact_claims_.size();

  fact_pos_counts_.assign(num_facts, 0);
  source_offsets_.assign(num_sources_ + 1, 0);
  source_pos_counts_.assign(num_sources_, 0);
  num_positive_ = 0;

  for (FactId f = 0; f < num_facts; ++f) {
    for (uint32_t entry : FactClaims(f)) {
      const uint32_t s = PackedId(entry);
      ++source_offsets_[s + 1];
      if (PackedObs(entry)) {
        ++fact_pos_counts_[f];
        ++source_pos_counts_[s];
        ++num_positive_;
      }
    }
  }
  for (size_t s = 1; s < source_offsets_.size(); ++s) {
    source_offsets_[s] += source_offsets_[s - 1];
  }
  source_claims_.resize(num_claims);
  std::vector<uint32_t> cursor(source_offsets_.begin(),
                               source_offsets_.end() - 1);
  for (FactId f = 0; f < num_facts; ++f) {
    for (uint32_t entry : FactClaims(f)) {
      source_claims_[cursor[PackedId(entry)]++] =
          (f << 1) | static_cast<uint32_t>(PackedObs(entry));
    }
  }
}

namespace {

/// Distinct sources per key, ascending: key k's set is
/// sources[begin[k], end[k]).
struct SourceSets {
  std::vector<uint32_t> begin;  // size num_keys + 1 (group starts)
  std::vector<uint32_t> end;    // size num_keys (ends after dedup)
  std::vector<SourceId> sources;
};

/// Groups row i's source under key_of(i) (< num_keys) by counting sort,
/// then sorts and deduplicates each group in place.
template <typename KeyOf>
SourceSets GroupSources(std::span<const SourceId> row_sources,
                        size_t num_keys, KeyOf key_of) {
  SourceSets sets;
  sets.begin.assign(num_keys + 1, 0);
  for (size_t i = 0; i < row_sources.size(); ++i) ++sets.begin[key_of(i) + 1];
  std::partial_sum(sets.begin.begin(), sets.begin.end(), sets.begin.begin());
  sets.sources.resize(row_sources.size());
  std::vector<uint32_t> cursor(sets.begin.begin(), sets.begin.end() - 1);
  for (size_t i = 0; i < row_sources.size(); ++i) {
    sets.sources[cursor[key_of(i)]++] = row_sources[i];
  }
  sets.end.resize(num_keys);
  for (size_t k = 0; k < num_keys; ++k) {
    const auto first = sets.sources.begin() + sets.begin[k];
    const auto last = sets.sources.begin() + sets.begin[k + 1];
    std::sort(first, last);
    sets.end[k] =
        static_cast<uint32_t>(std::unique(first, last) - sets.sources.begin());
  }
  return sets;
}

}  // namespace

ClaimGraph ClaimGraph::Build(const RawDatabase& raw, const FactTable& facts) {
  const size_t num_facts = facts.NumFacts();
  std::vector<FactId> row_facts;
  std::vector<SourceId> row_sources;
  row_facts.reserve(raw.NumRows());
  row_sources.reserve(raw.NumRows());
  for (const RawRow& row : raw.rows()) {
    const std::optional<FactId> fid = facts.Find(row.entity, row.attribute);
    if (!fid.has_value()) continue;  // Fact table built from different raw.
    row_facts.push_back(*fid);
    row_sources.push_back(row.source);
  }
  std::vector<EntityId> fact_entities(num_facts);
  size_t num_entities = raw.NumEntities();
  for (FactId f = 0; f < num_facts; ++f) {
    fact_entities[f] = facts.fact(f).entity;
    num_entities = std::max<size_t>(num_entities, fact_entities[f] + size_t{1});
  }
  Result<ClaimGraph> g = FromRows(row_facts, row_sources, fact_entities,
                                  num_entities, raw.NumSources());
  if (!g.ok()) {
    LTM_LOG(Error) << "ClaimGraph::Build: " << g.status().ToString();
    std::abort();
  }
  return *std::move(g);
}

Result<ClaimGraph> ClaimGraph::FromRows(std::span<const FactId> row_facts,
                                        std::span<const SourceId> row_sources,
                                        std::span<const EntityId> fact_entities,
                                        size_t num_entities,
                                        size_t num_sources) {
  const size_t num_facts = fact_entities.size();
  LTM_RETURN_IF_ERROR(ValidateIdBounds(num_facts, num_sources));
  if (row_facts.size() != row_sources.size() ||
      row_facts.size() > UINT32_MAX) {
    return Status::InvalidArgument(
        "ClaimGraph rows: " + std::to_string(row_facts.size()) +
        " fact ids against " + std::to_string(row_sources.size()) +
        " source ids (equal counts below 2^32 required)");
  }
  for (size_t i = 0; i < row_facts.size(); ++i) {
    if (row_facts[i] >= num_facts || row_sources[i] >= num_sources) {
      return Status::InvalidArgument(
          "ClaimGraph rows: row " + std::to_string(i) + " names fact " +
          std::to_string(row_facts[i]) + " / source " +
          std::to_string(row_sources[i]) + " beyond " +
          std::to_string(num_facts) + " / " + std::to_string(num_sources));
    }
  }
  for (FactId f = 0; f < num_facts; ++f) {
    if (fact_entities[f] >= num_entities) {
      return Status::InvalidArgument(
          "ClaimGraph rows: fact " + std::to_string(f) + " names entity " +
          std::to_string(fact_entities[f]) + " >= " +
          std::to_string(num_entities));
    }
  }
  // Sources asserting each fact (its positives), and sources asserting
  // anything about each entity.
  const SourceSets positives = GroupSources(
      row_sources, num_facts, [&](size_t i) { return row_facts[i]; });
  const SourceSets entity_sources =
      GroupSources(row_sources, num_entities,
                   [&](size_t i) { return fact_entities[row_facts[i]]; });

  // A fact's claims are exactly its entity's sources, split by assertion.
  size_t num_claims = 0;
  for (FactId f = 0; f < num_facts; ++f) {
    const EntityId e = fact_entities[f];
    num_claims += entity_sources.end[e] - entity_sources.begin[e];
  }
  std::vector<uint32_t> fact_offsets(num_facts + 1, 0);
  std::vector<uint32_t> fact_claims;
  fact_claims.reserve(num_claims);
  const auto set_of = [](const SourceSets& sets, size_t k) {
    return std::span<const SourceId>(sets.sources.data() + sets.begin[k],
                                     sets.end[k] - sets.begin[k]);
  };
  for (FactId f = 0; f < num_facts; ++f) {
    AppendFactClaims(set_of(positives, f),
                     set_of(entity_sources, fact_entities[f]), &fact_claims);
    fact_offsets[f + 1] = static_cast<uint32_t>(fact_claims.size());
  }
  return FromCsr(std::move(fact_offsets), std::move(fact_claims), num_sources);
}

void ClaimGraph::AppendFactClaims(std::span<const SourceId> positives,
                                  std::span<const SourceId> entity_sources,
                                  std::vector<uint32_t>* fact_claims) {
  for (const SourceId s : positives) fact_claims->push_back((s << 1) | 1u);
  // Negatives: the entity's sources minus the fact's (both sorted).
  auto pos = positives.begin();
  for (const SourceId s : entity_sources) {
    while (pos != positives.end() && *pos < s) ++pos;
    if (pos != positives.end() && *pos == s) continue;
    fact_claims->push_back(s << 1);
  }
}

ClaimGraph ClaimGraph::FromClaims(std::vector<Claim> claims, size_t num_facts,
                                  size_t num_sources) {
  AbortOnIdOverflow("FromClaims", num_facts, num_sources);
  // Group by (fact, source) so duplicates are adjacent whatever their
  // observation; the stable sort keeps the first occurrence first, and
  // unique keeps exactly that one.
  std::stable_sort(claims.begin(), claims.end(),
                   [](const Claim& a, const Claim& b) {
                     if (a.fact != b.fact) return a.fact < b.fact;
                     return a.source < b.source;
                   });
  claims.erase(std::unique(claims.begin(), claims.end(),
                           [](const Claim& a, const Claim& b) {
                             return a.fact == b.fact && a.source == b.source;
                           }),
               claims.end());
  // Canonical order: fact-major, positives before negatives, then by
  // source (a strict order now that (fact, source) pairs are unique).
  std::sort(claims.begin(), claims.end(), [](const Claim& a, const Claim& b) {
    if (a.fact != b.fact) return a.fact < b.fact;
    if (a.observation != b.observation) return a.observation > b.observation;
    return a.source < b.source;
  });

  ClaimGraph g;
  g.num_sources_ = num_sources;
  g.fact_offsets_.assign(num_facts + 1, 0);
  g.fact_claims_.reserve(claims.size());
  for (const Claim& c : claims) {
    ++g.fact_offsets_[c.fact + 1];
    g.fact_claims_.push_back((c.source << 1) | (c.observation ? 1u : 0u));
  }
  std::partial_sum(g.fact_offsets_.begin(), g.fact_offsets_.end(),
                   g.fact_offsets_.begin());
  g.BuildSourceSideAndStats();
  return g;
}

Result<ClaimGraph> ClaimGraph::FromCsr(std::vector<uint32_t> fact_offsets,
                                       std::vector<uint32_t> fact_claims,
                                       size_t num_sources) {
  // A zero-fact graph serializes as a bare {0} offset array; normalize a
  // fully empty one to that so the accessors stay safe.
  if (fact_offsets.empty()) fact_offsets.push_back(0);
  LTM_RETURN_IF_ERROR(ValidateIdBounds(fact_offsets.size() - 1, num_sources));
  if (fact_offsets.front() != 0 ||
      fact_offsets.back() != fact_claims.size()) {
    return Status::InvalidArgument(
        "ClaimGraph CSR: offsets must run from 0 to the claim count (got [" +
        std::to_string(fact_offsets.front()) + ", " +
        std::to_string(fact_offsets.back()) + "] over " +
        std::to_string(fact_claims.size()) + " claims)");
  }
  for (size_t f = 1; f < fact_offsets.size(); ++f) {
    if (fact_offsets[f] < fact_offsets[f - 1]) {
      return Status::InvalidArgument(
          "ClaimGraph CSR: offsets not monotone at fact " +
          std::to_string(f - 1));
    }
  }
  for (size_t i = 0; i < fact_claims.size(); ++i) {
    if (PackedId(fact_claims[i]) >= num_sources) {
      return Status::InvalidArgument(
          "ClaimGraph CSR: claim " + std::to_string(i) +
          " references source " + std::to_string(PackedId(fact_claims[i])) +
          " >= " + std::to_string(num_sources));
    }
  }
  // Canonical per-fact order — positives before negatives, sources
  // strictly ascending within each group — is what every builder emits
  // and what the bit-identity guarantees rest on; it also rules out
  // duplicate (fact, source) pairs, which would inflate the derived
  // counts. Sort key: the flipped observation bit above the source id,
  // so the canonical order is a strict ascent.
  const auto order_key = [](uint32_t entry) {
    return (((entry & 1u) ^ 1u) << 31) | (entry >> 1);
  };
  for (size_t f = 0; f + 1 < fact_offsets.size(); ++f) {
    for (uint32_t i = fact_offsets[f] + 1; i < fact_offsets[f + 1]; ++i) {
      const uint32_t prev = order_key(fact_claims[i - 1]);
      const uint32_t cur = order_key(fact_claims[i]);
      if (cur <= prev) {
        return Status::InvalidArgument(
            "ClaimGraph CSR: fact " + std::to_string(f) +
            " adjacency is not in canonical order (positives before "
            "negatives, sources ascending, no duplicates) at entry " +
            std::to_string(i));
      }
    }
  }
  ClaimGraph g;
  g.num_sources_ = num_sources;
  g.fact_offsets_ = std::move(fact_offsets);
  g.fact_claims_ = std::move(fact_claims);
  g.BuildSourceSideAndStats();
  return g;
}

ClaimGraph ClaimGraph::PositiveOnly() const {
  ClaimGraph out;
  out.num_sources_ = num_sources_;
  const size_t num_facts = NumFacts();
  out.fact_offsets_.assign(num_facts + 1, 0);
  out.fact_claims_.reserve(num_positive_);
  for (FactId f = 0; f < num_facts; ++f) {
    for (uint32_t entry : FactClaims(f)) {
      if (PackedObs(entry)) out.fact_claims_.push_back(entry);
    }
    out.fact_offsets_[f + 1] = static_cast<uint32_t>(out.fact_claims_.size());
  }
  out.BuildSourceSideAndStats();
  return out;
}

}  // namespace ltm
