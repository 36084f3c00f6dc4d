#ifndef LTM_DATA_RAW_DATABASE_H_
#define LTM_DATA_RAW_DATABASE_H_

#include <cstddef>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "data/interner.h"
#include "data/types.h"

namespace ltm {

/// One input triple (paper Definition 1): source `source` asserted that
/// entity `entity` has attribute value `attribute`.
struct RawRow {
  EntityId entity;
  AttributeId attribute;
  SourceId source;

  bool operator==(const RawRow&) const = default;
};

struct RawRowHash {
  size_t operator()(const RawRow& r) const {
    uint64_t h = r.entity;
    h = h * 0x9e3779b97f4a7c15ULL + r.attribute;
    h = h * 0x9e3779b97f4a7c15ULL + r.source;
    h ^= h >> 29;
    return static_cast<size_t>(h);
  }
};

/// The raw input database DB = {row_1, ..., row_N} of unique
/// (entity, attribute, source) triples, with dictionary-encoded columns.
///
/// This is the single entry point for feeding data into the library: real
/// data arrives through `tsv_io`, synthetic data through `ltm::synth`
/// generators; both produce a RawDatabase, from which FactTable and
/// ClaimGraph are derived deterministically.
class RawDatabase {
 public:
  RawDatabase() = default;

  /// Interns the three strings and appends the triple if unseen.
  /// Returns true when a new row was inserted, false for a duplicate
  /// (the raw database is a set; duplicates are ignored, per Definition 1).
  bool Add(std::string_view entity, std::string_view attribute,
           std::string_view source);

  /// Id-level variant; the ids must have been produced by this database's
  /// interners.
  bool AddRow(EntityId e, AttributeId a, SourceId s);

  size_t NumRows() const { return rows_.size(); }
  const std::vector<RawRow>& rows() const { return rows_; }

  const StringInterner& entities() const { return entities_; }
  const StringInterner& attributes() const { return attributes_; }
  const StringInterner& sources() const { return sources_; }

  StringInterner& mutable_entities() { return entities_; }
  StringInterner& mutable_attributes() { return attributes_; }
  StringInterner& mutable_sources() { return sources_; }

  size_t NumEntities() const { return entities_.size(); }
  size_t NumAttributes() const { return attributes_.size(); }
  size_t NumSources() const { return sources_.size(); }

  /// True when the exact triple is present.
  bool Contains(EntityId e, AttributeId a, SourceId s) const;

  /// Re-adds every row of `src` (by string, in row order, deduped),
  /// optionally restricted to entities with key in
  /// [*min_entity, *max_entity]. String-level adds rebuild a
  /// first-appearance interning order identical to batch ingestion of the
  /// concatenated row stream — the property the streaming pipeline and
  /// the TruthStore's bit-identical materialization both rest on.
  void MergeRowsFrom(const RawDatabase& src,
                     const std::string* min_entity = nullptr,
                     const std::string* max_entity = nullptr);

 private:
  StringInterner entities_;
  StringInterner attributes_;
  StringInterner sources_;
  std::vector<RawRow> rows_;
  std::unordered_set<RawRow, RawRowHash> seen_;
};

}  // namespace ltm

#endif  // LTM_DATA_RAW_DATABASE_H_
