#ifndef LTM_DATA_DATASET_H_
#define LTM_DATA_DATASET_H_

#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "data/claim_graph.h"
#include "data/fact_table.h"
#include "data/raw_database.h"
#include "data/truth_labels.h"

namespace ltm {

/// A fully materialized truth-finding input: the raw triples plus the
/// derived fact table and packed claim graph, and (for evaluation or
/// synthetic data) ground-truth labels. Methods consume `graph`;
/// evaluation consumes `labels`.
struct Dataset {
  std::string name;
  RawDatabase raw;
  FactTable facts;
  ClaimGraph graph;
  TruthLabels labels;

  /// Derives facts and the claim graph from `raw` and sizes an empty
  /// label store. `raw` is moved in.
  static Dataset FromRaw(std::string name, RawDatabase raw);

  /// Restricts to the first `max_entities` entities (by EntityId) and
  /// rebuilds all derived tables; labels are carried over for surviving
  /// facts. Used by the scalability benchmarks (Table 9 / Fig. 6) to carve
  /// 3k/6k/9k/12k subsets out of the full dataset.
  Dataset Subset(size_t max_entities) const;

  /// Splits into (train, test) by entity: facts of entities in
  /// `test_entities` go to the test dataset, everything else to train.
  /// Both children share this dataset's *source* vocabulary (identical
  /// SourceIds), so source quality learned on train applies directly to
  /// test — the LTMinc protocol of §6.2 (fit on unlabeled data, predict
  /// the 100 labeled entities with Eq. 3). Labels are carried over.
  std::pair<Dataset, Dataset> SplitByEntities(
      const std::vector<EntityId>& test_entities) const;

  /// Serializes the dataset — interners, raw rows, facts, claim graph,
  /// labels — as a versioned little-endian binary snapshot with header
  /// magic and checksum (see data/snapshot.h for the format). Repeat runs
  /// LoadSnapshot() and skip TSV parsing and claim materialization.
  Status SaveSnapshot(const std::string& path) const;

  /// Loads a snapshot written by SaveSnapshot. Rejects corrupt input —
  /// bad magic, unsupported version, truncation, checksum mismatch,
  /// inconsistent tables — with a descriptive non-OK Status.
  static Result<Dataset> LoadSnapshot(const std::string& path);

  /// Facts per entity, entity coverage and claim counts; for logging and
  /// README tables.
  std::string SummaryString() const;
};

}  // namespace ltm

#endif  // LTM_DATA_DATASET_H_
