#ifndef LTM_TESTS_STORE_CHILD_STORE_UTIL_H_
#define LTM_TESTS_STORE_CHILD_STORE_UTIL_H_

// Helpers for tests that drive one TruthStore (a partition child)
// directly. A child persists the ingest seq each record carries, so these
// hand out seqs the way the PartitionedTruthStore router does: one
// counter, in append order.

#include <memory>
#include <string>

#include "data/dataset.h"
#include "store/truth_store.h"

namespace ltm {
namespace store {

/// Appends `record` under the next ingest seq the store has not used.
inline Status AppendNext(TruthStore* st, WalRecord record) {
  record.seq = st->NextRowSeq();
  return st->Append(record);
}

/// Appends rows [from, to) of `raw` in order with fresh seqs, then syncs.
inline Status AppendRows(TruthStore* st, const RawDatabase& raw, size_t from,
                         size_t to) {
  for (size_t i = from; i < to && i < raw.NumRows(); ++i) {
    const RawRow& row = raw.rows()[i];
    WalRecord record;
    record.entity = std::string(raw.entities().Get(row.entity));
    record.attribute = std::string(raw.attributes().Get(row.attribute));
    record.source = std::string(raw.sources().Get(row.source));
    LTM_RETURN_IF_ERROR(AppendNext(st, std::move(record)));
  }
  return st->Sync();
}

/// Appends every row of `raw` in order with fresh seqs, then syncs.
inline Status AppendAll(TruthStore* st, const RawDatabase& raw) {
  return AppendRows(st, raw, 0, raw.NumRows());
}

/// The rows behind `pin` (optionally bounded) interned into a Dataset.
inline Result<Dataset> PinnedDataset(const TruthStore& st, const EpochPin& pin,
                                     const std::string* min_entity = nullptr,
                                     const std::string* max_entity = nullptr,
                                     RangeScanStats* stats = nullptr) {
  LTM_ASSIGN_OR_RETURN(
      const RowViews rows,
      st.CollectPinnedRows(pin, min_entity, max_entity, stats));
  return DatasetFromRows("child:" + st.dir(), rows);
}

/// The child's rows in [*min_entity, *max_entity] (null = unbounded) at
/// its current epoch, interned into a Dataset.
inline Result<Dataset> MaterializeChild(const TruthStore& st,
                                        const std::string* min_entity = nullptr,
                                        const std::string* max_entity = nullptr,
                                        RangeScanStats* stats = nullptr,
                                        uint64_t* epoch_out = nullptr) {
  const std::unique_ptr<EpochPin> pin = st.PinEpoch(min_entity, max_entity);
  if (epoch_out != nullptr) *epoch_out = pin->epoch();
  return PinnedDataset(st, *pin, min_entity, max_entity, stats);
}

}  // namespace store
}  // namespace ltm

#endif  // LTM_TESTS_STORE_CHILD_STORE_UTIL_H_
