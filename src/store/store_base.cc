#include "store/store_base.h"

#include <utility>

namespace ltm {
namespace store {

Dataset DatasetFromRows(std::string name, const RowViews& rows) {
  RawDatabase raw;
  for (const RowView& row : rows.rows) {
    raw.Add(row.entity, row.attribute, row.source);
  }
  return Dataset::FromRaw(std::move(name), std::move(raw));
}

Result<Dataset> TruthStoreBase::MaterializeSnapshot(
    const StorePin& pin, const std::string* min_entity,
    const std::string* max_entity, RangeScanStats* stats) const {
  LTM_ASSIGN_OR_RETURN(const RowViews rows,
                       ReadRowsAt(pin, min_entity, max_entity, stats));
  return DatasetFromRows("truthstore:" + dir(), rows);
}

Result<Dataset> TruthStoreBase::Materialize(uint64_t* epoch_out) const {
  // The pin keeps every segment file the read references on disk, so one
  // pass always succeeds (any load failure is true corruption).
  const std::unique_ptr<StorePin> pin = PinSnapshot();
  LTM_ASSIGN_OR_RETURN(Dataset ds, MaterializeSnapshot(*pin));
  if (epoch_out != nullptr) *epoch_out = pin->epoch();
  return ds;
}

Result<Dataset> TruthStoreBase::MaterializeEntityRange(
    const std::string& min_entity, const std::string& max_entity,
    RangeScanStats* stats, uint64_t* epoch_out) const {
  const std::unique_ptr<StorePin> pin = PinSnapshot(&min_entity, &max_entity);
  LTM_ASSIGN_OR_RETURN(
      Dataset ds, MaterializeSnapshot(*pin, &min_entity, &max_entity, stats));
  if (epoch_out != nullptr) *epoch_out = pin->epoch();
  return ds;
}

}  // namespace store
}  // namespace ltm
