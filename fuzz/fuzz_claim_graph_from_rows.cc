// Differential fuzz target for the refit's claim-graph build. A refit
// reads the store in key order — each segment's run merged with the
// sorted memtable rows (store::MergeSortedRuns) — and builds the graph by
// walking that order (store::ClaimGraphFromRows). The slow-path oracle
// interns the same rows in seq order into a Dataset
// (store::DatasetFromRows). Contract under test: for every row list,
//   - the merged runs equal one full sort by RowViewOrder;
//   - the key-order build equals the oracle's graph bit for bit (CSR
//     arrays, source count, source names in id order);
//   - a seq-order list that is not in key order is refused with
//     InvalidArgument, never built into a wrong graph.
// Any difference aborts.
//
// Input: 4 bytes per row, at most kMaxRows rows:
//   byte 0  entity "e<b % 16>"
//   byte 1  attribute "a<b % 8>" — shared across entities, as one director
//           directs many movies
//   byte 2  source "s<b>" — up to 256 names, so the flat source table
//           must grow past its first 64 slots
//   byte 3  bit 0: repeat an earlier row's triple instead (the row
//           byte 0 picks), as an uncompacted store repeats one across
//           flushes; bit 1: this row starts a new sorted run; bits 2-7:
//           gap to the previous seq, minus one (seqs stay unique and
//           ascend in input order).
//
// Built with `-fsanitize=fuzzer,address,undefined` under Clang
// (-DBUILD_FUZZERS=ON); under other compilers the same TU links against
// fuzz/driver_main.cc and replays the checked-in corpus as a regression
// test.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/logging.h"
#include "store/truth_store.h"

namespace {

constexpr size_t kMaxRows = 4096;

/// "<prefix>0" .. "<prefix><n - 1>".
std::vector<std::string> Names(char prefix, size_t n) {
  std::vector<std::string> names;
  for (size_t i = 0; i < n; ++i) names.push_back(prefix + std::to_string(i));
  return names;
}

void Check(bool ok, const char* what) {
  if (ok) return;
  LTM_LOG(Error) << "fuzz_claim_graph_from_rows: " << what;
  std::abort();
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  using ltm::store::RowView;
  using ltm::store::RowViews;
  // The row views point into these for the whole process.
  static const std::vector<std::string> entities = Names('e', 16);
  static const std::vector<std::string> attributes = Names('a', 8);
  static const std::vector<std::string> sources = Names('s', 256);

  RowViews by_seq;
  std::vector<size_t> run_starts = {0};
  uint64_t seq = 0;
  for (size_t i = 0; i + 4 <= size && by_seq.rows.size() < kMaxRows; i += 4) {
    const uint8_t* b = data + i;
    RowView row{entities[b[0] % 16], attributes[b[1] % 8], sources[b[2]], 0,
                1};
    if ((b[3] & 1) != 0 && !by_seq.rows.empty()) {
      row = by_seq.rows[b[0] % by_seq.rows.size()];
    }
    seq += 1 + (b[3] >> 2);
    row.seq = seq;
    if ((b[3] & 2) != 0) run_starts.push_back(by_seq.rows.size());
    by_seq.rows.push_back(row);
  }

  // The reader's path: sort each run by key, then merge the runs.
  RowViews by_key = by_seq;
  for (size_t k = 0; k < run_starts.size(); ++k) {
    const size_t end =
        k + 1 < run_starts.size() ? run_starts[k + 1] : by_key.rows.size();
    std::sort(by_key.rows.begin() + run_starts[k], by_key.rows.begin() + end,
              ltm::store::RowViewOrder);
  }
  ltm::store::MergeSortedRuns(ltm::store::RowOrder::kKey, run_starts,
                              &by_key.rows);
  std::vector<RowView> sorted = by_seq.rows;
  std::sort(sorted.begin(), sorted.end(), ltm::store::RowViewOrder);
  for (size_t i = 0; i < sorted.size(); ++i) {
    Check(sorted[i].seq == by_key.rows[i].seq,
          "merged runs differ from one full sort by key");
  }

  const ltm::Dataset oracle = ltm::store::DatasetFromRows("fuzz", by_seq);
  const ltm::Result<ltm::store::RowGraph> built =
      ltm::store::ClaimGraphFromRows(by_key);
  Check(built.ok(), "key-order build failed");
  Check(built->graph.fact_offsets() == oracle.graph.fact_offsets(),
        "fact offsets differ from DatasetFromRows");
  Check(built->graph.fact_claims() == oracle.graph.fact_claims(),
        "fact claims differ from DatasetFromRows");
  Check(built->graph.NumSources() == oracle.graph.NumSources(),
        "source count differs from DatasetFromRows");
  Check(built->sources.strings() == oracle.raw.sources().strings(),
        "source names differ from DatasetFromRows");

  if (!std::is_sorted(by_seq.rows.begin(), by_seq.rows.end(),
                      ltm::store::RowViewOrder)) {
    const ltm::Result<ltm::store::RowGraph> refused =
        ltm::store::ClaimGraphFromRows(by_seq);
    Check(!refused.ok() &&
              refused.status().code() == ltm::StatusCode::kInvalidArgument,
          "rows out of key order were not refused");
  }
  return 0;
}
