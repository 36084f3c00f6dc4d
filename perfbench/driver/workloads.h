// The two benchmark workloads over the paper-scale movie world.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "harness.h"

namespace perfbench {

struct RunConfig {
  std::string workload;  ///< serve_cold | serve_ingest
  uint64_t seed = 1;
  int seconds = 10;      ///< Nominal length of the timed phases.
  bool trace = false;    ///< Per-layer run: spans on, probes, summary.
  bool tiny = false;     ///< Smoke size: same phases on a small world.
  std::string workdir;   ///< Store directories and trace files go here.
};

/// True when `name` is one of the workloads above.
bool IsWorkload(const std::string& name);

/// Runs one workload end to end. Untraced runs add the end-to-end
/// metrics to `report`, traced runs the per-layer metrics; both record
/// the work counts and fail the report on any wrong answer, miscount,
/// or oversubscribed thread budget.
void RunWorkload(const RunConfig& config, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
