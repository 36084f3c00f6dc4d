// Per-span-name totals and self times from one recorded trace.
#ifndef PERFBENCH_TRACE_SUMMARY_H_
#define PERFBENCH_TRACE_SUMMARY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace perfbench {

struct SpanTotals {
  std::string name;
  uint64_t count = 0;
  uint64_t total_us = 0;
  /// Duration minus the part of it covered by child spans on the same
  /// thread lane (spans are RAII scopes, so lanes nest strictly).
  uint64_t self_us = 0;
};

/// Totals per span name, largest self time first.
std::vector<SpanTotals> SummarizeSpans(
    const std::vector<ltm::obs::TraceEvent>& events);

/// Writes the summary plus the recorder's dropped-span count as JSON.
bool WriteSpanSummary(const std::string& path,
                      const std::vector<SpanTotals>& totals,
                      uint64_t dropped_spans);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_SUMMARY_H_
