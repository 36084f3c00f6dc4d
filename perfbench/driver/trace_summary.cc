#include "trace_summary.h"

#include <algorithm>
#include <fstream>
#include <map>

namespace perfbench {

std::vector<SpanTotals> SummarizeSpans(
    const std::vector<ltm::obs::TraceEvent>& events) {
  std::map<uint32_t, std::vector<const ltm::obs::TraceEvent*>> lanes;
  for (const ltm::obs::TraceEvent& e : events) lanes[e.tid].push_back(&e);

  std::map<std::string, SpanTotals> by_name;
  for (auto& [tid, lane] : lanes) {
    // Parents start no later than their children and last longer.
    std::sort(lane.begin(), lane.end(), [](const auto* a, const auto* b) {
      return a->ts_us != b->ts_us ? a->ts_us < b->ts_us : a->dur_us > b->dur_us;
    });
    std::vector<uint64_t> child_us(lane.size(), 0);
    std::vector<size_t> open;  // indices of enclosing spans
    for (size_t i = 0; i < lane.size(); ++i) {
      const ltm::obs::TraceEvent& e = *lane[i];
      while (!open.empty()) {
        const ltm::obs::TraceEvent& top = *lane[open.back()];
        if (e.ts_us >= top.ts_us + top.dur_us) {
          open.pop_back();
        } else {
          break;
        }
      }
      if (!open.empty()) child_us[open.back()] += e.dur_us;
      open.push_back(i);
    }
    for (size_t i = 0; i < lane.size(); ++i) {
      SpanTotals& t = by_name[lane[i]->name];
      t.name = lane[i]->name;
      ++t.count;
      t.total_us += lane[i]->dur_us;
      t.self_us += lane[i]->dur_us - std::min(child_us[i], lane[i]->dur_us);
    }
  }
  std::vector<SpanTotals> out;
  for (auto& [name, t] : by_name) out.push_back(t);
  std::sort(out.begin(), out.end(), [](const SpanTotals& a, const SpanTotals& b) {
    return a.self_us > b.self_us;
  });
  return out;
}

bool WriteSpanSummary(const std::string& path,
                      const std::vector<SpanTotals>& totals,
                      uint64_t dropped_spans) {
  std::ofstream out(path, std::ios::trunc);
  out << "{\n  \"dropped_spans\": " << dropped_spans << ",\n  \"spans\": [";
  for (size_t i = 0; i < totals.size(); ++i) {
    const SpanTotals& t = totals[i];
    out << (i ? "," : "") << "\n    {\"name\": \"" << t.name
        << "\", \"count\": " << t.count << ", \"total_us\": " << t.total_us
        << ", \"self_us\": " << t.self_us << "}";
  }
  out << "\n  ]\n}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
