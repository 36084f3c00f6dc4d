#include "obs/metrics.h"

#include <string_view>

namespace ltm {
namespace obs {

size_t ThreadIndex() {
  static std::atomic<size_t> next_index{0};
  thread_local const size_t index =
      next_index.fetch_add(1, std::memory_order_relaxed);
  return index;
}

MetricsRegistry& MetricsRegistry::Global() {
  // Leaked on purpose: metrics outlive every static-destruction-order
  // hazard, and background threads may still increment during exit.
  static MetricsRegistry* const global = new MetricsRegistry();
  return *global;
}

namespace {

/// Finds-or-creates `name` in `primary`; if the name is already taken by
/// another metric kind, re-registers under a visibly broken suffix so
/// the exposition shows the collision instead of the process crashing
/// or two subsystems silently sharing storage of different shapes.
template <typename T, typename A, typename B>
T* FindOrCreate(const std::string& name, const char* kind,
                std::map<std::string, std::unique_ptr<T>>* primary,
                const A& other1, const B& other2) {
  auto it = primary->find(name);
  if (it != primary->end()) return it->second.get();
  if (other1.count(name) != 0 || other2.count(name) != 0) {
    return FindOrCreate(name + "!" + kind, kind, primary, other1, other2);
  }
  auto inserted = primary->emplace(name, std::make_unique<T>());
  return inserted.first->second.get();
}

/// Splits a metric name into its bare name and the inner text of an
/// embedded `{...}` label set (empty when there is none).
void SplitLabels(const std::string& name, std::string* base,
                 std::string* labels) {
  const size_t brace = name.find('{');
  if (brace == std::string::npos || name.back() != '}') {
    *base = name;
    labels->clear();
    return;
  }
  *base = name.substr(0, brace);
  *labels = name.substr(brace + 1, name.size() - brace - 2);
}

/// Sum of the bare series `family` and every `family{...}` series in
/// `metrics`. The labelled series sort contiguously after `family{`, so
/// one ordered range covers them without touching `family_other`.
template <typename T>
auto SumFamily(const std::map<std::string, std::unique_ptr<T>>& metrics,
               const std::string& family) {
  decltype(metrics.begin()->second->Value()) total = 0;
  if (const auto it = metrics.find(family); it != metrics.end()) {
    total += it->second->Value();
  }
  const std::string labelled = family + "{";
  for (auto it = metrics.lower_bound(labelled); it != metrics.end(); ++it) {
    if (!std::string_view(it->first).starts_with(labelled)) break;
    total += it->second->Value();
  }
  return total;
}

void RenderHistogram(const std::string& name, const Histogram& histogram,
                     std::string* out) {
  std::string base;
  std::string labels;
  SplitLabels(name, &base, &labels);
  const std::string label_prefix =
      labels.empty() ? std::string() : labels + ",";
  const std::string plain_labels =
      labels.empty() ? std::string() : "{" + labels + "}";

  uint64_t cumulative = 0;
  for (int b = 0; b < Histogram::kBuckets; ++b) {
    const uint64_t count = histogram.BucketCount(b);
    if (count == 0) continue;
    cumulative += count;
    out->append(base);
    out->append("_bucket{");
    out->append(label_prefix);
    out->append("le=\"");
    out->append(std::to_string(Histogram::BucketUpperBound(b)));
    out->append("\"} ");
    out->append(std::to_string(cumulative));
    out->push_back('\n');
  }
  out->append(base);
  out->append("_bucket{");
  out->append(label_prefix);
  out->append("le=\"+Inf\"} ");
  out->append(std::to_string(cumulative));
  out->push_back('\n');
  out->append(base);
  out->append("_sum");
  out->append(plain_labels);
  out->push_back(' ');
  out->append(std::to_string(histogram.Sum()));
  out->push_back('\n');
  out->append(base);
  out->append("_count");
  out->append(plain_labels);
  out->push_back(' ');
  out->append(std::to_string(cumulative));
  out->push_back('\n');
}

}  // namespace

Counter* MetricsRegistry::counter(const std::string& name) {
  MutexLock lock(mu_);
  return FindOrCreate(name, "counter", &counters_, gauges_, histograms_);
}

Gauge* MetricsRegistry::gauge(const std::string& name) {
  MutexLock lock(mu_);
  return FindOrCreate(name, "gauge", &gauges_, counters_, histograms_);
}

Histogram* MetricsRegistry::histogram(const std::string& name) {
  MutexLock lock(mu_);
  return FindOrCreate(name, "histogram", &histograms_, counters_, gauges_);
}

uint64_t MetricsRegistry::CounterValue(const std::string& name) const {
  MutexLock lock(mu_);
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second->Value();
}

int64_t MetricsRegistry::GaugeValue(const std::string& name) const {
  MutexLock lock(mu_);
  const auto it = gauges_.find(name);
  return it == gauges_.end() ? 0 : it->second->Value();
}

uint64_t MetricsRegistry::CounterSum(const std::string& family) const {
  MutexLock lock(mu_);
  return SumFamily(counters_, family);
}

int64_t MetricsRegistry::GaugeSum(const std::string& family) const {
  MutexLock lock(mu_);
  return SumFamily(gauges_, family);
}

size_t MetricsRegistry::NumMetrics() const {
  MutexLock lock(mu_);
  return counters_.size() + gauges_.size() + histograms_.size();
}

std::string MetricsRegistry::RenderText() const {
  // One rendered block per metric name, merged across the three kinds
  // into name order. std::map keys are already sorted, so the output is
  // deterministic — the golden-format test depends on that.
  std::map<std::string, std::string> blocks;
  {
    MutexLock lock(mu_);
    for (const auto& [name, counter] : counters_) {
      blocks[name] = name + " " + std::to_string(counter->Value()) + "\n";
    }
    for (const auto& [name, gauge] : gauges_) {
      blocks[name] = name + " " + std::to_string(gauge->Value()) + "\n";
    }
    for (const auto& [name, histogram] : histograms_) {
      std::string block;
      RenderHistogram(name, *histogram, &block);
      blocks[name] = std::move(block);
    }
  }
  std::string out;
  for (const auto& [name, block] : blocks) {
    out.append(block);
  }
  return out;
}

}  // namespace obs
}  // namespace ltm
