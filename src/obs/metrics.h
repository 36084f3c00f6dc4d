#ifndef LTM_OBS_METRICS_H_
#define LTM_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "common/mutex.h"
#include "obs/histogram.h"

namespace ltm {
namespace obs {

/// Sequential id of the calling thread (0, 1, 2, ... in first-use
/// order). Used to pick counter shards and trace-ring lanes without
/// hashing pthread ids.
size_t ThreadIndex();

/// Monotonic counter with a sharded-atomic hot path: Increment() is one
/// relaxed fetch_add on a cache-line-private slot picked by thread
/// index, so concurrent writers on different threads never bounce the
/// same line. Value() sums the slots (approximate under concurrent
/// writes, exact once writers quiesce — the usual monitoring contract).
class Counter {
 public:
  void Increment(uint64_t delta = 1) {
    slots_[ThreadIndex() & (kShards - 1)].value.fetch_add(
        delta, std::memory_order_relaxed);
  }

  uint64_t Value() const {
    uint64_t total = 0;
    for (const Slot& slot : slots_) {
      total += slot.value.load(std::memory_order_relaxed);
    }
    return total;
  }

 private:
  static constexpr size_t kShards = 8;  // power of two for the mask
  struct alignas(64) Slot {
    std::atomic<uint64_t> value{0};
  };
  std::array<Slot, kShards> slots_{};
};

/// Point-in-time signed value (queue depth, epoch, cache size). A single
/// atomic: gauges are written from one place at a time in practice, so
/// sharding would buy nothing.
class Gauge {
 public:
  void Set(int64_t value) { value_.store(value, std::memory_order_relaxed); }
  void Add(int64_t delta) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// One owner's term of a gauge several owners may share (the bare
/// one-partition `ltm_store_*` names; a retired partition beside its
/// successor): it moves the series by its own changes and takes itself
/// back out when destroyed, so the series sums the live owners. value()
/// is the term alone; a null gauge keeps just that exact count.
class GaugeTerm {
 public:
  explicit GaugeTerm(Gauge* gauge = nullptr) : gauge_(gauge) {}
  ~GaugeTerm() { Add(-value()); }
  GaugeTerm(const GaugeTerm&) = delete;
  GaugeTerm& operator=(const GaugeTerm&) = delete;

  /// For a term with one writer at a time; Add() takes concurrent writers.
  void Set(int64_t value) { Add(value - this->value()); }
  void Add(int64_t delta) {
    value_.fetch_add(delta, std::memory_order_relaxed);
    if (gauge_ != nullptr) gauge_->Add(delta);
  }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

  /// Counts its holder on `term` for the holder's lifetime.
  struct Hold {
    explicit Hold(GaugeTerm* t) : term(t) { term->Add(1); }
    ~Hold() { term->Add(-1); }
    Hold(const Hold&) = delete;
    Hold& operator=(const Hold&) = delete;
    GaugeTerm* const term;
  };

 private:
  Gauge* const gauge_;
  std::atomic<int64_t> value_{0};
};

/// Process-wide registry of named counters, gauges, and histograms.
///
/// Registration (counter()/gauge()/histogram()) takes one mutex and
/// returns a pointer that stays valid for the registry's lifetime —
/// callers resolve their metrics once, at construction, and the hot
/// path never touches the lock again. Names follow
/// `ltm_<subsystem>_<what>[_total]` and may embed a Prometheus-style
/// label set (`ltm_store_compaction_micros_total{level="1"}`); the
/// label text is part of the map key, nothing parses it until render
/// time.
///
/// The registry is instantiable so tests and embedded stores get
/// isolated namespaces; processes that want one exposition surface
/// (the CLIs, the benches) inject `&MetricsRegistry::Global()`
/// everywhere instead.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The process-wide instance (never destroyed).
  static MetricsRegistry& Global();

  /// Finds or creates the named metric. A name registered as one kind
  /// must not be re-requested as another (first registration wins; the
  /// mismatched request returns a fresh metric that renders under a
  /// "!kind" suffix so the bug is visible in the exposition instead of
  /// crashing the process).
  Counter* counter(const std::string& name) LTM_EXCLUDES(mu_);
  Gauge* gauge(const std::string& name) LTM_EXCLUDES(mu_);
  Histogram* histogram(const std::string& name) LTM_EXCLUDES(mu_);

  /// Point reads for tests and CLI assertions; 0 / nullptr-safe when the
  /// name was never registered.
  uint64_t CounterValue(const std::string& name) const LTM_EXCLUDES(mu_);
  int64_t GaugeValue(const std::string& name) const LTM_EXCLUDES(mu_);

  /// Family reads: the bare series `family` plus every labelled series
  /// `family{...}` (e.g. each partition's `{partition="N"}` copy), summed.
  /// Another family whose name merely starts with `family` is not
  /// included (`ltm_store_flush_rows_total` when summing
  /// `ltm_store_flush`); a family nobody registered reads 0. Like
  /// Counter::Value(), exact once writers quiesce.
  uint64_t CounterSum(const std::string& family) const LTM_EXCLUDES(mu_);
  int64_t GaugeSum(const std::string& family) const LTM_EXCLUDES(mu_);

  /// Number of registered metric names across all three kinds.
  size_t NumMetrics() const LTM_EXCLUDES(mu_);

  /// Prometheus-style text exposition, deterministically ordered by
  /// metric name:
  ///
  ///   ltm_store_compactions_total 3
  ///   ltm_serve_query_micros_bucket{le="128"} 17
  ///   ltm_serve_query_micros_bucket{le="+Inf"} 19
  ///   ltm_serve_query_micros_sum 2113
  ///   ltm_serve_query_micros_count 19
  ///
  /// Histograms emit cumulative buckets at each non-empty log2 boundary
  /// plus +Inf; labels embedded in the registered name are merged with
  /// the `le` label.
  std::string RenderText() const LTM_EXCLUDES(mu_);

 private:
  mutable Mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_
      LTM_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Gauge>> gauges_ LTM_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Histogram>> histograms_
      LTM_GUARDED_BY(mu_);
};

}  // namespace obs
}  // namespace ltm

#endif  // LTM_OBS_METRICS_H_
