// Small, engine-independent helpers for the benchmark driver: clocks,
// exact-sample quantiles, the metric report, and process/registry reads.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "obs/metrics.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double MicrosBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// Busy-waits until `due`. Open-loop clients spin instead of sleeping so
/// a query never starts on a core that was idled by the scheduler.
void SpinUntil(Clock::time_point due);

/// splitmix64 of (seed, salt): independent, reproducible sub-seeds.
uint64_t MixSeed(uint64_t seed, uint64_t salt);

/// Nearest-rank quantile of exact samples (sorts `values`); 0 when empty.
/// With n >= 1000 samples the p99 has at least ten samples beyond it.
double Quantile(std::vector<double>* values, double q);
double Median(std::vector<double> values);

/// One named metric as the driver reports it.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  uint64_t samples = 0;  ///< Measurements behind the value.
};

/// Ordered metric list plus the run's verdict, written as the detail
/// JSON that run.py turns into the benchmark's result line.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit,
           uint64_t samples);
  void Count(const std::string& name, uint64_t value);
  void Fail(const std::string& why);
  bool ok() const { return errors_.empty(); }
  void set_queries(uint64_t attempted, uint64_t failed) {
    attempted_ = attempted;
    failed_ = failed;
  }
  /// Workload-determined work counts; two runs of one seed must agree.
  std::map<std::string, uint64_t>& counts() { return counts_; }
  bool WriteJson(const std::string& path) const;

 private:
  std::vector<Metric> metrics_;
  std::map<std::string, uint64_t> counts_;
  std::vector<std::string> errors_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

/// A point-in-time read of a MetricsRegistry through its exposition
/// text: counters and gauges summed per metric family across label sets
/// (a partitioned store labels every child's series), skipping per-level
/// breakdowns that would double-count the unlabeled totals.
class RegistryView {
 public:
  RegistryView() = default;
  explicit RegistryView(const ltm::obs::MetricsRegistry& registry);
  double Sum(const std::string& family) const;
  /// Exact series names of a family (for resolving gauge pointers).
  std::vector<std::string> Series(const std::string& family) const;

 private:
  std::map<std::string, double> family_sum_;
  std::map<std::string, std::vector<std::string>> family_series_;
};

/// Threads of this process in the running state ('R' in
/// /proc/self/task/*/stat), not counting the calling thread.
int RunningThreads();

/// Samples, every 5 ms from its own mostly sleeping thread, how many
/// threads of the process are running and the sum of the watched gauges,
/// and keeps the maximum of each.
class PhaseSampler {
 public:
  PhaseSampler();
  ~PhaseSampler();  ///< Stops and joins the thread.
  /// Starts summing `gauges`, which must outlive Stop().
  void Watch(std::vector<ltm::obs::Gauge*> gauges);
  void Stop();
  int max_running() const { return max_running_.load(); }
  int64_t max_gauge_sum() const { return max_gauge_sum_.load(); }

 private:
  ltm::Mutex mu_;
  std::vector<ltm::obs::Gauge*> gauges_ LTM_GUARDED_BY(mu_);
  std::atomic<bool> stop_{false};
  std::atomic<int> max_running_{0};
  std::atomic<int64_t> max_gauge_sum_{0};
  std::thread thread_;
};

/// Total bytes of every regular file under `dir`.
uint64_t DirectoryBytes(const std::string& dir);

/// Writes back the dirty pages of the filesystem holding `path`
/// (syncfs), so kernel writeback left over from an earlier phase does
/// not compete with the next timed one.
void Quiesce(const std::string& path);

/// Peak resident set (VmHWM) of this process in MiB.
double PeakRssMib();

/// Binds the calling thread to the `index`-th highest CPU of the set the
/// process started with (modulo its size).
void PinToCpu(int index);

/// CPUs the process started with (sched_getaffinity), i.e. `nproc`.
/// Call before pinning any thread.
int AvailableCpus();

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
