#ifndef LTM_SERVE_REFIT_SCHEDULER_H_
#define LTM_SERVE_REFIT_SCHEDULER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "truth/truth_method.h"

namespace ltm {
namespace serve {

struct RefitSchedulerOptions {
  /// Schedule a refit once the observed epoch is at least this far past
  /// the last fit. Must be >= 1 (a scheduler is only constructed when
  /// the debounce trigger is enabled).
  uint64_t debounce_epochs = 1;
  /// Bounded pending queue: triggers that arrive while a refit runs wait
  /// here; beyond this depth the oldest pending trigger is shed.
  size_t max_queue = 1;
};

/// Debounces epoch-advance notifications into background Gibbs refits on
/// a ThreadPool, with admission control. Notifications are cheap (one
/// lock) and never block on a fit: when a refit is already running, the
/// trigger queues (bounded; shed-oldest beyond RefitSchedulerOptions::
/// max_queue, surfaced to the caller as ResourceExhausted). The refit
/// callback returns the epoch its fit covered, which re-arms the
/// debounce. The destructor cancels the callback's RunContext and drains
/// the queue.
///
/// Debouncing is per partition: NotifyPartitionEpochs takes the store's
/// epoch vector (one slot per entity-range partition, size 1 for a
/// one-partition store) and fires when ANY slot advanced debounce_epochs
/// past the baseline captured at the last fit — so a burst confined to
/// one hot partition triggers exactly as fast as on an unpartitioned
/// store, instead of being diluted across the composite sum. A vector
/// whose length differs from the baseline's (the store split or merged
/// partitions) always fires: a rebalance rewrote the layout and the
/// per-slot comparison is meaningless until a fit re-baselines.
///
/// The scheduler keeps no stats of its own: it counts into the registry's
/// `ltm_serve_refit_{scheduled,completed,failed,shed}_total` counters and
/// sets the `ltm_serve_refit_{queue_depth,in_flight,last_fit_epoch}`
/// gauges.
class RefitScheduler {
 public:
  /// `fn` runs on `pool` threads; it must be safe to call from one
  /// background thread at a time (the scheduler never overlaps calls).
  using RefitFn = std::function<Result<uint64_t>(const RunContext&)>;

  /// `metrics` is where the `ltm_serve_refit_*` counters register (must
  /// outlive the scheduler); null gives the scheduler a private registry.
  /// ServeSession passes its store's registry.
  RefitScheduler(ThreadPool* pool, RefitFn fn, RefitSchedulerOptions options,
                 uint64_t initial_fit_epoch,
                 obs::MetricsRegistry* metrics = nullptr);
  ~RefitScheduler();

  /// Owns a mutex and is captured by pool jobs; copying or moving a live
  /// scheduler could never be correct.
  RefitScheduler(const RefitScheduler&) = delete;
  RefitScheduler& operator=(const RefitScheduler&) = delete;
  RefitScheduler(RefitScheduler&&) = delete;
  RefitScheduler& operator=(RefitScheduler&&) = delete;

  /// Observes that the store reached `epoch` (one-partition form;
  /// equivalent to NotifyPartitionEpochs({epoch})). Schedules (or
  /// queues) a refit when the debounce threshold is crossed. Returns OK
  /// when nothing needed doing or the trigger was admitted;
  /// ResourceExhausted when admitting it shed the oldest pending
  /// trigger.
  Status NotifyEpoch(uint64_t epoch) LTM_EXCLUDES(mu_);

  /// Observes the store's per-partition epoch vector (in partition
  /// order, as returned by PartitionedTruthStore::PartitionEpochs).
  /// Fires when any slot advanced past its debounce baseline, or when the
  /// layout changed (vector length differs from the baseline's). Same
  /// admission semantics as NotifyEpoch.
  Status NotifyPartitionEpochs(const std::vector<uint64_t>& epochs)
      LTM_EXCLUDES(mu_);

  /// Blocks until no job is running and nothing is pending.
  void Drain() LTM_EXCLUDES(mu_);

 private:
  /// True when `epochs` crosses the debounce threshold against the
  /// current baseline (any slot advanced enough, or the layout changed).
  bool ShouldTriggerLocked(const std::vector<uint64_t>& epochs) const
      LTM_REQUIRES(mu_);
  /// Submits the pool job for the trigger snapshot `epochs`; in_flight_
  /// must already be set.
  void LaunchLocked(std::vector<uint64_t> epochs) LTM_REQUIRES(mu_);
  /// Pool-job body: runs fn_, re-baselines on success, chains the next
  /// pending trigger if its debounce still holds.
  void RunOne(std::vector<uint64_t> epochs) LTM_EXCLUDES(mu_);

  ThreadPool* const pool_;
  const RefitFn fn_;
  const RefitSchedulerOptions options_;
  /// Set by the destructor; wired into the RunContext handed to fn_ so
  /// an in-flight fit aborts promptly on shutdown.
  std::atomic<bool> cancel_{false};

  /// Backs the metric pointers when no registry was injected.
  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;
  obs::Counter* scheduled_;
  obs::Counter* completed_;
  obs::Counter* failed_;
  obs::Counter* shed_;
  obs::Gauge* queue_depth_gauge_;
  obs::Gauge* in_flight_gauge_;
  obs::Gauge* last_fit_epoch_gauge_;

  mutable Mutex mu_;
  CondVar idle_cv_;
  /// Pending trigger snapshots (per-partition epoch vectors). The newest
  /// subsumes older ones elementwise, so the deque rarely grows.
  std::deque<std::vector<uint64_t>> pending_ LTM_GUARDED_BY(mu_);
  bool in_flight_ LTM_GUARDED_BY(mu_) = false;
  /// Debounce baseline: the per-partition epochs captured by the trigger
  /// whose fit last completed. Starts as {initial_fit_epoch}.
  std::vector<uint64_t> last_fit_epochs_ LTM_GUARDED_BY(mu_);
};

}  // namespace serve
}  // namespace ltm

#endif  // LTM_SERVE_REFIT_SCHEDULER_H_
