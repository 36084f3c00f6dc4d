#include "serve/refit_scheduler.h"

#include <algorithm>
#include <string>
#include <utility>

#include "common/logging.h"
#include "obs/trace.h"

namespace ltm {
namespace serve {

namespace {

/// True when the already-queued trigger `queued` covers `epochs`: same
/// layout and at least as far along in every partition, so one refit at
/// `queued` materializes everything `epochs` asked for.
bool Subsumes(const std::vector<uint64_t>& queued,
              const std::vector<uint64_t>& epochs) {
  if (queued.size() != epochs.size()) return false;
  for (size_t p = 0; p < queued.size(); ++p) {
    if (queued[p] < epochs[p]) return false;
  }
  return true;
}

std::string FormatEpochs(const std::vector<uint64_t>& epochs) {
  std::string out = "[";
  for (size_t p = 0; p < epochs.size(); ++p) {
    if (p > 0) out += ",";
    out += std::to_string(epochs[p]);
  }
  out += "]";
  return out;
}

}  // namespace

RefitScheduler::RefitScheduler(ThreadPool* pool, RefitFn fn,
                               RefitSchedulerOptions options,
                               uint64_t initial_fit_epoch,
                               obs::MetricsRegistry* metrics)
    : pool_(pool),
      fn_(std::move(fn)),
      options_(options),
      owned_metrics_(metrics == nullptr
                         ? std::make_unique<obs::MetricsRegistry>()
                         : nullptr),
      last_fit_epochs_{initial_fit_epoch} {
  obs::MetricsRegistry* reg =
      metrics != nullptr ? metrics : owned_metrics_.get();
  scheduled_ = reg->counter("ltm_serve_refit_scheduled_total");
  completed_ = reg->counter("ltm_serve_refit_completed_total");
  failed_ = reg->counter("ltm_serve_refit_failed_total");
  shed_ = reg->counter("ltm_serve_refit_shed_total");
  queue_depth_gauge_ = reg->gauge("ltm_serve_refit_queue_depth");
  in_flight_gauge_ = reg->gauge("ltm_serve_refit_in_flight");
  last_fit_epoch_gauge_ = reg->gauge("ltm_serve_refit_last_fit_epoch");
  last_fit_epoch_gauge_->Set(static_cast<int64_t>(initial_fit_epoch));
}

RefitScheduler::~RefitScheduler() {
  // Abort an in-flight fit promptly (the callback's RunContext carries
  // cancel_), then wait for it: the pool job captured `this` raw.
  cancel_.store(true, std::memory_order_relaxed);
  Drain();
}

Status RefitScheduler::NotifyEpoch(uint64_t epoch) {
  return NotifyPartitionEpochs(std::vector<uint64_t>{epoch});
}

bool RefitScheduler::ShouldTriggerLocked(
    const std::vector<uint64_t>& epochs) const {
  // A layout change (split/merge happened since the last fit) always
  // fires: the baseline's slots no longer describe the same key ranges.
  if (epochs.size() != last_fit_epochs_.size()) return true;
  for (size_t p = 0; p < epochs.size(); ++p) {
    if (epochs[p] >= last_fit_epochs_[p] + options_.debounce_epochs) {
      return true;
    }
  }
  return false;
}

Status RefitScheduler::NotifyPartitionEpochs(
    const std::vector<uint64_t>& epochs) {
  if (epochs.empty()) return Status::OK();
  MutexLock lock(mu_);
  if (!ShouldTriggerLocked(epochs)) return Status::OK();
  if (in_flight_) {
    // The running fit may already cover this trigger; conservatively
    // queue unless an equal-or-newer trigger is already waiting (one
    // refit materializes everything, so the newest trigger subsumes the
    // rest).
    if (!pending_.empty() && Subsumes(pending_.back(), epochs)) {
      return Status::OK();
    }
    if (pending_.size() >= options_.max_queue) {
      pending_.pop_front();
      shed_->Increment();
      pending_.push_back(epochs);
      queue_depth_gauge_->Set(static_cast<int64_t>(pending_.size()));
      return Status::ResourceExhausted(
          "refit queue full (refit_queue=" +
          std::to_string(options_.max_queue) +
          "); shed the oldest pending trigger");
    }
    pending_.push_back(epochs);
    queue_depth_gauge_->Set(static_cast<int64_t>(pending_.size()));
    return Status::OK();
  }
  in_flight_ = true;
  in_flight_gauge_->Set(1);
  LaunchLocked(epochs);
  return Status::OK();
}

void RefitScheduler::LaunchLocked(std::vector<uint64_t> epochs) {
  scheduled_->Increment();
  pool_->Submit(
      [this, snapshot = std::move(epochs)]() mutable {
        RunOne(std::move(snapshot));
      });
}

void RefitScheduler::RunOne(std::vector<uint64_t> epochs) {
  RunContext ctx;
  ctx.cancel = &cancel_;
  Result<uint64_t> fit = [&]() {
    obs::ObsSpan span("refit");
    return fn_(ctx);
  }();

  MutexLock lock(mu_);
  if (fit.ok()) {
    completed_->Increment();
    // Re-arm the debounce at the trigger snapshot. The fit itself only
    // reports a composite epoch, so the per-slot baseline comes from
    // the trigger — except in the one-partition shape, where the fit's
    // epoch is exact and at least the trigger's: taking the max there
    // keeps the scalar scheduler's historical behavior (appends racing
    // the fit count against the *fitted* epoch, not the trigger).
    if (epochs.size() == 1) epochs[0] = std::max(epochs[0], *fit);
    last_fit_epochs_ = std::move(epochs);
    // The composite epoch the fit covered (observability only; the
    // per-slot baseline above is what debounces).
    last_fit_epoch_gauge_->Set(static_cast<int64_t>(*fit));
  } else {
    // Leave the baseline alone: the next notification past the
    // threshold retries.
    failed_->Increment();
    LTM_LOG(Warning) << "serve: background refit (trigger epochs "
                     << FormatEpochs(epochs)
                     << ") failed: " << fit.status().ToString();
  }
  // One fit covers all queued triggers up to its snapshot; only the
  // newest still-uncovered trigger warrants another pass.
  std::vector<uint64_t> next;
  bool launch = false;
  if (!pending_.empty()) {
    next = std::move(pending_.back());
    pending_.clear();
    launch = !cancel_.load(std::memory_order_relaxed) &&
             ShouldTriggerLocked(next);
  }
  queue_depth_gauge_->Set(0);
  if (launch) {
    LaunchLocked(std::move(next));  // in_flight_ stays true via the chain
  } else {
    in_flight_ = false;
    in_flight_gauge_->Set(0);
    idle_cv_.NotifyAll();
  }
}

void RefitScheduler::Drain() {
  MutexLock lock(mu_);
  while (in_flight_) idle_cv_.Wait(mu_);
}

}  // namespace serve
}  // namespace ltm
