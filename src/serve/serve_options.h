#ifndef LTM_SERVE_SERVE_OPTIONS_H_
#define LTM_SERVE_SERVE_OPTIONS_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/status.h"
#include "truth/method_spec.h"

namespace ltm {
namespace store {
struct TruthStoreOptions;
}  // namespace store

namespace serve {

/// Knobs for a ServeSession, settable from a spec string via the same
/// MethodSpec machinery as method options: `serve` or
/// `serve(batch_window_us=200, max_inflight=8, refit_debounce_epochs=4,
/// refit_queue=2, block_cache_mb=8, bloom_bits_per_key=10,
/// partitions=4)`.
struct ServeOptions {
  /// How long a cache-missing query leader waits (microseconds) before
  /// materializing its entity slice, so concurrent lookups for the same
  /// entity pile onto one computation. 0 = compute immediately.
  uint64_t batch_window_us = 0;

  /// Admission control: the maximum number of distinct entity-slice
  /// computations in flight at once. A query that would start one beyond
  /// this is shed with ResourceExhausted (joining an existing computation
  /// or hitting the cache is always admitted). Must be >= 1.
  size_t max_inflight = 64;

  /// Background refit trigger: schedule a Gibbs refit once the store
  /// epoch has advanced this far past the last fit. 0 disables the
  /// scheduler (refits then only happen through the pipeline's own
  /// ingest-path triggers).
  uint64_t refit_debounce_epochs = 0;

  /// Bounded pending-refit queue depth for the scheduler; when a trigger
  /// arrives with the queue full, the oldest pending request is shed
  /// (reported as ResourceExhausted). Must be >= 1.
  size_t refit_queue = 1;

  /// Sharded data-block cache budget (MiB) for the served store; together
  /// with the PosteriorCache this is the session's read-side memory
  /// budget, set from one spec string. 0 disables the block cache.
  size_t block_cache_mb = 8;

  /// Bloom filter bits per key for segments the served store writes
  /// (0 disables blooms; at most 64 — past that the filter is all ones).
  uint32_t bloom_bits_per_key = 10;

  /// Entity-range partitions for a freshly created served store. An
  /// existing PARTMAP always wins — reopening never repartitions — and a
  /// legacy single-store directory only converts to one partition. Must
  /// be in [1, store::kMaxPartitions].
  size_t partitions = 1;

  /// InvalidArgument when a field is out of range.
  Status Validate() const;

  /// Canonical round-trippable spec: "serve(batch_window_us=...,...)".
  std::string ToSpecString() const;

  /// Copies the store-facing knobs (block_cache_mb, bloom_bits_per_key)
  /// onto `base`, so serving tools open their store under the same
  /// spec-configured budget.
  store::TruthStoreOptions ApplyToStore(store::TruthStoreOptions base) const;
};

/// Applies `serve` keys from parsed method options over `base`,
/// consuming the keys it understands. Callers composing with other
/// option layers run CheckAllConsumed themselves.
Result<ServeOptions> ServeOptionsFromSpec(const MethodOptions& opts,
                                          ServeOptions base = ServeOptions());

/// Parses a standalone spec string ("serve" or "serve(key=value,...)"),
/// rejecting unknown keys and any name other than "serve".
Result<ServeOptions> ParseServeSpec(const std::string& spec);

}  // namespace serve
}  // namespace ltm

#endif  // LTM_SERVE_SERVE_OPTIONS_H_
