#include "serve/serve_options.h"

#include <algorithm>
#include <cctype>

#include "store/partition_map.h"
#include "store/truth_store.h"

namespace ltm {
namespace serve {

Status ServeOptions::Validate() const {
  if (max_inflight == 0) {
    return Status::InvalidArgument(
        "serve: max_inflight must be >= 1 (0 would shed every miss)");
  }
  if (refit_queue == 0) {
    return Status::InvalidArgument("serve: refit_queue must be >= 1");
  }
  if (bloom_bits_per_key > 64) {
    return Status::InvalidArgument(
        "serve: bloom_bits_per_key must be <= 64 (got " +
        std::to_string(bloom_bits_per_key) + ")");
  }
  if (partitions == 0 || partitions > store::kMaxPartitions) {
    return Status::InvalidArgument(
        "serve: partitions must be in [1, " +
        std::to_string(store::kMaxPartitions) + "] (got " +
        std::to_string(partitions) + ")");
  }
  return Status::OK();
}

std::string ServeOptions::ToSpecString() const {
  std::string out = "serve(batch_window_us=";
  out += std::to_string(batch_window_us);
  out += ",max_inflight=" + std::to_string(max_inflight);
  out += ",refit_debounce_epochs=" + std::to_string(refit_debounce_epochs);
  out += ",refit_queue=" + std::to_string(refit_queue);
  out += ",block_cache_mb=" + std::to_string(block_cache_mb);
  out += ",bloom_bits_per_key=" + std::to_string(bloom_bits_per_key);
  out += ",partitions=" + std::to_string(partitions);
  out += ")";
  return out;
}

store::TruthStoreOptions ServeOptions::ApplyToStore(
    store::TruthStoreOptions base) const {
  base.block_cache_mb = block_cache_mb;
  base.bloom_bits_per_key = bloom_bits_per_key;
  return base;
}

Result<ServeOptions> ServeOptionsFromSpec(const MethodOptions& opts,
                                          ServeOptions base) {
  ServeOptions out = base;
  LTM_ASSIGN_OR_RETURN(out.batch_window_us,
                       opts.GetUint64("batch_window_us", base.batch_window_us));
  LTM_ASSIGN_OR_RETURN(
      const uint64_t max_inflight,
      opts.GetUint64("max_inflight", static_cast<uint64_t>(base.max_inflight)));
  out.max_inflight = static_cast<size_t>(max_inflight);
  LTM_ASSIGN_OR_RETURN(
      out.refit_debounce_epochs,
      opts.GetUint64("refit_debounce_epochs", base.refit_debounce_epochs));
  LTM_ASSIGN_OR_RETURN(
      const uint64_t refit_queue,
      opts.GetUint64("refit_queue", static_cast<uint64_t>(base.refit_queue)));
  out.refit_queue = static_cast<size_t>(refit_queue);
  LTM_ASSIGN_OR_RETURN(const uint64_t block_cache_mb,
                       opts.GetUint64("block_cache_mb",
                                      static_cast<uint64_t>(base.block_cache_mb)));
  out.block_cache_mb = static_cast<size_t>(block_cache_mb);
  LTM_ASSIGN_OR_RETURN(
      const uint64_t bloom_bits,
      opts.GetUint64("bloom_bits_per_key", base.bloom_bits_per_key));
  if (bloom_bits > 64) {
    return Status::InvalidArgument(
        "serve: bloom_bits_per_key must be <= 64 (got " +
        std::to_string(bloom_bits) + ")");
  }
  out.bloom_bits_per_key = static_cast<uint32_t>(bloom_bits);
  LTM_ASSIGN_OR_RETURN(
      const uint64_t partitions,
      opts.GetUint64("partitions", static_cast<uint64_t>(base.partitions)));
  out.partitions = static_cast<size_t>(partitions);
  LTM_RETURN_IF_ERROR(out.Validate());
  return out;
}

Result<ServeOptions> ParseServeSpec(const std::string& spec) {
  LTM_ASSIGN_OR_RETURN(const MethodSpec parsed, MethodSpec::Parse(spec));
  std::string lower = parsed.name;
  std::transform(lower.begin(), lower.end(), lower.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  if (lower != "serve") {
    return Status::InvalidArgument("not a serve spec: \"" + parsed.name +
                                   "\" (expected serve(...))");
  }
  LTM_ASSIGN_OR_RETURN(ServeOptions options,
                       ServeOptionsFromSpec(parsed.options));
  LTM_RETURN_IF_ERROR(parsed.options.CheckAllConsumed("serve"));
  return options;
}

}  // namespace serve
}  // namespace ltm
