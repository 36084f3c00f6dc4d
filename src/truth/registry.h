#ifndef LTM_TRUTH_REGISTRY_H_
#define LTM_TRUTH_REGISTRY_H_

#include <functional>
#include <initializer_list>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "common/thread_pool.h"
#include "truth/method_spec.h"
#include "truth/options.h"
#include "truth/streaming_method.h"
#include "truth/truth_method.h"

namespace ltm {

/// Builds a method from its parsed spec options. `base_ltm` seeds the
/// LTM-family hyper-parameters (ignored by baselines); spec options are
/// applied on top of it. Factories validate their options and return
/// InvalidArgument for unknown keys or out-of-range values.
using MethodFactory = std::function<Result<std::unique_ptr<TruthMethod>>(
    const MethodOptions& options, const LtmOptions& base_ltm)>;

/// Process-wide registry of truth-finding methods. Built-in methods
/// self-register from their translation units via MethodRegistrar (see
/// LTM_REGISTER_TRUTH_METHOD); extensions and tests may Register at
/// runtime. Lookup is case-insensitive over canonical names and aliases.
class MethodRegistry {
 public:
  static MethodRegistry& Global();

  MethodRegistry() = default;
  /// The registry is process-global, self-referential via by_alias_
  /// indices, and mutex-owning; copies would silently fork the method
  /// namespace, so they are compile errors.
  MethodRegistry(const MethodRegistry&) = delete;
  MethodRegistry& operator=(const MethodRegistry&) = delete;
  MethodRegistry(MethodRegistry&&) = delete;
  MethodRegistry& operator=(MethodRegistry&&) = delete;

  /// Registers `factory` under `canonical_name` plus `aliases`.
  /// AlreadyExists when any name is taken.
  Status Register(std::string canonical_name,
                  std::vector<std::string> aliases, MethodFactory factory)
      LTM_EXCLUDES(mutex_);

  /// Removes a method and its aliases (tests). NotFound when absent.
  Status Unregister(const std::string& name) LTM_EXCLUDES(mutex_);

  /// Instantiates the method named by `spec`. NotFound for an unknown
  /// name; InvalidArgument for bad options.
  Result<std::unique_ptr<TruthMethod>> Create(
      const MethodSpec& spec, const LtmOptions& base_ltm = LtmOptions()) const
      LTM_EXCLUDES(mutex_);

  bool Contains(const std::string& name) const LTM_EXCLUDES(mutex_);

  /// Canonical registered names, sorted case-insensitively (deterministic
  /// regardless of registration order across translation units).
  std::vector<std::string> Names() const LTM_EXCLUDES(mutex_);

 private:
  struct Entry {
    std::string canonical;
    MethodFactory factory;
  };

  mutable Mutex mutex_;
  std::vector<Entry> entries_ LTM_GUARDED_BY(mutex_);
  /// lowercase name -> entry index
  std::map<std::string, size_t> by_alias_ LTM_GUARDED_BY(mutex_);
};

/// Static-initialization helper behind LTM_REGISTER_TRUTH_METHOD. A
/// registration failure (duplicate name) is a programming error; it is
/// logged at Error level and the duplicate is skipped.
struct MethodRegistrar {
  MethodRegistrar(const char* canonical_name,
                  std::initializer_list<const char*> aliases,
                  MethodFactory factory);
};

/// Registers a method from namespace scope of its own translation unit:
///
///   LTM_REGISTER_TRUTH_METHOD(
///       "Voting", {},
///       [](const MethodOptions& opts, const LtmOptions&)
///           -> Result<std::unique_ptr<TruthMethod>> { ... });
#define LTM_REGISTER_TRUTH_METHOD(canonical, ...)            \
  static const ::ltm::MethodRegistrar LTM_CONCAT_(           \
      ltm_method_registrar_, __COUNTER__)(canonical, __VA_ARGS__)

/// Creates a truth-finding method from a spec string: a paper name, case-
/// insensitive ("LTM", "LTMpos", "Voting", "TruthFinder", "HubAuthority",
/// "AvgLog", "Investment", "PooledInvestment", "3-Estimates", "LTMinc",
/// "StreamingLTM"), optionally parameterized —
/// "TruthFinder(rho=0.5,gamma=0.3)", "LTM(iterations=200,seed=7)".
/// `base_ltm` seeds LTM-family hyper-parameters below the spec overrides.
/// NotFound for an unknown name, InvalidArgument for a malformed spec or
/// bad option.
Result<std::unique_ptr<TruthMethod>> CreateMethod(
    const std::string& spec, const LtmOptions& base_ltm = LtmOptions());

/// Downcast to the streaming capability interface; nullptr when `method`
/// does not support the incremental protocol.
StreamingTruthMethod* AsStreaming(TruthMethod* method);

/// All batch methods compared in Table 7, in the paper's comparison order.
std::vector<std::unique_ptr<TruthMethod>> CreateAllMethods(
    const LtmOptions& base_ltm = LtmOptions());

/// Outcome of one spec from RunMethodsConcurrently: the spec as given and
/// either the method's TruthResult or the instantiation/run error.
struct MethodRunOutcome {
  std::string spec;
  Result<TruthResult> result;
};

/// Instantiates every spec and runs the resulting methods concurrently on
/// `pool` (ThreadPool::Shared() when null), one task per method:
/// independent methods are embarrassingly parallel, while each method's
/// own inference (e.g. LTM's one Gibbs chain) stays sequential. Outcomes
/// are returned in spec order, so the output is deterministic regardless
/// of scheduling.
///
/// `ctx` is copied per method with its callbacks dropped: on_iteration /
/// on_progress / on_state are not required to be thread-safe and several
/// methods would race on them. cancel, deadline_seconds (measured from
/// each method's own Run entry), seed, collect_trace and with_quality are
/// honored.
std::vector<MethodRunOutcome> RunMethodsConcurrently(
    const std::vector<std::string>& specs, const RunContext& ctx,
    const FactTable& facts, const ClaimGraph& graph,
    const LtmOptions& base_ltm = LtmOptions(), ThreadPool* pool = nullptr);

/// Every name accepted by CreateMethod (canonical spellings), sorted.
std::vector<std::string> MethodNames();

/// The nine batch methods of Table 7 in the paper's comparison order — the
/// subset of MethodNames() that CreateAllMethods instantiates.
std::vector<std::string> BatchMethodNames();

}  // namespace ltm

#endif  // LTM_TRUTH_REGISTRY_H_
