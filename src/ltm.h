#ifndef LTM_LTM_H_
#define LTM_LTM_H_

/// Umbrella header for the ltm library's public API.
///
/// Typical flow:
///   1. Build a RawDatabase from (entity, attribute, source) triples —
///      by hand, via tsv_io, or with a synth generator.
///   2. Derive a Dataset (fact table + packed CSR claim graph, paper §2)
///      with Dataset::FromRaw, which materializes the Definition 3
///      claims straight into the ClaimGraph every method consumes.
///      Snapshot the result (Dataset::SaveSnapshot / LoadSnapshot) so
///      repeat runs skip TSV parsing and claim materialization.
///   3. Create a method from a spec string — CreateMethod("LTM"),
///      CreateMethod("TruthFinder(rho=0.5,gamma=0.3)"),
///      CreateMethod("LTM(iterations=200,seed=7)") — or construct one
///      directly. Every method (LTM, the eight baselines, LTMinc, the
///      exact oracle and the streaming pipeline) lives in one
///      self-registering MethodRegistry keyed on a parsed MethodSpec.
///   4. Run it through the session API:
///        RunContext ctx;                   // all fields optional
///        ctx.deadline_seconds = 1.5;       // wall-clock budget
///        ctx.cancel = &my_atomic_flag;     // cooperative cancellation
///        ctx.collect_trace = true;         // per-iteration convergence
///        ctx.with_quality = true;          // §5.3 source-quality read-off
///        auto result = method->Run(ctx, ds.facts, ds.graph);
///      Run returns Result<TruthResult>: posterior probabilities plus the
///      optional SourceQuality, the IterationStat trace, iteration count
///      and wall-clock time. TruthMethod::Score(facts, graph) is the
///      one-line convenience wrapper when none of that is needed.
///   5. Streaming (§5.4): methods that implement StreamingTruthMethod
///      (LtmIncremental, ext::StreamingPipeline) additionally support
///      Observe(chunk) / Estimate() / AccumulatedPriors(); discover the
///      capability with AsStreaming(method).
///   6. Evaluate with the eval/ helpers.

#include "common/logging.h"      // IWYU pragma: export
#include "common/math_util.h"    // IWYU pragma: export
#include "common/rng.h"          // IWYU pragma: export
#include "common/status.h"       // IWYU pragma: export
#include "common/string_util.h"  // IWYU pragma: export
#include "common/thread_pool.h"  // IWYU pragma: export
#include "common/timer.h"        // IWYU pragma: export

#include "data/claim_graph.h"    // IWYU pragma: export
#include "data/claim_stats.h"    // IWYU pragma: export
#include "data/dataset.h"        // IWYU pragma: export
#include "data/fact_table.h"     // IWYU pragma: export
#include "data/interner.h"       // IWYU pragma: export
#include "data/raw_database.h"   // IWYU pragma: export
#include "data/snapshot.h"       // IWYU pragma: export
#include "data/truth_labels.h"   // IWYU pragma: export
#include "data/tsv_io.h"         // IWYU pragma: export

#include "eval/calibration.h"      // IWYU pragma: export
#include "eval/confusion.h"        // IWYU pragma: export
#include "eval/metrics.h"          // IWYU pragma: export
#include "eval/regression.h"       // IWYU pragma: export
#include "eval/roc.h"              // IWYU pragma: export
#include "eval/table_printer.h"    // IWYU pragma: export
#include "eval/threshold_sweep.h"  // IWYU pragma: export

#include "truth/exact_inference.h"   // IWYU pragma: export
#include "truth/gibbs_kernel.h"      // IWYU pragma: export
#include "truth/ltm.h"               // IWYU pragma: export
#include "truth/ltm_incremental.h"   // IWYU pragma: export
#include "truth/method_spec.h"       // IWYU pragma: export
#include "truth/options.h"           // IWYU pragma: export
#include "truth/registry.h"          // IWYU pragma: export
#include "truth/source_quality.h"    // IWYU pragma: export
#include "truth/streaming_method.h"  // IWYU pragma: export
#include "truth/truth_method.h"      // IWYU pragma: export

#endif  // LTM_LTM_H_
