#ifndef LTM_EXT_STREAMING_H_
#define LTM_EXT_STREAMING_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "truth/ltm.h"
#include "truth/ltm_incremental.h"
#include "truth/options.h"
#include "truth/streaming_method.h"

namespace ltm {
namespace store {
class PartitionedTruthStore;  // store/partitioned_store.h — pointers only
}  // namespace store
namespace ext {

/// Controls for the streaming deployment pattern of §5.4: LTMinc answers
/// online with frozen source quality, and batch LTM refits periodically on
/// the cumulative data.
struct StreamingOptions {
  LtmOptions ltm;
  /// Refit batch LTM after this many incremental chunks (0 = never).
  size_t refit_every_chunks = 4;
};

/// Result of ingesting one chunk.
struct ChunkResult {
  /// Posterior truth probability per fact of the chunk dataset.
  TruthEstimate estimate;
  /// True when this chunk triggered a batch refit.
  bool refit = false;
};

/// Incremental truth-finding pipeline: the StreamingTruthMethod protocol
/// backed by Eq. 3 serving plus periodic batch refits. Chunks must share a
/// source vocabulary (same SourceId space, e.g. produced by Dataset splits
/// or a shared interner); entities may be entirely new in each chunk.
///
///   StreamingPipeline p(options);
///   p.Bootstrap(history);              // initial batch fit
///   p.Observe(chunk1);                 // Eq. 3 prediction, O(claims)
///   auto r = p.Estimate();             // chunk1's TruthResult
///   ...
///
/// Also registered as "StreamingLTM" (spec options: refit_every plus the
/// LTM keys), so engine harnesses can create it by name and downcast via
/// AsStreaming().
class StreamingPipeline : public StreamingTruthMethod {
 public:
  explicit StreamingPipeline(StreamingOptions options);

  std::string name() const override { return "StreamingLTM"; }

  /// Scores a one-off claim table under the current quality (Eq. 3)
  /// without ingesting it. Before any Bootstrap/Observe every source
  /// scores at its prior mean.
  Result<TruthResult> Run(const RunContext& ctx, const FactTable& facts,
                          const ClaimGraph& graph) const override;

  /// Fits batch LTM on `history` and installs the learned source quality.
  /// The context's cancel/deadline interrupt the fit; on error the
  /// pipeline stays un-bootstrapped and Bootstrap may be retried. With a
  /// store attached the store is the evidence, so this fails with
  /// FailedPrecondition (append `history` and RefitFromStore instead).
  Status Bootstrap(const Dataset& history,
                   const RunContext& ctx = RunContext());

  /// Scores `chunk` with LTMinc under the current quality, accumulates the
  /// chunk for future refits, and refits per `refit_every_chunks`. The
  /// chunk's TruthResult is available from Estimate() until the next
  /// Observe. The context's cancel/deadline interrupt the refit; an
  /// interrupted Observe may be retried with the same chunk (the raw
  /// merge is idempotent — RawDatabase dedups — and the chunk is only
  /// counted once).
  ///
  /// With a store attached (store mode) no rows are kept: the chunk only
  /// interns its new source names into the fitted source table, and
  /// every refit — the chunk-count trigger and a cold start alike — is a
  /// RefitFromStore. Chunks therefore arrive through ObserveToStore,
  /// which makes them durable first.
  Status Observe(const Dataset& chunk,
                 const RunContext& ctx = RunContext()) override;

  /// Result for the most recently observed chunk.
  Result<TruthResult> Estimate(
      const RunContext& ctx = RunContext()) const override;

  /// Priors folded with all evidence so far (§5.4): the latest batch
  /// read-off (which covers every chunk absorbed by a refit) plus the
  /// chunks observed since that refit.
  UpdatedPriors AccumulatedPriors() const override;

  /// Observe + the chunk estimate and refit flag in one call.
  Result<ChunkResult> IngestChunk(const Dataset& chunk,
                                  const RunContext& ctx = RunContext());

  /// Attaches a durable store and bootstraps from it: a RefitFromStore,
  /// fitting the store's full contents in global ingest order. This is
  /// the restartable-service entry point — a process that crashed
  /// mid-stream reopens the store and resumes with the identical
  /// cumulative evidence. `store` must outlive the pipeline. From here on
  /// the pipeline is in store mode: it keeps no copy of the rows, only
  /// the fitted source table. An empty store attaches without fitting;
  /// the first ObserveToStore cold-starts with a RefitFromStore. A failed
  /// bootstrap detaches the store again and may be retried.
  Status BootstrapFromStore(store::PartitionedTruthStore* store,
                            const RunContext& ctx = RunContext());

  /// Durable Observe: appends `chunk` to the attached store (one WAL
  /// group commit) *before* scoring it with LTMinc. Refits with
  /// RefitFromStore when either trigger fires: the chunk-count rule
  /// (StreamingOptions::refit_every_chunks) or the epoch rule
  /// (LtmOptions::refit_epoch_delta — the store advanced that many
  /// epochs since the last fit). Either refit fits the whole store, so
  /// durable appends that bypassed this pipeline are covered too.
  Status ObserveToStore(const Dataset& chunk,
                        const RunContext& ctx = RunContext());

  /// Batch-refits on the attached store at its current epoch: pins a
  /// snapshot, reads its rows as views in the store's key order
  /// (store::RowOrder::kKey, span "refit.read_rows"), builds the claim
  /// graph by walking that order with store::ClaimGraphFromRows (span
  /// "refit.graph_build"; no RawDatabase, FactTable or Dataset, and ids
  /// in the same first-appearance order a Dataset would give),
  /// releases the pin and fits. Only a successful fit installs its
  /// quality and its source table, so a failed refit leaves both exactly
  /// as they were. Returns the epoch the fit covered (which re-arms the
  /// refit_epoch_delta trigger). This is the refit entry point the
  /// serving layer's background scheduler drives; both ObserveToStore
  /// triggers go through it too. A store with no rows is a no-op
  /// (returns the current epoch without fitting).
  Result<uint64_t> RefitFromStore(const RunContext& ctx = RunContext());

  store::PartitionedTruthStore* attached_store() const { return store_; }

  /// The fitted source table: source name -> the id space the installed
  /// quality() is indexed by, followed by sources first seen in chunks
  /// observed since that fit. In store mode it is the last
  /// RefitFromStore's table plus those names; otherwise it is the
  /// in-memory cumulative data's. The serving layer uses it to build its
  /// name-keyed quality lookup.
  const StringInterner& cumulative_sources() const {
    return store_ != nullptr ? sources_ : cumulative_.sources();
  }

  const StreamingOptions& options() const { return options_; }

  /// Store epoch covered by the most recent batch fit.
  uint64_t last_fit_epoch() const { return last_fit_epoch_; }

  /// Quality currently used for incremental predictions.
  const SourceQuality& quality() const { return quality_; }

  size_t num_chunks_ingested() const { return chunks_.size(); }

  /// True when the most recent Observe/ObserveToStore triggered a refit.
  bool last_refit() const { return last_refit_; }

 private:
  /// Batch-fits `graph`, installs the quality, and resets serving_
  /// (whose accumulated chunk evidence the refit just absorbed). Leaves
  /// everything as it was on failure.
  Status Refit(const RunContext& ctx, const ClaimGraph& graph);

  /// Refit over a fresh build of cumulative_ (no store attached).
  Status RefitCumulative(const RunContext& ctx);

  /// `chunk` rebuilt with cumulative_sources()' id space, sources new to
  /// it appended in first-appearance order. Entities and attributes stay
  /// chunk-local (row order is kept, so fact indices match the caller's).
  Dataset KeyedToFittedSources(const Dataset& chunk) const;

  StreamingOptions options_;
  SourceQuality quality_;
  bool bootstrapped_ = false;
  /// Durable backing store (not owned); null when running in-memory only.
  store::PartitionedTruthStore* store_ = nullptr;
  /// Store epoch at the last batch fit, for the refit_epoch_delta trigger.
  uint64_t last_fit_epoch_ = 0;
  /// Retry bookkeeping for ObserveToStore: when an ingest failed after
  /// its WAL append, a retry of the identical chunk (matched by content
  /// hash) skips the re-append so the log and epoch do not inflate.
  bool pending_store_append_ = false;
  uint64_t pending_append_hash_ = 0;
  /// Cumulative raw data (history + chunks) for periodic batch refits
  /// when no store is attached; empty in store mode, where the store is
  /// the evidence and refits read it directly.
  RawDatabase cumulative_;
  /// Store mode's fitted source table (see cumulative_sources()).
  StringInterner sources_;
  std::vector<size_t> chunks_;  // claim counts per ingested chunk (stats)

  /// Persistent Eq. 3 server: scores chunks under the current quality and
  /// accumulates their expected counts between refits.
  LtmIncremental serving_;

  bool has_estimate_ = false;
  TruthResult last_result_;
  bool last_refit_ = false;
};

}  // namespace ext
}  // namespace ltm

#endif  // LTM_EXT_STREAMING_H_
