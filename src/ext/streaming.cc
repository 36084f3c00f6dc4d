#include "ext/streaming.h"

#include <memory>
#include <string>
#include <utility>

#include "common/hash.h"
#include "common/logging.h"
#include "store/partitioned_store.h"
#include "truth/registry.h"

namespace ltm {
namespace ext {

StreamingPipeline::StreamingPipeline(StreamingOptions options)
    : options_(std::move(options)), serving_(options_.ltm) {}

Result<TruthResult> StreamingPipeline::Run(const RunContext& ctx,
                                           const FactTable& facts,
                                           const ClaimGraph& graph) const {
  return serving_.Run(ctx, facts, graph);
}

Status StreamingPipeline::Bootstrap(const Dataset& history,
                                    const RunContext& ctx) {
  // Keep the shared source id space: intern history's sources first.
  // Re-merging on a retried bootstrap is harmless: RawDatabase dedups.
  for (const std::string& s : history.raw.sources().strings()) {
    cumulative_.mutable_sources().Intern(s);
  }
  cumulative_.MergeRowsFrom(history.raw);
  LTM_RETURN_IF_ERROR(RefitCumulative(ctx));
  bootstrapped_ = true;
  return Status::OK();
}

Status StreamingPipeline::Observe(const Dataset& chunk, const RunContext& ctx) {
  // One observer spans the whole ingest so the caller's deadline budget
  // covers scoring *and* refitting; each nested run gets the remainder.
  RunObserver obs(ctx, "StreamingLTM");
  last_refit_ = false;
  if (!bootstrapped_) {
    // No quality yet: bootstrap from this very chunk (cold start). The
    // refit absorbs the chunk's evidence, so score it statelessly rather
    // than accumulating it into serving_ a second time.
    LTM_RETURN_IF_ERROR(Bootstrap(chunk, obs.NestedContext()));
    LTM_ASSIGN_OR_RETURN(
        last_result_,
        serving_.Run(obs.NestedContext(), chunk.facts, chunk.graph));
    has_estimate_ = true;
    chunks_.push_back(chunk.graph.NumClaims());
    last_refit_ = true;
    return Status::OK();
  }
  // Score + accumulate the chunk's expected counts under the current
  // quality, then cache its result for Estimate().
  LTM_RETURN_IF_ERROR(serving_.Observe(chunk, obs.NestedContext()));
  LTM_ASSIGN_OR_RETURN(last_result_, serving_.Estimate());
  has_estimate_ = true;
  cumulative_.MergeRowsFrom(chunk.raw);
  chunks_.push_back(chunk.graph.NumClaims());
  if (options_.refit_every_chunks > 0 &&
      chunks_.size() % options_.refit_every_chunks == 0) {
    Status refit = RefitCumulative(obs.NestedContext());
    if (!refit.ok()) {
      // Roll the chunk count back so a retried Observe does not double
      // count it (the raw merge is deduped; serving_'s transient double
      // accumulation is discarded by the next successful refit).
      chunks_.pop_back();
      return refit;
    }
    last_refit_ = true;
  }
  return Status::OK();
}

Result<TruthResult> StreamingPipeline::Estimate(const RunContext& ctx) const {
  (void)ctx;
  if (!has_estimate_) {
    return Status::FailedPrecondition(
        "StreamingLTM: Estimate() before any Observe(); ingest a chunk first");
  }
  return last_result_;
}

UpdatedPriors StreamingPipeline::AccumulatedPriors() const {
  return serving_.AccumulatedPriors();
}

Result<ChunkResult> StreamingPipeline::IngestChunk(const Dataset& chunk,
                                                   const RunContext& ctx) {
  LTM_RETURN_IF_ERROR(Observe(chunk, ctx));
  ChunkResult result;
  result.estimate = last_result_.estimate;
  result.refit = last_refit_;
  return result;
}

Status StreamingPipeline::BootstrapFromStore(
    store::PartitionedTruthStore* store, const RunContext& ctx) {
  if (store == nullptr) {
    return Status::InvalidArgument("BootstrapFromStore: store is null");
  }
  uint64_t epoch = 0;
  LTM_ASSIGN_OR_RETURN(const Dataset history, store->Materialize(&epoch));
  if (history.raw.NumRows() > 0) {
    LTM_RETURN_IF_ERROR(Bootstrap(history, ctx));
  }
  // Attach only after a successful fit so a failed bootstrap leaves the
  // pipeline unchanged and retryable.
  store_ = store;
  last_fit_epoch_ = epoch;
  return Status::OK();
}

Status StreamingPipeline::ObserveToStore(const Dataset& chunk,
                                         const RunContext& ctx) {
  if (store_ == nullptr) {
    return Status::FailedPrecondition(
        "ObserveToStore: no store attached; call BootstrapFromStore first");
  }
  // One observer spans the append, the scoring, and a possible epoch
  // refit, so the caller's deadline budget covers the whole ingest.
  RunObserver obs(ctx, "StreamingLTM");
  // Durability first: the chunk reaches the WAL (one group commit) before
  // any scoring, so a crash after this line loses no evidence. A retry of
  // a failed ObserveToStore skips the re-append when the identical chunk
  // already reached the WAL — materialization would stay correct anyway
  // (RawDatabase dedups) but the log and the epoch should not inflate.
  uint64_t chunk_hash = 0xcbf29ce484222325ULL;
  for (const RawRow& row : chunk.raw.rows()) {
    chunk_hash = (chunk_hash ^ Fnv1a64(chunk.raw.entities().Get(row.entity))) *
                 0x100000001b3ULL;
    chunk_hash =
        (chunk_hash ^ Fnv1a64(chunk.raw.attributes().Get(row.attribute))) *
        0x100000001b3ULL;
    chunk_hash = (chunk_hash ^ Fnv1a64(chunk.raw.sources().Get(row.source))) *
                 0x100000001b3ULL;
  }
  if (!(pending_store_append_ && pending_append_hash_ == chunk_hash)) {
    LTM_RETURN_IF_ERROR(store_->AppendRaw(chunk.raw));
    // Marked AFTER the append on purpose: a partially appended chunk
    // (append error mid-way) must be re-appended on retry so its missing
    // rows reach the WAL — the duplicated prefix is deduped by the
    // memtable and only costs log bytes. Skipping is safe exactly when
    // the whole chunk made it in.
    pending_append_hash_ = chunk_hash;
    pending_store_append_ = true;
  }
  // Rebuild the chunk with the pipeline's cumulative source-id space.
  // Observe's contract requires chunks to share the fitted SourceId
  // space, but a store-materialized bootstrap interns sources in ingest
  // order — generally different from the caller's chunk vocabulary — so
  // the durable path re-keys by source *name* instead of trusting ids.
  // Entities and attributes stay chunk-local (row order is preserved, so
  // the rebuilt FactTable matches the caller's fact indices).
  RawDatabase rekeyed;
  for (const std::string& s : cumulative_.sources().strings()) {
    rekeyed.mutable_sources().Intern(s);
  }
  rekeyed.MergeRowsFrom(chunk.raw);
  const Dataset canonical = Dataset::FromRaw(chunk.name, std::move(rekeyed));
  LTM_RETURN_IF_ERROR(Observe(canonical, obs.NestedContext()));
  // The epoch trigger runs even when a chunk-count refit just fired:
  // that refit only covered cumulative_, while the epoch counts *all*
  // durable evidence — including appends that never went through this
  // pipeline (a foreign writer, or a chunk whose scoring failed after
  // its WAL append). Conversely, last_fit_epoch_ advances ONLY here,
  // where the fit provably covered the store's contents.
  if (options_.ltm.refit_epoch_delta > 0 &&
      store_->epoch() - last_fit_epoch_ >= options_.ltm.refit_epoch_delta) {
    // NestedContext carries the budget remaining after the observe, so
    // the refit cannot exceed the caller's deadline.
    const Result<uint64_t> fit = RefitFromStore(obs.NestedContext());
    if (!fit.ok()) {
      // Undo the chunk count: a retried ObserveToStore re-runs Observe
      // in full. serving_'s transient double accumulation is absorbed by
      // the next successful refit (same as Observe's own failed-refit
      // path).
      chunks_.pop_back();
      return fit.status();
    }
    last_refit_ = true;
  }
  pending_store_append_ = false;  // the chunk is fully absorbed
  // The posterior cache is deliberately NOT warmed with last_result_:
  // chunk posteriors only reflect the chunk's own claims, while a served
  // posterior must combine all durable evidence for the fact. The
  // serving layer (serve::ServeSession) computes and caches exactly that
  // on first read.
  return Status::OK();
}

Result<uint64_t> StreamingPipeline::RefitFromStore(const RunContext& ctx) {
  if (store_ == nullptr) {
    return Status::FailedPrecondition(
        "RefitFromStore: no store attached; call BootstrapFromStore first");
  }
  // Resync the in-memory cumulative mirror from the store so the refit
  // covers exactly the durable evidence — including appends that never
  // went through this pipeline (a foreign writer, or a chunk whose
  // scoring failed after its WAL append) — transactionally: the mirror
  // swap is rolled back if the refit fails, so quality_ and cumulative_
  // can never be left with mismatched source-interning orders.
  uint64_t fit_epoch = 0;
  LTM_ASSIGN_OR_RETURN(Dataset durable, store_->Materialize(&fit_epoch));
  if (durable.raw.NumRows() == 0) return fit_epoch;  // nothing to fit
  std::swap(cumulative_, durable.raw);  // durable.raw now holds the old
  // Materialize already built the facts and graph of exactly these rows;
  // both builds are deterministic, so fitting them is fitting a rebuild.
  Status refit = Refit(ctx, durable.facts, durable.graph);
  if (!refit.ok()) {
    std::swap(cumulative_, durable.raw);  // Refit left quality_ as-is
    return refit;
  }
  bootstrapped_ = true;
  last_fit_epoch_ = fit_epoch;
  return fit_epoch;
}

Status StreamingPipeline::RefitCumulative(const RunContext& ctx) {
  const FactTable facts = FactTable::Build(cumulative_);
  return Refit(ctx, facts, ClaimGraph::Build(cumulative_, facts));
}

Status StreamingPipeline::Refit(const RunContext& ctx, const FactTable& facts,
                                const ClaimGraph& graph) {
  LtmOptions fit_options = options_.ltm;
  if (options_.align_shards_to_partitions && store_ != nullptr) {
    // Pin the refit chain's shard layout to the store's partition count
    // so the fit is reproducible across machines serving the same store.
    fit_options.shards = static_cast<int>(store_->num_partitions());
  }
  LatentTruthModel model(fit_options);
  // `ctx` already carries the caller's remaining budget (Observe derives
  // it via NestedContext), so it is copied through as-is.
  RunContext refit_ctx;
  refit_ctx.cancel = ctx.cancel;
  refit_ctx.deadline_seconds = ctx.deadline_seconds;
  refit_ctx.with_quality = true;
  refit_ctx.on_progress = ctx.on_progress;
  refit_ctx.metrics = ctx.metrics;
  LTM_ASSIGN_OR_RETURN(TruthResult result, model.Run(refit_ctx, facts, graph));
  quality_ = std::move(*result.quality);
  // The refit absorbed everything serving_ had accumulated; restart it
  // from the fresh read-off.
  serving_ = LtmIncremental(quality_, options_.ltm);
  LTM_LOG(Info) << "streaming refit on " << graph.NumClaims() << " claims, "
                << quality_.NumSources() << " sources";
  return Status::OK();
}

LTM_REGISTER_TRUTH_METHOD(
    "StreamingLTM", {"streamingpipeline"},
    [](const MethodOptions& opts, const LtmOptions& base)
        -> Result<std::unique_ptr<TruthMethod>> {
      StreamingOptions options;
      LTM_ASSIGN_OR_RETURN(
          const int refit_every,
          opts.GetInt("refit_every",
                      static_cast<int>(options.refit_every_chunks)));
      if (refit_every < 0) {
        return Status::InvalidArgument(
            "StreamingLTM refit_every must be >= 0, got " +
            std::to_string(refit_every));
      }
      options.refit_every_chunks = static_cast<size_t>(refit_every);
      LTM_ASSIGN_OR_RETURN(options.align_shards_to_partitions,
                           opts.GetBool("align_shards_to_partitions",
                                        options.align_shards_to_partitions));
      LTM_ASSIGN_OR_RETURN(options.ltm, LtmOptionsFromSpec(opts, base));
      return std::unique_ptr<TruthMethod>(new StreamingPipeline(options));
    });

}  // namespace ext
}  // namespace ltm
