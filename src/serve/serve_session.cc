#include "serve/serve_session.h"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <span>
#include <thread>
#include <utility>

#include "common/timer.h"
#include "obs/trace.h"

namespace ltm {
namespace serve {

namespace {

uint64_t ElapsedMicros(const WallTimer& timer) {
  const double us = timer.ElapsedSeconds() * 1e6;
  return us <= 0.0 ? 0 : static_cast<uint64_t>(us);
}

}  // namespace

ServeSession::ServeSession(ext::StreamingPipeline* pipeline,
                           ServeOptions options)
    : pipeline_(pipeline),
      store_(pipeline->attached_store()),
      options_(options),
      ltm_options_(pipeline->options().ltm) {
  obs::MetricsRegistry* reg = store_->metrics();
  queries_ = reg->counter("ltm_serve_queries_total");
  snapshot_queries_ = reg->counter("ltm_serve_snapshot_queries_total");
  range_queries_ = reg->counter("ltm_serve_range_queries_total");
  coalesced_ = reg->counter("ltm_serve_coalesced_total");
  shed_ = reg->counter("ltm_serve_shed_total");
  slice_computes_ = reg->counter("ltm_serve_slice_computes_total");
  query_micros_ = reg->histogram("ltm_serve_query_micros");
  quality_version_gauge_ = reg->gauge("ltm_serve_quality_version");
}

Result<std::unique_ptr<ServeSession>> ServeSession::Create(
    ext::StreamingPipeline* pipeline, ServeOptions options,
    ThreadPool* pool) {
  if (pipeline == nullptr) {
    return Status::InvalidArgument("ServeSession: pipeline is null");
  }
  if (pipeline->attached_store() == nullptr) {
    return Status::FailedPrecondition(
        "ServeSession: pipeline has no attached store; call "
        "BootstrapFromStore first");
  }
  LTM_RETURN_IF_ERROR(options.Validate());
  std::unique_ptr<ServeSession> session(
      new ServeSession(pipeline, options));
  LTM_RETURN_IF_ERROR(session->RefreshQuality());
  if (options.refit_debounce_epochs > 0) {
    if (pool == nullptr) pool = &ThreadPool::Shared();
    RefitSchedulerOptions sched;
    sched.debounce_epochs = options.refit_debounce_epochs;
    sched.max_queue = options.refit_queue;
    ServeSession* raw = session.get();
    session->scheduler_ = std::make_unique<RefitScheduler>(
        pool,
        [raw](const RunContext& ctx) -> Result<uint64_t> {
          MutexLock plock(raw->pipeline_mu_);
          // Background refits publish their per-sweep Gibbs timing into
          // the store's registry alongside the serve counters.
          RunContext refit_ctx = ctx;
          refit_ctx.metrics = raw->store_->metrics();
          LTM_ASSIGN_OR_RETURN(const uint64_t fit_epoch,
                               raw->pipeline_->RefitFromStore(refit_ctx));
          raw->InstallQualityLocked();
          return fit_epoch;
        },
        sched, pipeline->last_fit_epoch(),
        pipeline->attached_store()->metrics());
  }
  return session;
}

ServeSession::~ServeSession() {
  // The scheduler's destructor cancels and drains its pool job before
  // any member it captured goes away.
  scheduler_.reset();
}

Status ServeSession::RefreshQuality() {
  MutexLock plock(pipeline_mu_);
  InstallQualityLocked();
  return Status::OK();
}

void ServeSession::InstallQualityLocked() {
  auto next = std::make_shared<VersionedQuality>();
  next->lookup = BuildQualityLookup(
      pipeline_->quality(), pipeline_->cumulative_sources(), ltm_options_);
  MutexLock lock(mu_);
  next->version = quality_versions_installed_++;
  quality_version_gauge_->Set(static_cast<int64_t>(next->version));
  quality_ = std::move(next);
  // A new fit changes every posterior at an unchanged epoch, so cached
  // entries keyed under older quality versions must go — from every
  // partition's cache.
  store_->ClearPosteriorCaches();
}

std::shared_ptr<const ServeSession::VersionedQuality>
ServeSession::CurrentQuality() const {
  MutexLock lock(mu_);
  return quality_;
}

Status ServeSession::NotifyIngest() {
  if (scheduler_ == nullptr) return Status::OK();
  return scheduler_->NotifyPartitionEpochs(store_->PartitionEpochs());
}

Result<double> ServeSession::Query(const FactRef& fact,
                                   const RunContext& ctx) {
  obs::ObsSpan span("query");
  const WallTimer timer;
  queries_->Increment();
  // Reads observe epoch advances too (a foreign writer may never call
  // NotifyIngest); admission feedback from a read-side poke is counted
  // in ltm_serve_refit_shed_total rather than failing the read.
  if (scheduler_ != nullptr) {
    (void)scheduler_->NotifyPartitionEpochs(store_->PartitionEpochs());
  }
  Result<double> result = QueryInner(fact, ctx);
  if (!result.ok() && result.status().code() == StatusCode::kResourceExhausted) {
    shed_->Increment();
  }
  query_micros_->Record(ElapsedMicros(timer));
  return result;
}

Result<double> ServeSession::QueryInner(const FactRef& fact,
                                        const RunContext& ctx) {
  RunObserver obs(ctx, "ServeSession::Query");
  const std::shared_ptr<const VersionedQuality> quality = CurrentQuality();
  const std::string cache_key =
      CacheKey(fact.entity, fact.attribute, quality->version);
  if (const auto hit = cache_for(fact.entity).Get(cache_key, store_->epoch())) {
    return *hit;
  }
  const auto pin = store_->PinSnapshot(&fact.entity, &fact.entity);
  return ResolveMiss(*pin, fact, cache_key, *quality, /*coalesce=*/true, obs);
}

std::string ServeSession::CacheKey(std::string_view entity,
                                   std::string_view attribute,
                                   uint64_t version) {
  char digits[24];
  char* digits_end =
      std::to_chars(digits, digits + sizeof(digits), version).ptr;
  std::string key;
  key.reserve(entity.size() + attribute.size() + 4 +
              static_cast<size_t>(digits_end - digits));
  key.append(entity);
  key += '\t';
  key.append(attribute);
  key += "\t#q";
  key.append(digits, digits_end);
  return key;
}

const double* ServeSession::SliceScore::Find(std::string_view attribute) const {
  for (const auto& [name, posterior] : posteriors) {
    if (name == attribute) return &posterior;
  }
  return nullptr;
}

Result<double> ServeSession::ResolveMiss(const store::StorePin& pin,
                                         const FactRef& fact,
                                         const std::string& cache_key,
                                         const VersionedQuality& quality,
                                         bool coalesce,
                                         const RunObserver& obs) {
  LTM_RETURN_IF_ERROR(obs.Check());
  // Bloom short-circuit: when every segment's filter denies the
  // (entity, attribute) pair and the pin's memtable has no exact match,
  // the fact cannot exist — serve the no-claim prior without reading a
  // single data block. Blooms have no false negatives, so this is the
  // same answer the entity read would have produced.
  LTM_ASSIGN_OR_RETURN(
      const bool may_exist,
      store_->SnapshotFactMayExist(pin, fact.entity, fact.attribute));
  uint64_t epoch = pin.epoch();
  if (may_exist) {
    std::shared_ptr<const SliceScore> score;
    if (coalesce) {
      LTM_ASSIGN_OR_RETURN(
          score, ScoreEntityCoalesced(pin, fact.entity, quality, obs));
    } else {
      LTM_ASSIGN_OR_RETURN(score, ScoreEntity(pin, fact.entity, quality));
    }
    if (const double* posterior = score->Find(fact.attribute)) {
      return *posterior;
    }
    epoch = score->epoch;
  }
  // The entity fill only covers facts that exist; cache the no-claim
  // prior for this queried-but-absent fact so repeat lookups hit.
  const double prior = quality.lookup.no_claim_prior;
  cache_for(fact.entity).Put(cache_key, epoch, prior);
  return prior;
}

Result<std::shared_ptr<const ServeSession::SliceScore>>
ServeSession::ScoreEntityCoalesced(const store::StorePin& pin,
                                   const std::string& entity,
                                   const VersionedQuality& quality,
                                   const RunObserver& obs) {
  const std::string slice_key =
      entity + "\x1f" + std::to_string(quality.version);
  std::shared_ptr<Inflight> entry;
  bool leader = false;
  {
    MutexLock lock(mu_);
    const auto it = inflight_.find(slice_key);
    if (it != inflight_.end()) {
      entry = it->second;
    } else {
      if (inflight_.size() >= options_.max_inflight) {
        return Status::ResourceExhausted(
            "serve: " + std::to_string(inflight_.size()) +
            " slice computations in flight (max_inflight=" +
            std::to_string(options_.max_inflight) + "); query shed");
      }
      entry = std::make_shared<Inflight>();
      inflight_.emplace(slice_key, entry);
      leader = true;
    }
  }

  if (leader) {
    if (options_.batch_window_us > 0) {
      // Pile-on window: near-simultaneous lookups for this entity join
      // the map entry while we linger, then share the one computation.
      std::this_thread::sleep_for(
          std::chrono::microseconds(options_.batch_window_us));
    }
    Result<std::shared_ptr<const SliceScore>> computed =
        ScoreEntity(pin, entity, quality);
    MutexLock lock(mu_);
    if (computed.ok()) {
      entry->score = std::move(*computed);
    } else {
      entry->error = computed.status();
    }
    entry->done = true;
    inflight_.erase(slice_key);
    cv_.NotifyAll();
  } else {
    MutexLock lock(mu_);
    while (!entry->done) {
      cv_.WaitFor(mu_, std::chrono::milliseconds(20));
      if (!entry->done) LTM_RETURN_IF_ERROR(obs.Check());
    }
    coalesced_->Increment();
  }
  // entry is immutable once done (the leader's last write under mu_ was
  // observed above, or made by this thread).
  if (!entry->error.ok()) return entry->error;
  return entry->score;
}

Result<std::shared_ptr<const ServeSession::SliceScore>>
ServeSession::ScoreEntity(const store::StorePin& pin, const std::string& entity,
                          const VersionedQuality& quality) {
  obs::ObsSpan span("slice_compute");
  slice_computes_->Increment();
  LTM_ASSIGN_OR_RETURN(const store::RowViews rows,
                       store_->ReadRowsAt(pin, &entity, &entity));
  std::vector<ScoredFact> scored;
  ScoreEntityRows(rows.rows, quality.lookup, &scored);
  auto out = std::make_shared<SliceScore>();
  out->epoch = pin.epoch();
  out->posteriors.reserve(scored.size());
  store::PosteriorCache& cache = cache_for(entity);
  for (const ScoredFact& fact : scored) {
    cache.Put(CacheKey(entity, fact.attribute, quality.version), out->epoch,
              fact.posterior);
    out->posteriors.emplace_back(std::string(fact.attribute), fact.posterior);
  }
  return std::shared_ptr<const SliceScore>(std::move(out));
}

Result<std::vector<double>> ServeSession::QueryBatch(
    const std::vector<FactRef>& facts, const RunContext& ctx) {
  // One observer spans the batch so the deadline budget covers the whole
  // call, not each item afresh.
  RunObserver obs(ctx, "ServeSession::QueryBatch");
  std::vector<double> out;
  out.reserve(facts.size());
  for (const FactRef& fact : facts) {
    LTM_ASSIGN_OR_RETURN(const double p, Query(fact, obs.NestedContext()));
    out.push_back(p);
  }
  return out;
}

Result<std::vector<ServedFact>> ServeSession::QueryEntityRange(
    const std::string& min_entity, const std::string& max_entity,
    const RunContext& ctx) {
  range_queries_->Increment();
  RunObserver obs(ctx, "ServeSession::QueryEntityRange");
  const std::shared_ptr<const VersionedQuality> quality = CurrentQuality();
  const auto pin = store_->PinSnapshot(&min_entity, &max_entity);
  LTM_ASSIGN_OR_RETURN(store::RowViews rows,
                       store_->ReadRowsAt(*pin, &min_entity, &max_entity));
  LTM_RETURN_IF_ERROR(obs.Check());
  // Group the rows by entity — the API contract is global lexicographic
  // entity order — keeping each entity's rows in ingest order, then score
  // every entity exactly as a point read would.
  std::stable_sort(rows.rows.begin(), rows.rows.end(),
                   [](const store::RowView& a, const store::RowView& b) {
                     return a.entity < b.entity;
                   });
  std::vector<ServedFact> out;
  std::vector<ScoredFact> scored;
  const std::span<const store::RowView> all(rows.rows);
  for (size_t begin = 0; begin < all.size();) {
    size_t end = begin + 1;
    while (end < all.size() && all[end].entity == all[begin].entity) ++end;
    ScoreEntityRows(all.subspan(begin, end - begin), quality->lookup, &scored);
    const std::string entity(all[begin].entity);
    store::PosteriorCache& cache = cache_for(entity);
    for (const ScoredFact& fact : scored) {
      ServedFact served;
      served.entity = entity;
      served.attribute = std::string(fact.attribute);
      served.posterior = fact.posterior;
      cache.Put(CacheKey(entity, fact.attribute, quality->version),
                pin->epoch(), fact.posterior);
      out.push_back(std::move(served));
    }
    begin = end;
  }
  return out;
}

std::unique_ptr<ServeSnapshot> ServeSession::AcquireSnapshot() {
  return std::unique_ptr<ServeSnapshot>(
      new ServeSnapshot(this, store_->PinSnapshot(), CurrentQuality()));
}

Result<double> ServeSnapshot::Query(const FactRef& fact,
                                    const RunContext& ctx) {
  obs::ObsSpan span("query");
  const WallTimer timer;
  session_->snapshot_queries_->Increment();
  RunObserver obs(ctx, "ServeSnapshot::Query");
  const std::string cache_key =
      ServeSession::CacheKey(fact.entity, fact.attribute, quality_->version);
  Result<double> result = 0.0;
  if (const auto hit =
          session_->cache_for(fact.entity).Get(cache_key, pin_->epoch())) {
    result = *hit;
  } else {
    // The live path's miss routine on this snapshot's own pin and
    // quality, without singleflight (a live leader may read another
    // epoch): the same replay order a sequential read at the pinned epoch
    // uses, so the result is bit-identical no matter what runs
    // concurrently. Its cache fill is best-effort — the downgrade guard
    // drops it when the live cache already holds a fresher epoch.
    result = session_->ResolveMiss(*pin_, fact, cache_key, *quality_,
                                   /*coalesce=*/false, obs);
  }
  session_->query_micros_->Record(ElapsedMicros(timer));
  return result;
}

Result<std::vector<double>> ServeSnapshot::QueryBatch(
    const std::vector<FactRef>& facts, const RunContext& ctx) {
  RunObserver obs(ctx, "ServeSnapshot::QueryBatch");
  std::vector<double> out;
  out.reserve(facts.size());
  for (const FactRef& fact : facts) {
    LTM_ASSIGN_OR_RETURN(const double p, Query(fact, obs.NestedContext()));
    out.push_back(p);
  }
  return out;
}

}  // namespace serve
}  // namespace ltm
