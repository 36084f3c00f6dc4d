#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <numeric>
#include <random>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/thread_pool.h"
#include "data/dataset.h"
#include "eval/roc.h"
#include "ext/streaming.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/serve_options.h"
#include "serve/serve_session.h"
#include "store/partitioned_store.h"
#include "synth/labeling.h"
#include "synth/movie_simulator.h"
#include "trace_summary.h"
#include "truth/ltm_incremental.h"
#include "truth/options.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using ltm::Dataset;
using ltm::RawDatabase;
using ltm::Status;
using ltm::serve::FactRef;
using ltm::serve::ServeSession;
using ltm::store::TruthStoreBase;

enum class Kind { kServeCold, kServeIngest };

/// Set-up ingest batches per Flush + CompactOnce.
constexpr size_t kBootFlushEvery = 2;

/// Closed-loop queries count toward capacity only when they succeed
/// within this latency.
constexpr double kLatencyLimitUs = 10000.0;

/// Every size and rate of one workload. All work is fixed by these
/// counts and the seed; only timings differ between runs.
struct Params {
  size_t movies = 15073;         ///< Movie-world size before the conflict filter.
  /// Share of the entities, a seeded sample, whose rows form the timed
  /// write stream instead of the set-up history. 0 = no stream.
  double stream_share = 0.0;
  size_t boot_batch_rows = 4096;  ///< Rows per durable AppendRaw in set-up.
  size_t stream_batches = 0;      ///< Equal durable batches of the stream.
  size_t stream_flush_every = 1;  ///< Stream batches per Flush + CompactOnce.
  int setup_reps = 3;
  int iterations = 100;  ///< Gibbs sweeps of every fit (bootstrap and refit).
  /// Timed RefitFromStore calls: per set-up instance (serve_cold) or
  /// after the serving phase (serve_ingest).
  int refit_reps = 3;
  int clients = 3;
  double rate_per_client = 0.0;  ///< Open-loop offered rate (queries/s).
  double open_seconds = 0.0;
  uint64_t closed_per_client = 0;  ///< Closed-loop queries per client.
  uint64_t warmup_per_client = 20000;  ///< Untimed queries before the start.
  double writer_seconds = 0.0;     ///< Paced writer span (serve_ingest).
  size_t hot_entities = 0;         ///< Hot set size (0 = uniform queries).
  double hot_share = 0.0;
  /// serve_ingest: stream batches between background refit triggers
  /// (0 = no refit scheduler).
  size_t refit_every_batches = 0;
  size_t eval_entities = 2000;
  size_t oracle_facts = 400;
  size_t oracle_absent = 40;
  size_t probe_entities = 2000;
  uint64_t split_queries = 20000;
};

Params MakeParams(Kind kind, int seconds, bool tiny) {
  const double s = static_cast<double>(seconds);
  Params p;
  switch (kind) {
    case Kind::kServeCold:
      p.setup_reps = 6;
      p.refit_reps = 3;
      p.clients = 3;
      p.rate_per_client = 4000.0;
      p.open_seconds = 0.5 * s;
      p.closed_per_client = static_cast<uint64_t>(7000.0 * s);
      break;
    case Kind::kServeIngest:
      p.stream_share = 0.1;
      p.stream_batches = 9;
      p.stream_flush_every = 3;
      p.refit_every_batches = 3;
      p.setup_reps = 6;
      p.refit_reps = 8;
      p.clients = 2;
      p.rate_per_client = 8000.0;
      p.writer_seconds = s;
      p.open_seconds = 0.7 * s;
      p.hot_entities = 64;
      p.hot_share = 0.9;
      break;
  }
  if (tiny) {
    p.movies /= 10;
    p.setup_reps = 2;
    p.refit_reps = 1;
    p.iterations = 20;
    p.boot_batch_rows = 512;
    p.warmup_per_client /= 20;
    p.eval_entities = 200;
    p.oracle_facts = 60;
    p.oracle_absent = 10;
    p.probe_entities = 200;
    p.split_queries = 2000;
    p.hot_entities = std::min<size_t>(p.hot_entities, 16);
  }
  return p;
}

// ---------------------------------------------------------------- world

struct World {
  Dataset data;  ///< The whole world, every fact labeled.
  std::vector<RawDatabase> boot_batches;
  std::vector<RawDatabase> stream_batches;
  uint64_t boot_rows = 0;
  uint64_t stream_rows = 0;
  size_t stream_batch_rows = 0;  ///< Rows of the smallest stream batch.
  uint64_t boot_bytes = 0;    ///< entity+attribute+source bytes
  uint64_t stream_bytes = 0;
  ltm::LtmOptions ltm;
};

/// Splits `raw` into `count` batches whose sizes differ by at most one row.
std::vector<RawDatabase> Batches(const RawDatabase& raw, size_t count,
                                 uint64_t* bytes) {
  std::vector<RawDatabase> out;
  const size_t n = raw.NumRows();
  size_t i = 0;
  for (const ltm::RawRow& row : raw.rows()) {
    if (out.size() <= i++ * count / n) out.emplace_back();
    const std::string_view e = raw.entities().Get(row.entity);
    const std::string_view a = raw.attributes().Get(row.attribute);
    const std::string_view src = raw.sources().Get(row.source);
    out.back().Add(e, a, src);
    *bytes += e.size() + a.size() + src.size();
  }
  return out;
}

std::unique_ptr<World> MakeWorld(const Params& p, uint64_t seed) {
  auto world = std::make_unique<World>();
  ltm::synth::MovieSimOptions gen;
  gen.num_movies = p.movies;
  gen.seed = MixSeed(seed, 1);
  world->data = ltm::synth::GenerateMovieDataset(gen);

  const RawDatabase* history = &world->data.raw;
  Dataset held_history;
  Dataset stream;
  if (p.stream_share > 0.0) {
    const size_t n = world->data.raw.NumEntities();
    const size_t take = static_cast<size_t>(p.stream_share * n);
    const std::vector<ltm::EntityId> ids =
        ltm::synth::SampleEntities(world->data, take, MixSeed(seed, 2));
    std::tie(held_history, stream) = world->data.SplitByEntities(ids);
    history = &held_history.raw;
    world->stream_rows = stream.raw.NumRows();
    world->stream_batch_rows = world->stream_rows / p.stream_batches;
    world->stream_batches =
        Batches(stream.raw, p.stream_batches, &world->stream_bytes);
  }
  world->boot_batches = Batches(
      *history, (history->NumRows() + p.boot_batch_rows - 1) / p.boot_batch_rows,
      &world->boot_bytes);
  world->boot_rows = history->NumRows();

  world->ltm = ltm::LtmOptions::ScaledDefaults(world->data.facts.NumFacts());
  world->ltm.iterations = p.iterations;
  world->ltm.burnin = p.iterations / 5;
  world->ltm.sample_gap = 4;
  world->ltm.seed = MixSeed(seed, 3);
  world->ltm.kernel = ltm::LtmKernel::kFused;
  return world;
}

/// Epochs between background refit triggers: half a (smallest) batch
/// short of refit_every_batches batches, so each trigger lands on one
/// batch boundary with half a batch of margin for the rows by which
/// batches differ and the epochs that flush and compaction commits add.
/// 0 disables the scheduler.
uint64_t RefitDebounce(const Params& p, const World& world) {
  if (p.refit_every_batches == 0) return 0;
  return p.refit_every_batches * world.stream_batch_rows -
         world.stream_batch_rows / 2;
}

/// The background refits the stream must trigger: one each time the
/// rows appended since the last trigger reach the debounce.
uint64_t ExpectedRefits(const Params& p, const World& world) {
  const uint64_t debounce = RefitDebounce(p, world);
  if (debounce == 0) return 0;
  uint64_t refits = 0;
  uint64_t since = 0;
  for (const RawDatabase& batch : world.stream_batches) {
    since += batch.NumRows();
    if (since >= debounce) {
      ++refits;
      since = 0;
    }
  }
  return refits;
}

// ----------------------------------------------------------- write path

Clock::time_point After(Clock::time_point t, double seconds) {
  return t + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(seconds));
}

/// What one count-scheduled write stream did and how long its calls took.
struct WriteLog {
  std::vector<double> append_us;  ///< One per durable AppendRaw batch.
  double busy_s = 0.0;  ///< Summed wall time of every call.
  double flush_s = 0.0;
  double compact_s = 0.0;
  uint64_t rows = 0;
  uint64_t user_bytes = 0;
  uint64_t flush_calls = 0;
  uint64_t compact_calls = 0;
  uint64_t flush_segment_bytes = 0;  ///< Measured only when traced.
  double compaction_bytes_written = 0.0;
  double flushes = 0.0;       ///< ltm_store_flushes_total delta
  double compactions = 0.0;   ///< ltm_store_compactions_total delta
  Clock::time_point last_commit;  ///< End of the last AppendRaw.
  Status status;
};

std::map<std::string, uint64_t> SegmentFiles(const std::string& dir) {
  std::map<std::string, uint64_t> out;
  std::error_code ec;
  for (auto it = fs::recursive_directory_iterator(dir, ec);
       !ec && it != fs::recursive_directory_iterator(); it.increment(ec)) {
    if (it->is_regular_file(ec) &&
        it->path().filename().string().rfind("seg-", 0) == 0) {
      out[it->path().string()] = it->file_size(ec);
    }
  }
  return out;
}

/// Appends `batches` as durable group commits, with one Flush and one
/// CompactOnce after every `flush_every` batches and after the last. With
/// `pace_s` > 0 batch b is due at start + b * pace_s / batches (the
/// writer sleeps; it is not a latency-measuring thread). Every call is
/// followed by a refit-scheduler notification when a session is given;
/// `after_last_append` runs between the last append and its flush.
void WriteStream(TruthStoreBase* store, ServeSession* session,
                 const std::vector<RawDatabase>& batches, size_t flush_every,
                 uint64_t user_bytes, Clock::time_point start, double pace_s,
                 bool traced, WriteLog* log,
                 const std::function<void()>& after_last_append = nullptr) {
  const RegistryView before(*store->metrics());
  log->user_bytes = user_bytes;
  const double interval =
      batches.empty() ? 0.0 : pace_s / static_cast<double>(batches.size());
  auto notify = [&] {
    if (session != nullptr) (void)session->NotifyIngest();  // shed is counted
  };
  for (size_t b = 0; b < batches.size() && log->status.ok(); ++b) {
    if (pace_s > 0.0) std::this_thread::sleep_until(After(start, interval * b));
    Clock::time_point t0 = Clock::now();
    {
      ltm::obs::ObsSpan span("bench.append_raw");
      log->status = store->AppendRaw(batches[b]);
    }
    Clock::time_point t1 = Clock::now();
    log->append_us.push_back(MicrosBetween(t0, t1));
    log->busy_s += SecondsBetween(t0, t1);
    log->rows += batches[b].NumRows();
    log->last_commit = t1;
    notify();
    if (!log->status.ok()) break;
    const bool last = b + 1 == batches.size();
    if (last && after_last_append) after_last_append();
    if ((b + 1) % flush_every != 0 && !last) continue;
    std::map<std::string, uint64_t> segs_before;
    if (traced) segs_before = SegmentFiles(store->dir());
    t0 = Clock::now();
    {
      ltm::obs::ObsSpan span("bench.flush");
      log->status = store->Flush();
    }
    t1 = Clock::now();
    log->flush_s += SecondsBetween(t0, t1);
    log->busy_s += SecondsBetween(t0, t1);
    ++log->flush_calls;
    if (traced) {
      for (const auto& [path, size] : SegmentFiles(store->dir())) {
        if (segs_before.count(path) == 0) log->flush_segment_bytes += size;
      }
    }
    notify();
    if (!log->status.ok()) break;
    t0 = Clock::now();
    ltm::Result<bool> compacted = [&] {
      ltm::obs::ObsSpan span("bench.compact_once");
      return store->CompactOnce();
    }();
    t1 = Clock::now();
    log->compact_s += SecondsBetween(t0, t1);
    log->busy_s += SecondsBetween(t0, t1);
    ++log->compact_calls;
    if (!compacted.ok()) log->status = compacted.status();
    notify();
  }
  const RegistryView after(*store->metrics());
  log->flushes = after.Sum("ltm_store_flushes_total") -
                 before.Sum("ltm_store_flushes_total");
  log->compactions = after.Sum("ltm_store_compactions_total") -
                     before.Sum("ltm_store_compactions_total");
  log->compaction_bytes_written =
      after.Sum("ltm_store_compaction_bytes_written_total") -
      before.Sum("ltm_store_compaction_bytes_written_total");
}

// --------------------------------------------------------------- set-up

/// One store + pipeline (+ session) instance. Members are destroyed in
/// reverse dependency order: session, pipeline, store, registry, files.
struct Engine {
  std::string dir;
  std::unique_ptr<ltm::obs::MetricsRegistry> registry;
  std::unique_ptr<TruthStoreBase> store;
  std::unique_ptr<ltm::ext::StreamingPipeline> pipeline;
  std::unique_ptr<ServeSession> session;

  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;
  ~Engine() {
    session.reset();
    pipeline.reset();
    store.reset();
    registry.reset();
    std::error_code ec;
    fs::remove_all(dir, ec);
  }
};

struct SetUpResult {
  std::unique_ptr<World> world;
  std::unique_ptr<Engine> engine;
  WriteLog boot_log;
  double seconds = 0.0;
  uint64_t boot_store_bytes = 0;
  Status status;
};

/// World generation, bootstrap ingest, bootstrap fit and session
/// creation: everything before the first timed operation.
SetUpResult SetUpOnce(const Params& p, const RunConfig& cfg, int rep,
                      ltm::ThreadPool* refit_pool) {
  SetUpResult out;
  const Clock::time_point start = Clock::now();
  ltm::obs::ObsSpan span("bench.setup");
  out.world = MakeWorld(p, cfg.seed);

  auto engine = std::make_unique<Engine>();
  engine->dir = cfg.workdir + "/store-" + cfg.workload + "-" +
                std::to_string(rep);
  std::error_code ec;
  fs::remove_all(engine->dir, ec);
  engine->registry = std::make_unique<ltm::obs::MetricsRegistry>();
  ltm::store::PartitionedStoreOptions options;
  options.partitions = 1;
  options.store.metrics = engine->registry.get();
  auto opened = ltm::store::PartitionedTruthStore::Open(engine->dir, options);
  if (!opened.ok()) {
    out.status = opened.status();
    return out;
  }
  engine->store = std::move(*opened);

  WriteStream(engine->store.get(), nullptr, out.world->boot_batches,
              kBootFlushEvery, out.world->boot_bytes, Clock::now(), 0.0,
              cfg.trace, &out.boot_log);
  if (!out.boot_log.status.ok()) {
    out.status = out.boot_log.status;
    return out;
  }
  out.boot_store_bytes = DirectoryBytes(engine->dir);

  ltm::ext::StreamingOptions stream_options;
  stream_options.ltm = out.world->ltm;
  stream_options.refit_every_chunks = 0;
  engine->pipeline =
      std::make_unique<ltm::ext::StreamingPipeline>(stream_options);
  ltm::RunContext ctx;
  ctx.metrics = engine->registry.get();
  {
    ltm::obs::ObsSpan fit_span("bench.bootstrap_from_store");
    out.status = engine->pipeline->BootstrapFromStore(engine->store.get(), ctx);
  }
  if (!out.status.ok()) return out;

  ltm::serve::ServeOptions serve_options;
  serve_options.refit_debounce_epochs = RefitDebounce(p, *out.world);
  // Deep enough that no trigger is ever shed: every writer call past the
  // debounce queues one while a refit runs, so a shallow queue would
  // make the shed count depend on how long each refit takes.
  serve_options.refit_queue = 4 * (out.world->stream_batches.size() + 1);
  auto session = ServeSession::Create(engine->pipeline.get(), serve_options,
                                      refit_pool);
  if (!session.ok()) {
    out.status = session.status();
    return out;
  }
  engine->session = std::move(*session);
  out.engine = std::move(engine);
  out.seconds = SecondsBetween(start, Clock::now());
  return out;
}

// -------------------------------------------------------------- serving

struct QueryMix {
  std::vector<FactRef> all;  ///< Every fact of the world.
  std::vector<FactRef> hot;  ///< Facts of the hot entities (may be empty).
  double hot_share = 0.0;
};

QueryMix MakeQueryMix(const World& world, const Params& p, uint64_t seed) {
  QueryMix mix;
  const Dataset& d = world.data;
  std::vector<bool> is_hot(d.raw.NumEntities(), false);
  if (p.hot_entities > 0) {
    for (const ltm::EntityId e :
         ltm::synth::SampleEntities(d, p.hot_entities, MixSeed(seed, 4))) {
      is_hot[e] = true;
    }
  }
  for (ltm::FactId f = 0; f < d.facts.NumFacts(); ++f) {
    const ltm::Fact& fact = d.facts.fact(f);
    FactRef ref{std::string(d.raw.entities().Get(fact.entity)),
                std::string(d.raw.attributes().Get(fact.attribute))};
    if (is_hot[fact.entity]) mix.hot.push_back(ref);
    mix.all.push_back(std::move(ref));
  }
  mix.hot_share = mix.hot.empty() ? 0.0 : p.hot_share;
  return mix;
}

/// A reproducible query sequence for one client.
class QueryPicker {
 public:
  QueryPicker(const QueryMix& mix, uint64_t seed) : mix_(mix), rng_(seed) {}
  const FactRef& Next() {
    if (mix_.hot_share > 0.0 && unit_(rng_) < mix_.hot_share) {
      return mix_.hot[rng_() % mix_.hot.size()];
    }
    return mix_.all[rng_() % mix_.all.size()];
  }

 private:
  const QueryMix& mix_;
  std::mt19937_64 rng_;
  std::uniform_real_distribution<double> unit_{0.0, 1.0};
};

/// The open-loop schedule all clients serve together: query i is due at
/// start + i * interval_s and goes to whichever client is free. A client
/// thread that is descheduled then delays only the query it holds, so
/// the generator adds little of its own to the tail, while a stall in
/// the program, which holds every client, still delays every query due
/// during it.
struct OpenSchedule {
  std::vector<const FactRef*> queries;
  double interval_s = 0.0;
  std::atomic<uint64_t> next{0};
  /// Per query, written once by the client that claimed it: latency from
  /// the due time (NaN when the query failed) and send lateness.
  std::vector<double> latency_us;
  std::vector<double> late_us;
};

/// Open-loop latency percentiles are taken per window of this many
/// consecutive due times (each window holds at least 1000 samples at
/// every size the benchmark runs) and reported as the median window.
/// On serve_ingest every writer call holds the store lock that each
/// Query takes; with 40 windows the at most 9 calls of the open loop
/// leave most windows free of them, so whether the disk's fsync was
/// slow in a run does not decide the reported p99.
constexpr size_t kLatencyWindows = 40;

/// Closed-loop completions are counted in buckets of this length from
/// the closed-loop start; capacity is the median throughput over
/// kCapacityWindows equal windows of the loop's duration.
constexpr double kCapacityBucketSeconds = 1e-4;
constexpr size_t kCapacityWindows = 20;

/// One client's closed-loop script, timed from the shared start: a
/// warm-up of `warmup_count` queries before the start, then (after the
/// open-loop schedule ran out) `closed_count` queries from
/// `closed_offset_s`, or queries until `closed_stop` is set.
struct ClientPlan {
  uint64_t warmup_count = 0;
  double closed_offset_s = 0.0;
  uint64_t closed_count = 0;
  const std::atomic<bool>* closed_stop = nullptr;
};

struct ClientTally {
  uint64_t attempted = 0;
  uint64_t failed = 0;  ///< Errors plus shed.
  uint64_t closed_queries = 0;
  /// Closed-loop queries that succeeded within the latency limit, per
  /// completion-time bucket.
  std::vector<uint64_t> closed_ok_per_bucket;
  Clock::time_point closed_end;
};

/// Publishes one start time once every client finished its warm-up, so
/// caches are filled and threads placed before anything is timed.
class StartGate {
 public:
  explicit StartGate(size_t clients) : waiting_(clients) {}

  /// Client side: arrive, then busy-wait for the shared start.
  Clock::time_point Arrive() {
    if (waiting_.fetch_sub(1) == 1) {
      start_ns_.store(After(Clock::now(), kSettleSeconds)
                          .time_since_epoch()
                          .count());
    }
    int64_t ns = 0;
    while ((ns = start_ns_.load()) == 0) {
#if defined(__x86_64__) || defined(__i386__)
      __builtin_ia32_pause();
#endif
    }
    return Clock::time_point(Clock::duration(ns));
  }

  /// Calling thread: sleep until the start is published.
  Clock::time_point Wait() const {
    int64_t ns = 0;
    while ((ns = start_ns_.load()) == 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    return Clock::time_point(Clock::duration(ns));
  }

 private:
  /// Spinning clients settle on their CPUs before the first due time.
  static constexpr double kSettleSeconds = 0.5;
  std::atomic<size_t> waiting_;
  std::atomic<int64_t> start_ns_{0};
};

bool Ask(ServeSession* session, const FactRef& fact, ClientTally* tally) {
  ++tally->attempted;
  ltm::obs::ObsSpan span("bench.query");
  const ltm::Result<double> r = session->Query(fact);
  if (!r.ok()) ++tally->failed;
  return r.ok();
}

void RunClient(ServeSession* session, const QueryMix& mix, uint64_t seed,
               const ClientPlan& plan, OpenSchedule* schedule, StartGate* gate,
               ClientTally* tally) {
  QueryPicker picker(mix, seed);
  for (uint64_t i = 0; i < plan.warmup_count; ++i) {
    ClientTally warmup;
    Ask(session, picker.Next(), &warmup);
    tally->attempted += warmup.attempted;
    tally->failed += warmup.failed;
  }
  const Clock::time_point start = gate->Arrive();
  const uint64_t n = schedule->queries.size();
  for (;;) {
    // Claim query i only once it is due, so a client that loses its CPU
    // while waiting holds no query back: another client takes it.
    uint64_t i = schedule->next.load(std::memory_order_acquire);
    if (i >= n) break;
    const Clock::time_point due = After(start, schedule->interval_s * i);
    Clock::time_point sent = Clock::now();
    if (sent < due) {
#if defined(__x86_64__) || defined(__i386__)
      __builtin_ia32_pause();
#endif
      continue;
    }
    if (!schedule->next.compare_exchange_weak(i, i + 1,
                                              std::memory_order_acq_rel)) {
      continue;
    }
    sent = Clock::now();
    const bool ok = Ask(session, *schedule->queries[i], tally);
    const Clock::time_point done = Clock::now();
    schedule->latency_us[i] =
        ok ? MicrosBetween(due, done) : std::numeric_limits<double>::quiet_NaN();
    schedule->late_us[i] = MicrosBetween(due, sent);
  }
  const Clock::time_point closed_start = After(start, plan.closed_offset_s);
  SpinUntil(closed_start);
  for (uint64_t i = 0;; ++i) {
    if (plan.closed_stop != nullptr) {
      if (plan.closed_stop->load(std::memory_order_acquire)) break;
    } else if (i >= plan.closed_count) {
      break;
    }
    const FactRef& fact = picker.Next();
    const Clock::time_point sent = Clock::now();
    const bool ok = Ask(session, fact, tally);
    const Clock::time_point done = Clock::now();
    ++tally->closed_queries;
    if (ok && MicrosBetween(sent, done) <= kLatencyLimitUs) {
      const size_t bucket = static_cast<size_t>(
          SecondsBetween(closed_start, done) / kCapacityBucketSeconds);
      if (bucket >= tally->closed_ok_per_bucket.size()) {
        tally->closed_ok_per_bucket.resize(bucket + 1, 0);
      }
      ++tally->closed_ok_per_bucket[bucket];
    }
  }
  tally->closed_end = Clock::now();
}

/// Everything the serving phases measured.
struct ServeResult {
  std::vector<double> latency_us;  ///< Successful open-loop queries.
  std::vector<double> late_us;
  std::vector<double> p50_us;  ///< One per latency window.
  std::vector<double> p99_us;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t closed_queries = 0;
  std::vector<double> capacity_qps;  ///< One per capacity window.
  RegistryView before;  ///< At the shared start (after warm-up).
  RegistryView after;
};

/// The serving phases: p.clients threads warm up, serve the open-loop
/// schedule at p.clients * p.rate_per_client queries/s for
/// p.open_seconds, then run closed loops. With a `writer`, the calling
/// thread runs it from the shared start and the closed loops last until
/// it returns; otherwise each client runs p.closed_per_client queries.
ServeResult Serve(Engine* engine, const QueryMix& mix, const Params& p,
                  uint64_t seed,
                  const std::function<void(Clock::time_point)>& writer) {
  // The calling thread (the writer, if any) moves off the clients' CPUs
  // for the phase and back to the first CPU after it.
  PinToCpu(p.clients);
  OpenSchedule schedule;
  const double rate = p.clients * p.rate_per_client;
  schedule.interval_s = 1.0 / rate;
  QueryPicker open_picker(mix, MixSeed(seed, 99));
  const uint64_t open_count = static_cast<uint64_t>(p.open_seconds * rate);
  for (uint64_t i = 0; i < open_count; ++i) {
    schedule.queries.push_back(&open_picker.Next());
  }
  schedule.latency_us.assign(open_count, 0.0);
  schedule.late_us.assign(open_count, 0.0);
  std::atomic<bool> closed_stop{false};
  ClientPlan plan;
  plan.warmup_count = p.warmup_per_client;
  plan.closed_offset_s = p.open_seconds + 0.02;
  plan.closed_count = p.closed_per_client;
  plan.closed_stop = writer ? &closed_stop : nullptr;

  ServeResult out;
  StartGate gate(p.clients);
  std::vector<ClientTally> tallies(p.clients);
  std::vector<std::thread> threads;
  for (int c = 0; c < p.clients; ++c) {
    threads.emplace_back([&, c] {
      // One CPU per spinning client: the scheduler's load balancer is
      // slow to separate two busy threads that start on one CPU, and
      // while they share it each runs in 4 ms slices.
      PinToCpu(c);
      RunClient(engine->session.get(), mix, MixSeed(seed, 100 + c), plan,
                &schedule, &gate, &tallies[c]);
    });
  }
  const Clock::time_point start = gate.Wait();
  out.before = RegistryView(*engine->registry);
  Clock::time_point closed_end;
  if (writer) {
    writer(start);
    closed_end = Clock::now();
    closed_stop.store(true, std::memory_order_release);
  }
  for (std::thread& t : threads) t.join();
  out.after = RegistryView(*engine->registry);
  PinToCpu(0);

  std::vector<uint64_t> closed_ok;
  for (const ClientTally& t : tallies) {
    out.attempted += t.attempted;
    out.failed += t.failed;
    out.closed_queries += t.closed_queries;
    if (t.closed_ok_per_bucket.size() > closed_ok.size()) {
      closed_ok.resize(t.closed_ok_per_bucket.size(), 0);
    }
    for (size_t b = 0; b < t.closed_ok_per_bucket.size(); ++b) {
      closed_ok[b] += t.closed_ok_per_bucket[b];
    }
    if (!writer) closed_end = std::max(closed_end, t.closed_end);
  }
  // Capacity and latency per window, so one burst of host noise moves
  // one window.
  const double closed_s =
      SecondsBetween(After(start, plan.closed_offset_s), closed_end);
  const size_t buckets = static_cast<size_t>(closed_s / kCapacityBucketSeconds);
  const size_t window_buckets = buckets / kCapacityWindows;
  for (size_t w = 0; w < kCapacityWindows && window_buckets > 0; ++w) {
    uint64_t ok = 0;
    for (size_t b = w * window_buckets;
         b < (w + 1) * window_buckets && b < closed_ok.size(); ++b) {
      ok += closed_ok[b];
    }
    out.capacity_qps.push_back(ok / (window_buckets * kCapacityBucketSeconds));
  }
  const size_t per_window = open_count / kLatencyWindows;
  for (size_t w = 0; w < kLatencyWindows && per_window > 0; ++w) {
    std::vector<double> window;
    for (size_t i = w * per_window; i < (w + 1) * per_window; ++i) {
      if (!std::isnan(schedule.latency_us[i])) {
        window.push_back(schedule.latency_us[i]);
      }
    }
    out.p50_us.push_back(Quantile(&window, 0.50));
    out.p99_us.push_back(Quantile(&window, 0.99));
  }
  for (uint64_t i = 0; i < open_count; ++i) {
    if (!std::isnan(schedule.latency_us[i])) {
      out.latency_us.push_back(schedule.latency_us[i]);
    }
  }
  out.late_us = std::move(schedule.late_us);
  return out;
}

// ---------------------------------------------------------- correctness

/// Eq. 3 for every stored fact, computed without the serving path: one
/// full Materialize(), the installed quality remapped by source name,
/// and LtmIncremental over the whole claim graph.
ltm::Result<std::unordered_map<std::string, double>> OraclePosteriors(
    Engine* engine) {
  LTM_ASSIGN_OR_RETURN(const Dataset full, engine->store->Materialize());
  const ltm::ext::StreamingPipeline& pipeline = *engine->pipeline;
  const ltm::LtmOptions& options = pipeline.options().ltm;
  const ltm::SourceQuality& fitted = pipeline.quality();
  ltm::SourceQuality q;
  const size_t n = full.raw.NumSources();
  q.sensitivity.assign(n, options.alpha1.Mean());
  q.specificity.assign(n, 1.0 - options.alpha0.Mean());
  q.precision.assign(n, 0.0);
  q.accuracy.assign(n, 0.0);
  q.expected_counts.resize(n);
  for (ltm::SourceId s = 0; s < n; ++s) {
    const auto id = pipeline.cumulative_sources().Find(full.raw.sources().Get(s));
    if (id.has_value() && *id < fitted.NumSources()) {
      q.sensitivity[s] = fitted.sensitivity[*id];
      q.specificity[s] = fitted.specificity[*id];
    }
  }
  const ltm::LtmIncremental scorer(std::move(q), options);
  LTM_ASSIGN_OR_RETURN(const ltm::TruthResult result,
                       scorer.Run(ltm::RunContext(), full.facts, full.graph));
  std::unordered_map<std::string, double> out;
  out.reserve(full.facts.NumFacts());
  for (ltm::FactId f = 0; f < full.facts.NumFacts(); ++f) {
    const ltm::Fact& fact = full.facts.fact(f);
    std::string key(full.raw.entities().Get(fact.entity));
    key += '\t';
    key += full.raw.attributes().Get(fact.attribute);
    out.emplace(std::move(key), result.estimate.probability[f]);
  }
  return out;
}

/// Absolute tolerance between a served posterior and the oracle's. The
/// two sum the same log terms, possibly in another order.
constexpr double kAnswerTolerance = 1e-9;

/// Queries a seeded sample of facts, plus facts that have no claims,
/// and compares every answer with the oracle. Returns the answers checked.
uint64_t CheckAnswers(Engine* engine, const QueryMix& mix, const Params& p,
                      uint64_t seed, Report* report) {
  const auto oracle = OraclePosteriors(engine);
  if (!oracle.ok()) {
    report->Fail("oracle materialize: " + oracle.status().ToString());
    return 0;
  }
  std::mt19937_64 rng(MixSeed(seed, 5));
  std::vector<FactRef> sample;
  for (size_t i = 0; i < p.oracle_facts; ++i) {
    sample.push_back(mix.all[rng() % mix.all.size()]);
  }
  for (size_t i = 0; i < p.oracle_absent; ++i) {
    const FactRef& known = mix.all[rng() % mix.all.size()];
    // A known entity with an attribute nobody claimed, and an unknown
    // entity: both must score at the beta prior mean.
    sample.push_back(FactRef{known.entity, "director_unclaimed_" + std::to_string(i)});
    sample.push_back(FactRef{"movie_unknown_" + std::to_string(i), known.attribute});
  }
  const double prior = engine->pipeline->options().ltm.beta.Mean();
  uint64_t wrong = 0;
  for (const FactRef& fact : sample) {
    const ltm::Result<double> served = engine->session->Query(fact);
    const auto it = oracle->find(fact.entity + "\t" + fact.attribute);
    const double expected = it == oracle->end() ? prior : it->second;
    if (!served.ok() || std::fabs(*served - expected) > kAnswerTolerance) {
      if (wrong++ < 5) {
        std::fprintf(stderr, "perfbench: wrong answer for (%s, %s): %s vs %.17g\n",
                     fact.entity.c_str(), fact.attribute.c_str(),
                     served.ok() ? std::to_string(*served).c_str()
                                 : served.status().ToString().c_str(),
                     expected);
      }
    }
  }
  if (wrong > 0) {
    report->Fail(std::to_string(wrong) + " of " + std::to_string(sample.size()) +
                 " answers differ from the Eq. 3 oracle");
  }
  return sample.size();
}

/// AUC of served posteriors over every fact of a seeded entity sample.
double ServedAuc(Engine* engine, const World& world, const Params& p,
                 uint64_t seed, uint64_t* facts_scored, Report* report) {
  const Dataset& d = world.data;
  const std::vector<ltm::EntityId> entities = ltm::synth::SampleEntities(
      d, std::min(p.eval_entities, d.raw.NumEntities()), MixSeed(seed, 6));
  const ltm::TruthLabels labels = ltm::synth::LabelsForEntities(d, entities);
  std::vector<double> prob(d.facts.NumFacts(), 0.5);
  for (const ltm::FactId f : labels.LabeledFacts()) {
    const ltm::Fact& fact = d.facts.fact(f);
    const ltm::Result<double> r = engine->session->Query(
        FactRef{std::string(d.raw.entities().Get(fact.entity)),
                std::string(d.raw.attributes().Get(fact.attribute))});
    if (!r.ok()) {
      report->Fail("AUC query: " + r.status().ToString());
      return 0.0;
    }
    prob[f] = *r;
  }
  *facts_scored = labels.NumLabeled();
  return ltm::AucScore(prob, labels);
}

// ------------------------------------------------------- refit and probes

struct RefitResult {
  std::vector<double> seconds;  ///< One per RefitFromStore call.
  std::vector<double> installed_s;  ///< The same plus its quality install.
  double sweeps_s = 0.0;
  double sweep_ms_p50 = 0.0;
  uint64_t sweeps = 0;  ///< Per refit.
  Status status;
};

/// Median of the log2-bucketed sweep histogram's samples recorded since
/// `before` (bucket-interpolated the same way the registry does).
double HistogramDeltaMedianUs(const ltm::obs::Histogram& h,
                              const std::vector<uint64_t>& before) {
  std::vector<uint64_t> delta(ltm::obs::Histogram::kBuckets);
  uint64_t total = 0;
  for (int b = 0; b < ltm::obs::Histogram::kBuckets; ++b) {
    delta[b] = h.BucketCount(b) - before[b];
    total += delta[b];
  }
  if (total == 0) return 0.0;
  const double target = 0.5 * static_cast<double>(total);
  double seen = 0.0;
  for (int b = 0; b < ltm::obs::Histogram::kBuckets; ++b) {
    if (delta[b] == 0) continue;
    if (seen + delta[b] >= target) {
      const double lo = static_cast<double>(uint64_t{1} << b);
      return lo * (1.0 + (target - seen) / static_cast<double>(delta[b]));
    }
    seen += static_cast<double>(delta[b]);
  }
  return 0.0;
}

/// `reps` full RefitFromStore calls at fixed sweeps, each followed by the
/// quality install; `sweeps_s` is the sweep time of one call.
RefitResult Refit(Engine* engine, int reps) {
  RefitResult out;
  ltm::obs::Histogram* sweeps =
      engine->registry->histogram("ltm_infer_sweep_micros");
  std::vector<uint64_t> buckets(ltm::obs::Histogram::kBuckets);
  for (int b = 0; b < ltm::obs::Histogram::kBuckets; ++b) {
    buckets[b] = sweeps->BucketCount(b);
  }
  const uint64_t sum_before = sweeps->Sum();
  const uint64_t count_before = sweeps->Count();
  ltm::RunContext ctx;
  ctx.metrics = engine->registry.get();
  for (int r = 0; r < reps && out.status.ok(); ++r) {
    const Clock::time_point t0 = Clock::now();
    {
      ltm::obs::ObsSpan span("bench.refit_from_store");
      out.status = engine->pipeline->RefitFromStore(ctx).status();
    }
    out.seconds.push_back(SecondsBetween(t0, Clock::now()));
    if (out.status.ok()) out.status = engine->session->RefreshQuality();
    out.installed_s.push_back(SecondsBetween(t0, Clock::now()));
  }
  out.sweeps = (sweeps->Count() - count_before) / reps;
  out.sweeps_s = static_cast<double>(sweeps->Sum() - sum_before) / 1e6 / reps;
  out.sweep_ms_p50 = HistogramDeltaMedianUs(*sweeps, buckets) / 1e3;
  return out;
}

/// Waits until the background refit scheduler has nothing running or
/// queued. False after 120 s.
bool WaitSchedulerIdle(Engine* engine) {
  const Clock::time_point limit = Clock::now() + std::chrono::seconds(120);
  while (Clock::now() < limit) {
    const RegistryView v(*engine->registry);
    if (v.Sum("ltm_serve_refit_in_flight") == 0 &&
        v.Sum("ltm_serve_refit_queue_depth") == 0) {
      return true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return false;
}

struct StoreProbe {
  double pin_p50_us = 0.0;
  double read_p50_us = 0.0;
  double blocks_per_read = 0.0;
  uint64_t reads = 0;
  double materialize_s = 0.0;
  double graph_build_s = 0.0;
  uint64_t claims = 0;
};

/// Times the store's read calls directly: PinSnapshot(e, e) and
/// MaterializeSnapshot over a seeded entity sample, then one full
/// Materialize() and the Dataset build a refit runs on its rows.
StoreProbe ProbeStore(Engine* engine, const World& world, const Params& p,
                      uint64_t seed, Report* report) {
  StoreProbe out;
  const ltm::store::TruthStoreBase& store = *engine->store;
  const size_t n = std::min(p.probe_entities, world.data.raw.NumEntities());
  std::vector<double> pin_us;
  std::vector<double> read_us;
  uint64_t blocks = 0;
  for (const ltm::EntityId e :
       ltm::synth::SampleEntities(world.data, n, MixSeed(seed, 7))) {
    const std::string entity(world.data.raw.entities().Get(e));
    const Clock::time_point t0 = Clock::now();
    std::unique_ptr<ltm::store::StorePin> pin;
    {
      ltm::obs::ObsSpan span("bench.pin_snapshot");
      pin = store.PinSnapshot(&entity, &entity);
    }
    const Clock::time_point t1 = Clock::now();
    ltm::store::RangeScanStats stats;
    ltm::Result<Dataset> slice = [&] {
      ltm::obs::ObsSpan span("bench.materialize_snapshot");
      return store.MaterializeSnapshot(*pin, &entity, &entity, &stats);
    }();
    const Clock::time_point t2 = Clock::now();
    if (!slice.ok()) {
      report->Fail("point read: " + slice.status().ToString());
      return out;
    }
    pin_us.push_back(MicrosBetween(t0, t1));
    read_us.push_back(MicrosBetween(t1, t2));
    blocks += stats.blocks_read;
  }
  out.reads = read_us.size();
  out.pin_p50_us = Median(pin_us);
  out.read_p50_us = Median(read_us);
  out.blocks_per_read =
      out.reads ? static_cast<double>(blocks) / static_cast<double>(out.reads)
                : 0.0;

  Clock::time_point t0 = Clock::now();
  ltm::Result<Dataset> full = [&] {
    ltm::obs::ObsSpan span("bench.materialize");
    return store.Materialize();
  }();
  out.materialize_s = SecondsBetween(t0, Clock::now());
  if (!full.ok()) {
    report->Fail("materialize: " + full.status().ToString());
    return out;
  }
  RawDatabase rows = full->raw;
  t0 = Clock::now();
  const Dataset built = [&] {
    ltm::obs::ObsSpan span("bench.graph_build");
    return Dataset::FromRaw("refit", std::move(rows));
  }();
  out.graph_build_s = SecondsBetween(t0, Clock::now());
  out.claims = built.graph.NumClaims();
  return out;
}

struct HitMissSplit {
  double hit_p50_us = 0.0;
  double miss_p50_us = 0.0;
  uint64_t hits = 0;
  uint64_t misses = 0;
  double refresh_ms = 0.0;  ///< Median RefreshQuality over a warm cache.
};

/// Single-client pass over the workload's query mix that files each
/// Query's latency under hit or miss by whether the posterior-cache miss
/// counter advanced during the call. The pass runs in kRefreshes rounds,
/// each ended by a timed RefreshQuality that clears the cache the round
/// filled, so every round starts cold and sees both modes.
HitMissSplit SplitHitMiss(Engine* engine, const QueryMix& mix, const Params& p,
                          uint64_t seed) {
  constexpr int kRefreshes = 10;
  ltm::obs::Counter* misses =
      engine->registry->counter("ltm_cache_posterior_misses_total");
  QueryPicker picker(mix, MixSeed(seed, 8));
  std::vector<double> hit_us;
  std::vector<double> miss_us;
  std::vector<double> refresh_ms;
  for (int round = 0; round < kRefreshes; ++round) {
    Clock::time_point t0 = Clock::now();
    {
      ltm::obs::ObsSpan span("bench.refresh_quality");
      (void)engine->session->RefreshQuality();
    }
    refresh_ms.push_back(MicrosBetween(t0, Clock::now()) / 1e3);
    for (uint64_t i = 0; i < p.split_queries / kRefreshes; ++i) {
      const FactRef& fact = picker.Next();
      const uint64_t before = misses->Value();
      t0 = Clock::now();
      const ltm::Result<double> r = engine->session->Query(fact);
      const double us = MicrosBetween(t0, Clock::now());
      if (!r.ok()) continue;
      (misses->Value() != before ? miss_us : hit_us).push_back(us);
    }
  }
  HitMissSplit out;
  out.hits = hit_us.size();
  out.misses = miss_us.size();
  out.hit_p50_us = Median(hit_us);
  out.miss_p50_us = Median(miss_us);
  out.refresh_ms = Median(refresh_ms);
  return out;
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

bool IsWorkload(const std::string& name) {
  return name == "serve_cold" || name == "serve_ingest";
}

void RunWorkload(const RunConfig& cfg, Report* report) {
  const Kind kind =
      cfg.workload == "serve_cold" ? Kind::kServeCold : Kind::kServeIngest;
  const Params p = MakeParams(kind, cfg.seconds, cfg.tiny);
  const int cpus = AvailableCpus();
  std::error_code ec;
  fs::create_directories(cfg.workdir, ec);
  if (cfg.trace) ltm::obs::TraceRecorder::Global().Enable(1u << 17);
  // The session's refit worker is started before the calling thread is
  // pinned, so it inherits every CPU rather than the writer's one.
  ltm::ThreadPool refit_pool(kind == Kind::kServeIngest ? 1 : 0);
  // Single-threaded phases (set-up, ingest, refit) always run on the same
  // CPU, one that takes few device interrupts.
  PinToCpu(0);

  // ------------------------------------------------------------ set-up
  // Every set-up instance does the same work. serve_cold also runs its
  // foreground refits on each instance, so those timings are taken at
  // several moments of the run. Both workloads take their ingest rate
  // from the set-up ingests: serve_ingest's paced stream does too little
  // work (9 small batches and one compaction) for a steady rate.
  SetUpResult setup;
  PhaseSampler sampler;  // declared after `setup`: stops before it is freed
  std::vector<double> setup_s;
  uint64_t ingest_rows = 0;  ///< Over every set-up ingest.
  double ingest_busy_s = 0.0;
  std::vector<double> refit_s;
  std::vector<double> refit_installed_s;
  WriteLog stream_log;
  RefitResult refit;
  double ingest_store_bytes = 0.0;
  for (int rep = 0; rep < p.setup_reps; ++rep) {
    setup = SetUpResult();  // frees the previous instance first
    Quiesce(cfg.workdir);
    setup = SetUpOnce(p, cfg, rep, &refit_pool);
    if (!setup.status.ok()) {
      report->Fail("set-up: " + setup.status.ToString());
      return;
    }
    setup_s.push_back(setup.seconds);
    Engine* engine = setup.engine.get();
    ingest_rows += setup.boot_log.rows;
    ingest_busy_s += setup.boot_log.busy_s;
    ingest_store_bytes = static_cast<double>(setup.boot_store_bytes);
    if (kind == Kind::kServeCold) {
      Quiesce(engine->dir);
      refit = Refit(engine, p.refit_reps);
      if (!refit.status.ok()) {
        report->Fail("refit: " + refit.status.ToString());
        return;
      }
      refit_s.insert(refit_s.end(), refit.seconds.begin(), refit.seconds.end());
      refit_installed_s.insert(refit_installed_s.end(),
                               refit.installed_s.begin(),
                               refit.installed_s.end());
    }
  }
  World& world = *setup.world;
  Engine* engine = setup.engine.get();
  const QueryMix mix = MakeQueryMix(world, p, cfg.seed);
  std::vector<ltm::obs::Gauge*> pin_gauges;
  for (const std::string& name :
       RegistryView(*engine->registry).Series("ltm_store_live_pins")) {
    pin_gauges.push_back(engine->registry->gauge(name));
  }
  sampler.Watch(std::move(pin_gauges));
  Quiesce(engine->dir);

  // ------------------------------------------------------ timed phases
  ServeResult served;
  double refit_lag_s = 0.0;
  const uint64_t live_rows = world.boot_rows + world.stream_rows;
  if (kind == Kind::kServeCold) {
    served = Serve(engine, mix, p, cfg.seed, nullptr);
    // No refit scheduler runs: the lag is that of one foreground refit
    // started at the final commit.
    refit_lag_s = Median(refit_installed_s);
  } else {
    // The scheduler's last trigger falls on the last batch; the writer
    // waits, before that batch's Flush, until a fit covering it is
    // installed.
    ltm::obs::Gauge* fitted =
        engine->registry->gauge("ltm_serve_refit_last_fit_epoch");
    const auto wait_for_fit = [&] {
      const uint64_t target = engine->store->epoch();
      const Clock::time_point limit = After(Clock::now(), 60.0);
      while (static_cast<uint64_t>(fitted->Value()) < target) {
        if (Clock::now() > limit) {
          report->Fail("no background fit covered the final commit");
          return;
        }
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
      refit_lag_s = SecondsBetween(stream_log.last_commit, Clock::now());
    };
    served = Serve(engine, mix, p, cfg.seed, [&](Clock::time_point start) {
      WriteStream(engine->store.get(), engine->session.get(),
                  world.stream_batches, p.stream_flush_every,
                  world.stream_bytes, start, p.writer_seconds, cfg.trace,
                  &stream_log, wait_for_fit);
    });
    ingest_store_bytes = static_cast<double>(DirectoryBytes(engine->dir));
    if (!WaitSchedulerIdle(engine)) report->Fail("refit scheduler never idled");
    Quiesce(engine->dir);
    refit = Refit(engine, p.refit_reps);
    refit_s = refit.seconds;
    if (!stream_log.status.ok()) {
      report->Fail("write stream: " + stream_log.status.ToString());
    }
    if (!refit.status.ok()) report->Fail("refit: " + refit.status.ToString());
  }
  sampler.Stop();
  if (!report->ok()) return;

  // ------------------------------------------------ quiesced: answers
  const uint64_t checked = CheckAnswers(engine, mix, p, cfg.seed, report);
  uint64_t auc_facts = 0;
  const double auc = ServedAuc(engine, world, p, cfg.seed, &auc_facts, report);

  // The write stream that defines the ingest metrics: the timed stream,
  // or the set-up ingest for the read-only workload.
  const bool has_stream = kind == Kind::kServeIngest;
  const WriteLog& ingest = has_stream ? stream_log : setup.boot_log;

  // --------------------------------------------- same work, every run
  const RegistryView end(*engine->registry);
  auto& counts = report->counts();
  counts["append_raw_calls"] =
      world.boot_batches.size() + world.stream_batches.size();
  counts["wal_appends"] = static_cast<uint64_t>(end.Sum("ltm_store_wal_appends_total"));
  counts["wal_syncs"] = static_cast<uint64_t>(end.Sum("ltm_store_wal_syncs_total"));
  counts["flushes"] = static_cast<uint64_t>(end.Sum("ltm_store_flushes_total"));
  counts["compactions"] = static_cast<uint64_t>(end.Sum("ltm_store_compactions_total"));
  counts["refits_completed"] =
      static_cast<uint64_t>(end.Sum("ltm_serve_refit_completed_total"));
  counts["refits_shed"] = static_cast<uint64_t>(end.Sum("ltm_serve_refit_shed_total"));
  counts["sweeps"] = static_cast<uint64_t>(end.Sum("ltm_infer_sweeps_total"));
  const uint64_t flush_calls = setup.boot_log.flush_calls + stream_log.flush_calls;
  const uint64_t expected_refits = ExpectedRefits(p, world);
  const std::map<std::string, uint64_t> expected = {
      {"wal_appends", live_rows},
      {"wal_syncs", counts["append_raw_calls"]},
      {"flushes", flush_calls},
      {"refits_completed", expected_refits},
      {"refits_shed", 0},
      // Bootstrap fit, background refits, the timed refits.
      {"sweeps", static_cast<uint64_t>(p.iterations) *
                     (1 + expected_refits + p.refit_reps)},
  };
  for (const auto& [name, want] : expected) {
    if (counts[name] != want) {
      report->Fail("count " + name + " = " + std::to_string(counts[name]) +
                   ", expected " + std::to_string(want) + " for this seed");
    }
  }
  if (counts["compactions"] >
      setup.boot_log.compact_calls + stream_log.compact_calls) {
    report->Fail("more compactions than CompactOnce calls");
  }
  const int busy = sampler.max_running();
  if (busy > cpus) {
    report->Fail(std::to_string(busy) + " threads were running at once on " +
                 std::to_string(cpus) + " CPUs");
  }

  const uint64_t queries = served.attempted + checked + auc_facts;
  report->set_queries(queries, served.failed);
  if (served.failed > 0) {
    report->Fail(std::to_string(served.failed) + " queries failed or were shed");
  }
  if (served.latency_us.size() < 1000 * kLatencyWindows) {
    report->Fail("fewer than 1000 open-loop latency samples per window");
  }
  if (served.capacity_qps.size() < kCapacityWindows) {
    report->Fail("closed loop too short to split into capacity windows");
  }
  const uint64_t samples = served.latency_us.size();
  const double capacity_qps = Median(served.capacity_qps);
  const double ingest_rate = ingest_rows / ingest_busy_s;
  const double refit_mean_s =
      std::accumulate(refit_s.begin(), refit_s.end(), 0.0) / refit_s.size();

  if (!cfg.trace) {
    report->Add("setup_s", Median(setup_s), "s", setup_s.size());
    report->Add("query_p50_us", Median(served.p50_us), "us", samples);
    report->Add("query_p99_us", Median(served.p99_us), "us", samples);
    report->Add("capacity_qps", capacity_qps, "queries/s",
                served.closed_queries);
    report->Add("ingest_rows_per_s", ingest_rate, "rows/s", ingest_rows);
    report->Add("refit_s", refit_mean_s, "s", refit_s.size());
    report->Add("store_bytes_per_row", ingest_store_bytes / live_rows,
                "bytes/row", live_rows);
    report->Add("truth_auc", auc, "AUC", auc_facts);
    report->Add("peak_rss_mb", PeakRssMib(), "MiB", 1);
    return;
  }

  // ------------------------------------------------- per-layer (traced)
  const StoreProbe probe = ProbeStore(engine, world, p, cfg.seed, report);
  const HitMissSplit split = SplitHitMiss(engine, mix, p, cfg.seed);
  ltm::obs::TraceRecorder& recorder = ltm::obs::TraceRecorder::Global();
  recorder.Disable();

  const RegistryView& b = served.before;
  const RegistryView& a = served.after;
  auto delta = [&](const char* family) { return a.Sum(family) - b.Sum(family); };
  const double served_queries = delta("ltm_serve_queries_total");
  const double hits = delta("ltm_cache_posterior_hits_total");
  const double misses = delta("ltm_cache_posterior_misses_total");
  const double block_hits = delta("ltm_cache_block_hits_total");
  const double block_misses = delta("ltm_cache_block_misses_total");
  std::vector<double> append_us = ingest.append_us;

  report->Add("store.append_p50_us", Quantile(&append_us, 0.50), "us", append_us.size());
  report->Add("store.append_p99_us", Quantile(&append_us, 0.99), "us", append_us.size());
  report->Add("store.flush_s", ingest.flush_s, "s", ingest.flush_calls);
  report->Add("store.compact_s", ingest.compact_s, "s", ingest.compact_calls);
  report->Count("store.flushes", static_cast<uint64_t>(ingest.flushes));
  report->Count("store.compactions", static_cast<uint64_t>(ingest.compactions));
  report->Add("store.write_amp",
              Ratio(ingest.flush_segment_bytes + ingest.compaction_bytes_written,
                    static_cast<double>(ingest.user_bytes)),
              "ratio", ingest.flush_calls);
  report->Add("store.pin_p50_us", probe.pin_p50_us, "us", probe.reads);
  report->Add("store.point_read_p50_us", probe.read_p50_us, "us", probe.reads);
  report->Add("store.blocks_per_read", probe.blocks_per_read, "blocks", probe.reads);
  report->Add("store.block_cache_hit_ratio",
              Ratio(block_hits, block_hits + block_misses), "ratio",
              static_cast<uint64_t>(block_hits + block_misses));
  report->Add("store.materialize_s", probe.materialize_s, "s", 1);
  report->Count("store.live_pins_max",
                static_cast<uint64_t>(sampler.max_gauge_sum()));
  report->Add("serve.cache_hit_ratio", Ratio(hits, hits + misses), "ratio",
              static_cast<uint64_t>(hits + misses));
  report->Add("serve.slice_computes_per_query",
              Ratio(delta("ltm_serve_slice_computes_total"), served_queries),
              "ratio", static_cast<uint64_t>(served_queries));
  report->Add("serve.hit_p50_us", split.hit_p50_us, "us", split.hits);
  report->Add("serve.miss_p50_us", split.miss_p50_us, "us", split.misses);
  report->Add("serve.coalesced_ratio",
              Ratio(delta("ltm_serve_coalesced_total"), served_queries), "ratio",
              static_cast<uint64_t>(served_queries));
  report->Count("serve.shed", static_cast<uint64_t>(delta("ltm_serve_shed_total")));
  report->Add("serve.query_fail_ratio", Ratio(served.failed, served.attempted),
              "ratio", served.attempted);
  report->Add("serve.refresh_quality_ms", split.refresh_ms, "ms", 10);
  report->Count("serve.refits_completed", counts["refits_completed"]);
  report->Count("serve.refits_shed", counts["refits_shed"]);
  report->Add("serve.refit_lag_s", refit_lag_s, "s", 1);
  report->Add("data.graph_build_s", probe.graph_build_s, "s", 1);
  report->Add("truth.sweeps_s", refit.sweeps_s, "s", refit.sweeps);
  report->Add("truth.sweep_ms_p50", refit.sweep_ms_p50, "ms", refit.sweeps);
  report->Add("truth.claims_per_s",
              Ratio(static_cast<double>(probe.claims) * refit.sweeps, refit.sweeps_s),
              "claims/s", refit.sweeps);
  report->Count("truth.sweeps", counts["sweeps"]);
  report->Add("ext.refit_unattributed_s",
              refit_mean_s - (probe.materialize_s + probe.graph_build_s +
                              refit.sweeps_s),
              "s", 1);
  report->Add("load.gen_late_p99_us", Quantile(&served.late_us, 0.99), "us",
              served.late_us.size());
  report->Count("serve.query_samples", samples);
  report->Count("store.append_raw_calls", counts["append_raw_calls"]);
  report->Count("store.wal_syncs", counts["wal_syncs"]);
  report->Count("threads.busy", static_cast<uint64_t>(busy));
  report->Count("obs.dropped_spans", recorder.DroppedSpans());
  // The traced figures run.py compares with an untraced run of the same
  // seed for obs.trace_overhead.*; it drops them from the result.
  report->Add("capacity_qps", capacity_qps, "queries/s", served.closed_queries);
  report->Add("ingest_rows_per_s", ingest_rate, "rows/s", ingest_rows);

  const std::string stem = cfg.workdir + "/trace-" + cfg.workload;
  const Status written = recorder.WriteJson(stem + ".json");
  if (!written.ok()) report->Fail("trace write: " + written.ToString());
  if (!WriteSpanSummary(stem + "-summary.json",
                        SummarizeSpans(recorder.Collect()),
                        recorder.DroppedSpans())) {
    report->Fail("span summary write failed");
  }
}

}  // namespace perfbench
