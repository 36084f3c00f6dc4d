// Serving-path benchmark: latency percentiles and throughput of
// serve::ServeSession point reads over a durable TruthStore, at 1/2/4
// client threads against an idle store, and at 4 client threads with a
// concurrent ingest thread (durable appends + flushes + compactions +
// background refit triggers). The mixed phase is the §5.4 deployment
// shape — the MVCC epoch-pin design means no read ever blocks on the
// writer, so the CI gate bounds the mixed p99 at a small multiple of
// the idle p99.
//
// Workload: open-loop — each client issues a query every
// kQueryIntervalUs so every phase sees the same arrival rate. The QPS
// this bench reports (the "offered QPS" column and the JSON "qps" field)
// is therefore the offered load — completed queries over the phase's
// wall time under that pacing — not the session's capacity. 80% of
// queries hit a small hot set, 20% draw uniformly from every fact. The
// posterior cache is cleared at each phase boundary, so every phase's
// percentiles blend cache hits with entity-slice materializations in
// comparable proportions — an idle p99 of pure cache hits would make
// the mixed/idle ratio gate meaningless.
//
// Writes BENCH_serving.json for the CI benchmark artifact.
//
// With --partitions N (N >= 2) the durable store is carved into N
// entity ranges — boundaries at entity-name quantiles so the world
// spreads across every partition. The JSON carries a per-partition stats
// array. The serving phases are unchanged: the session queries through
// the router either way, so this measures the partitioned read path
// under the same workload.
//
// Flags (for the CI smoke job):
//   --movies N        movie-world size (default 3000)
//   --duration-ms D   measured wall-clock per phase (default 1500)
//   --iterations N    Gibbs sweeps for the bootstrap fit (default 60)
//   --partitions N    serve from an N-way partitioned store (default 1)
//   --out FILE        JSON output path (default BENCH_serving.json)

#include <algorithm>
#include <atomic>
#include <cstring>
#include <filesystem>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "eval/table_printer.h"
#include "ext/streaming.h"
#include "obs/metrics.h"
#include "serve/serve_options.h"
#include "serve/serve_session.h"
#include "store/partitioned_store.h"
#include "store/truth_store.h"

namespace ltm {
namespace bench {
namespace {

struct ServingConfig {
  size_t movies = 3000;
  int duration_ms = 1500;
  int iterations = 60;
  size_t partitions = 1;
  std::string out = "BENCH_serving.json";
};

struct PhaseResult {
  std::string phase;
  int clients = 0;
  uint64_t queries = 0;
  uint64_t shed = 0;
  uint64_t errors = 0;
  double seconds = 0.0;
  double qps = 0.0;  ///< offered load: paced queries completed per second
  double p50_us = 0.0;
  double p99_us = 0.0;
};

struct WorkerTally {
  std::vector<double> micros;
  uint64_t shed = 0;
  uint64_t errors = 0;
};

/// Open-loop pacing: one query per client per this interval, so the
/// arrival rate — and thus the hit/miss blend behind the percentiles —
/// is the same across idle and mixed phases.
constexpr int kQueryIntervalUs = 500;

/// One client thread: paced queries against the hot/cold mix until
/// `stop`. Exact per-query latencies are kept for offline percentiles.
void ClientLoop(serve::ServeSession* session,
                const std::vector<serve::FactRef>& hot,
                const std::vector<serve::FactRef>& cold, unsigned seed,
                const std::atomic<bool>* stop, WorkerTally* out) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<size_t> pick_hot(0, hot.size() - 1);
  std::uniform_int_distribution<size_t> pick_cold(0, cold.size() - 1);
  std::uniform_int_distribution<int> pick_pool(0, 99);
  while (!stop->load(std::memory_order_relaxed)) {
    const serve::FactRef& ref =
        pick_pool(rng) < 80 ? hot[pick_hot(rng)] : cold[pick_cold(rng)];
    WallTimer timer;
    const Result<double> posterior = session->Query(ref);
    if (posterior.ok()) {
      out->micros.push_back(timer.ElapsedSeconds() * 1e6);
    } else if (posterior.status().code() == StatusCode::kResourceExhausted) {
      ++out->shed;
    } else {
      ++out->errors;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(kQueryIntervalUs));
  }
}

double PercentileUs(std::vector<double>* sorted_micros, double q) {
  if (sorted_micros->empty()) return 0.0;
  const size_t idx = static_cast<size_t>(
      q * static_cast<double>(sorted_micros->size() - 1) + 0.5);
  return (*sorted_micros)[std::min(idx, sorted_micros->size() - 1)];
}

PhaseResult RunPhase(const std::string& phase, serve::ServeSession* session,
                     int clients, int duration_ms,
                     const std::vector<serve::FactRef>& hot,
                     const std::vector<serve::FactRef>& cold) {
  // Phase boundary: drop all cached posteriors (via a quality-version
  // bump) so each phase re-pays its own slice materializations.
  if (Status st = session->RefreshQuality(); !st.ok()) {
    std::fprintf(stderr, "refresh: %s\n", st.ToString().c_str());
  }
  std::atomic<bool> stop{false};
  std::vector<WorkerTally> tallies(clients);
  std::vector<std::thread> threads;
  WallTimer timer;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back(ClientLoop, session, std::cref(hot), std::cref(cold),
                         1000003u * static_cast<unsigned>(c + 1), &stop,
                         &tallies[c]);
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(duration_ms));
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : threads) t.join();

  PhaseResult r;
  r.phase = phase;
  r.clients = clients;
  r.seconds = timer.ElapsedSeconds();
  std::vector<double> all;
  for (WorkerTally& tally : tallies) {
    all.insert(all.end(), tally.micros.begin(), tally.micros.end());
    r.shed += tally.shed;
    r.errors += tally.errors;
  }
  std::sort(all.begin(), all.end());
  r.queries = all.size();
  r.qps = r.seconds > 0.0 ? static_cast<double>(r.queries) / r.seconds : 0.0;
  r.p50_us = PercentileUs(&all, 0.50);
  r.p99_us = PercentileUs(&all, 0.99);
  return r;
}

/// Background writer for the mixed phase: re-appends arrival rows to the
/// store in small durable batches, flushing and compacting periodically,
/// and pokes the session's refit scheduler after every append. Each
/// append advances the epoch, so readers keep re-materializing slices —
/// the contention the mixed-phase gate measures.
void IngestLoop(store::PartitionedTruthStore* store,
                serve::ServeSession* session, const Dataset& arrivals,
                const std::atomic<bool>* stop,
                std::atomic<uint64_t>* appends) {
  const std::vector<RawRow>& rows = arrivals.raw.rows();
  size_t cursor = 0;
  uint64_t batch_index = 0;
  while (!stop->load(std::memory_order_relaxed) && !rows.empty()) {
    RawDatabase batch;
    for (size_t i = 0; i < 50; ++i) {
      const RawRow& row = rows[cursor];
      batch.Add(arrivals.raw.entities().Get(row.entity),
                arrivals.raw.attributes().Get(row.attribute),
                arrivals.raw.sources().Get(row.source));
      cursor = (cursor + 1) % rows.size();
    }
    if (!store->AppendRaw(batch).ok()) return;
    appends->fetch_add(1, std::memory_order_relaxed);
    (void)session->NotifyIngest();  // shed triggers are expected here
    ++batch_index;
    if (batch_index % 4 == 0 && !store->Flush().ok()) return;
    if (batch_index % 12 == 0 && !store->Compact().ok()) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
}

bool Run(const ServingConfig& cfg) {
  BenchDataset bench = MakeMovieBench(cfg.movies);
  Dataset& world = bench.data;

  // Hold out ~10% of entities as the mixed-phase ingest stream.
  const size_t held_out = world.raw.NumEntities() / 10;
  auto [history, arrivals] =
      world.SplitByEntities(synth::SampleEntities(world, held_out, 7));

  // Two bootstrap segments so serving reads exercise zone-stat skipping
  // across segment files, not just one monolithic snapshot.
  std::vector<EntityId> first_half;
  for (EntityId e = 0;
       e < static_cast<EntityId>(history.raw.NumEntities() / 2); ++e) {
    first_half.push_back(e);
  }
  auto [second, first] = history.SplitByEntities(first_half);

  const std::string dir =
      (std::filesystem::temp_directory_path() / "ltm_bench_serving").string();
  std::filesystem::remove_all(dir);
  // Boundaries at entity-name quantiles, so the movie world spreads
  // across every partition no matter how its names are distributed.
  std::vector<std::string> names;
  names.reserve(world.raw.NumEntities());
  for (EntityId e = 0; e < static_cast<EntityId>(world.raw.NumEntities());
       ++e) {
    names.emplace_back(world.raw.entities().Get(e));
  }
  std::sort(names.begin(), names.end());
  names.erase(std::unique(names.begin(), names.end()), names.end());
  store::PartitionedStoreOptions popts;
  popts.store.metrics = &obs::MetricsRegistry::Global();
  popts.partitions = cfg.partitions;
  for (size_t b = 1; b < cfg.partitions; ++b) {
    popts.initial_boundaries.push_back(
        names[names.size() * b / cfg.partitions]);
  }
  auto opened = store::PartitionedTruthStore::Open(dir, popts);
  if (!opened.ok()) {
    std::fprintf(stderr, "store open: %s\n",
                 opened.status().ToString().c_str());
    return false;
  }
  const std::unique_ptr<store::PartitionedTruthStore> store =
      std::move(*opened);
  for (const Dataset* part : {&first, &second}) {
    if (!store->AppendRaw(part->raw).ok() || !store->Flush().ok()) {
      std::fprintf(stderr, "bootstrap ingest failed\n");
      return false;
    }
  }

  ext::StreamingOptions stream_opts;
  stream_opts.ltm = bench.ltm_options;
  stream_opts.ltm.iterations = cfg.iterations;
  stream_opts.ltm.burnin = cfg.iterations / 4;
  stream_opts.ltm.sample_gap = 2;
  ext::StreamingPipeline pipeline(stream_opts);
  {
    WallTimer timer;
    RunContext boot_ctx;
    boot_ctx.metrics = &obs::MetricsRegistry::Global();
    if (Status st = pipeline.BootstrapFromStore(store.get(), boot_ctx);
        !st.ok()) {
      std::fprintf(stderr, "bootstrap: %s\n", st.ToString().c_str());
      return false;
    }
    std::printf("bootstrap fit: %.2fs (%zu facts, 2 segments)\n",
                timer.ElapsedSeconds(), history.facts.NumFacts());
  }

  serve::ServeOptions serve_opts;
  serve_opts.max_inflight = 64;
  serve_opts.refit_debounce_epochs = 500;  // a few refits per mixed phase
  serve_opts.refit_queue = 2;
  auto session = serve::ServeSession::Create(&pipeline, serve_opts);
  if (!session.ok()) {
    std::fprintf(stderr, "session: %s\n",
                 session.status().ToString().c_str());
    return false;
  }

  // Query pools from the durable history: hot = every fact of the first
  // 8 entities; cold = every fact.
  std::vector<serve::FactRef> hot;
  std::vector<serve::FactRef> cold;
  for (FactId f = 0; f < history.facts.NumFacts(); ++f) {
    const Fact& fact = history.facts.fact(f);
    serve::FactRef ref;
    ref.entity = std::string(history.raw.entities().Get(fact.entity));
    ref.attribute = std::string(history.raw.attributes().Get(fact.attribute));
    if (fact.entity < 8) hot.push_back(ref);
    cold.push_back(std::move(ref));
  }
  if (hot.empty()) hot.push_back(cold.front());

  PrintHeader("Serving latency/QPS: ServeSession over a TruthStore");
  std::printf("facts=%zu hot=%zu duration=%dms/phase\n\n",
              cold.size(), hot.size(), cfg.duration_ms);

  std::vector<PhaseResult> results;
  for (int clients : {1, 2, 4}) {
    results.push_back(RunPhase("idle", session->get(), clients,
                               cfg.duration_ms, hot, cold));
  }

  std::atomic<bool> stop_ingest{false};
  std::atomic<uint64_t> appends{0};
  std::thread ingest(IngestLoop, store.get(), session->get(),
                     std::cref(arrivals), &stop_ingest, &appends);
  results.push_back(
      RunPhase("mixed", session->get(), 4, cfg.duration_ms, hot, cold));
  stop_ingest.store(true, std::memory_order_relaxed);
  ingest.join();

  const obs::MetricsRegistry& metrics = *store->metrics();
  const auto count = [&metrics](const char* name) {
    return static_cast<unsigned long long>(metrics.CounterValue(name));
  };
  const unsigned long long refits_scheduled =
      count("ltm_serve_refit_scheduled_total");
  const unsigned long long refits_completed =
      count("ltm_serve_refit_completed_total");
  const unsigned long long refits_shed = count("ltm_serve_refit_shed_total");
  TablePrinter table(
      {"Phase", "Clients", "offered QPS", "p50 us", "p99 us", "Shed"});
  for (const PhaseResult& r : results) {
    table.AddRow({r.phase, std::to_string(r.clients), FormatDouble(r.qps, 0),
                  FormatDouble(r.p50_us, 1), FormatDouble(r.p99_us, 1),
                  std::to_string(r.shed)});
  }
  table.Print();
  std::printf(
      "\nmixed phase: %llu ingest batch(es); refits scheduled %llu / "
      "completed %llu / shed %llu; final epoch %llu\n"
      "session totals: %llu queries, %llu coalesced, %llu slice computes, "
      "cache %llu/%llu hit/miss\n",
      static_cast<unsigned long long>(appends.load()), refits_scheduled,
      refits_completed, refits_shed,
      static_cast<unsigned long long>(store->epoch()),
      count("ltm_serve_queries_total"), count("ltm_serve_coalesced_total"),
      count("ltm_serve_slice_computes_total"),
      count("ltm_cache_posterior_hits_total"),
      count("ltm_cache_posterior_misses_total"));
  const auto per_partition = store->PartitionStats();
  std::printf("store: %zu partition(s)\n", per_partition.size());
  for (size_t p = 0; p < per_partition.size(); ++p) {
    const store::TruthStoreStats& ps = per_partition[p];
    std::printf("  partition %zu: %llu row(s), %zu segment(s), epoch %llu\n",
                p,
                static_cast<unsigned long long>(ps.segment_rows +
                                                ps.memtable_rows),
                ps.num_segments, static_cast<unsigned long long>(ps.epoch));
  }

  uint64_t total_errors = 0;
  for (const PhaseResult& r : results) total_errors += r.errors;
  if (total_errors != 0) {
    std::fprintf(stderr, "%llu unexpected query error(s)\n",
                 static_cast<unsigned long long>(total_errors));
    return false;
  }

  std::FILE* f = std::fopen(cfg.out.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", cfg.out.c_str());
    return false;
  }
  std::fprintf(f,
               "{\n"
               "  \"bench\": \"serving\",\n"
               "  \"dataset\": {\"movies\": %zu, \"facts\": %zu, "
               "\"hot_facts\": %zu},\n"
               "  \"partitions\": %zu,\n"
               "  \"duration_ms\": %d,\n"
               "  \"refits\": {\"scheduled\": %llu, \"completed\": %llu, "
               "\"shed\": %llu},\n"
               "  \"results\": [",
               cfg.movies, cold.size(), hot.size(), cfg.partitions,
               cfg.duration_ms, refits_scheduled, refits_completed,
               refits_shed);
  for (size_t i = 0; i < results.size(); ++i) {
    const PhaseResult& r = results[i];
    std::fprintf(f,
                 "%s\n    {\"phase\": \"%s\", \"clients\": %d, "
                 "\"queries\": %llu, \"qps\": %.1f, \"p50_us\": %.1f, "
                 "\"p99_us\": %.1f, \"shed\": %llu}",
                 i == 0 ? "" : ",", r.phase.c_str(), r.clients,
                 static_cast<unsigned long long>(r.queries), r.qps, r.p50_us,
                 r.p99_us, static_cast<unsigned long long>(r.shed));
  }
  std::fprintf(f, "\n  ],\n");
  std::fprintf(f, "  \"per_partition\": [");
  for (size_t p = 0; p < per_partition.size(); ++p) {
    const store::TruthStoreStats& ps = per_partition[p];
    std::fprintf(f,
                 "%s{\"partition\": %zu, \"rows\": %llu, "
                 "\"segments\": %zu, \"epoch\": %llu}",
                 p == 0 ? "" : ", ", p,
                 static_cast<unsigned long long>(ps.segment_rows +
                                                 ps.memtable_rows),
                 ps.num_segments, static_cast<unsigned long long>(ps.epoch));
  }
  std::fprintf(f, "],\n");
  std::fprintf(f, "  \"metrics\": ");
  WriteMetricsJsonArray(f);
  std::fprintf(f, "\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", cfg.out.c_str());
  std::filesystem::remove_all(dir);
  return true;
}

}  // namespace
}  // namespace bench
}  // namespace ltm

int main(int argc, char** argv) {
  ltm::bench::ServingConfig cfg;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : "";
    };
    if (std::strcmp(arg, "--movies") == 0) {
      const long movies = std::atol(next());
      if (movies <= 0) {
        std::fprintf(stderr, "--movies must be > 0\n");
        return 2;
      }
      cfg.movies = static_cast<size_t>(movies);
    } else if (std::strcmp(arg, "--duration-ms") == 0) {
      cfg.duration_ms = std::atoi(next());
    } else if (std::strcmp(arg, "--iterations") == 0) {
      cfg.iterations = std::atoi(next());
    } else if (std::strcmp(arg, "--partitions") == 0) {
      const long partitions = std::atol(next());
      if (partitions < 1 ||
          partitions > static_cast<long>(ltm::store::kMaxPartitions)) {
        std::fprintf(stderr, "--partitions must be in [1, %zu]\n",
                     ltm::store::kMaxPartitions);
        return 2;
      }
      cfg.partitions = static_cast<size_t>(partitions);
    } else if (std::strcmp(arg, "--out") == 0) {
      cfg.out = next();
    } else {
      std::fprintf(stderr,
                   "unknown flag %s (expected --movies N, --duration-ms D, "
                   "--iterations N, --partitions N, --out FILE)\n",
                   arg);
      return 2;
    }
  }
  if (cfg.duration_ms <= 0 || cfg.iterations <= 0 || cfg.out.empty()) {
    std::fprintf(stderr,
                 "duration-ms and iterations must be > 0; --out needs a "
                 "path\n");
    return 2;
  }
  return ltm::bench::Run(cfg) ? 0 : 1;
}
