// serve_cli: the online serving front-end over a store directory.
// Opens the store, bootstraps a StreamingPipeline from its durable
// contents (the restarted-service path), and answers posterior queries
// through a serve::ServeSession — epoch-pinned reads, request
// coalescing, and admission control, configured by a `serve(...)` spec.
//
//   serve_cli <dir> --query ENTITY ATTRIBUTE
//   serve_cli <dir> --queries queries.tsv        # entity<TAB>attribute rows
//   serve_cli <dir> --range MIN MAX              # inclusive entity range
//   serve_cli <dir> --spec "serve(batch_window_us=200,max_inflight=8)" ...
//   serve_cli <dir> --stats                      # session counters to stderr
//   serve_cli <dir> stats                        # metrics exposition to stdout
//   serve_cli <dir> --dump-metrics ...           # same, after the reads
//   serve_cli <dir> --trace-out trace.json ...   # chrome://tracing spans
//
// Output: one `entity<TAB>attribute<TAB>posterior` line per served fact
// on stdout. Multiple read flags compose; --stats prints the session's
// ServeStats after all reads; `stats` / --dump-metrics render the whole
// process metrics registry (store, caches, serve, inference) in
// Prometheus text exposition format.

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common/string_util.h"
#include "ext/streaming.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/serve_options.h"
#include "serve/serve_session.h"
#include "store/partitioned_store.h"
#include "store/truth_store.h"

namespace {

int Usage() {
  std::fprintf(
      stderr,
      "usage: serve_cli <store-dir> [stats] [--spec \"serve(key=value,...)\"]\n"
      "                 [--query ENTITY ATTRIBUTE]... [--queries FILE]\n"
      "                 [--range MIN MAX] [--stats] [--dump-metrics]\n"
      "                 [--trace-out FILE]\n"
      "spec keys: batch_window_us, max_inflight, refit_debounce_epochs,\n"
      "           refit_queue, block_cache_mb, bloom_bits_per_key,\n"
      "           partitions\n");
  return 2;
}

int Fail(const ltm::Status& st) {
  std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
  return 1;
}

void PrintFact(const std::string& entity, const std::string& attribute,
               double posterior) {
  std::printf("%s\t%s\t%.6f\n", entity.c_str(), attribute.c_str(), posterior);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string dir = argv[1];

  std::string spec = "serve";
  std::vector<ltm::serve::FactRef> point_queries;
  std::string queries_path;
  bool have_range = false;
  std::string range_min;
  std::string range_max;
  bool want_stats = false;
  bool dump_metrics = false;
  std::string trace_out;
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "stats" || flag == "--dump-metrics") {
      dump_metrics = true;
    } else if (flag == "--trace-out" && i + 1 < argc) {
      trace_out = argv[++i];
    } else if (flag == "--spec" && i + 1 < argc) {
      spec = argv[++i];
    } else if (flag == "--query" && i + 2 < argc) {
      ltm::serve::FactRef ref;
      ref.entity = argv[++i];
      ref.attribute = argv[++i];
      point_queries.push_back(std::move(ref));
    } else if (flag == "--queries" && i + 1 < argc) {
      queries_path = argv[++i];
    } else if (flag == "--range" && i + 2 < argc) {
      have_range = true;
      range_min = argv[++i];
      range_max = argv[++i];
    } else if (flag == "--stats") {
      want_stats = true;
    } else {
      return Usage();
    }
  }
  if (point_queries.empty() && queries_path.empty() && !have_range &&
      !dump_metrics) {
    return Usage();
  }
  if (!trace_out.empty()) ltm::obs::TraceRecorder::Global().Enable();

  auto options = ltm::serve::ParseServeSpec(spec);
  if (!options.ok()) return Fail(options.status());

  if (!queries_path.empty()) {
    std::ifstream in(queries_path);
    if (!in) {
      std::fprintf(stderr, "error: cannot read %s\n", queries_path.c_str());
      return 1;
    }
    std::string line;
    size_t lineno = 0;
    while (std::getline(in, line)) {
      ++lineno;
      const std::string_view trimmed = ltm::Trim(line);
      if (trimmed.empty() || trimmed.front() == '#') continue;
      const std::vector<std::string> fields = ltm::Split(trimmed, '\t');
      if (fields.size() != 2) {
        std::fprintf(stderr, "error: %s:%zu: want entity<TAB>attribute\n",
                     queries_path.c_str(), lineno);
        return 1;
      }
      ltm::serve::FactRef ref;
      ref.entity = fields[0];
      ref.attribute = fields[1];
      point_queries.push_back(std::move(ref));
    }
  }

  // The spec's block_cache_mb / bloom_bits_per_key / partitions are
  // store knobs, so they configure the open itself. An existing layout
  // wins (a PARTMAP keeps its partitioning regardless of the spec);
  // partitions only carves fresh directories. The process-global
  // registry collects the whole stack's metrics behind one exposition
  // surface.
  ltm::store::PartitionedStoreOptions popts;
  popts.store.metrics = &ltm::obs::MetricsRegistry::Global();
  popts.store = options->ApplyToStore(popts.store);
  popts.partitions = options->partitions;
  auto store = ltm::store::PartitionedTruthStore::Open(dir, popts);
  if (!store.ok()) return Fail(store.status());

  // Size the Gibbs refit to the durable evidence, then bootstrap the
  // pipeline from the store — identical to what a restarted service does.
  const ltm::store::TruthStoreStats sstats = (*store)->Stats();
  ltm::ext::StreamingOptions stream_opts;
  stream_opts.ltm = ltm::LtmOptions::ScaledDefaults(
      sstats.segment_rows + sstats.memtable_rows);
  ltm::ext::StreamingPipeline pipeline(stream_opts);
  ltm::RunContext boot_ctx;
  boot_ctx.metrics = &ltm::obs::MetricsRegistry::Global();
  if (ltm::Status st = pipeline.BootstrapFromStore(store->get(), boot_ctx);
      !st.ok()) {
    return Fail(st);
  }

  auto session =
      ltm::serve::ServeSession::Create(&pipeline, *options);
  if (!session.ok()) return Fail(session.status());

  if (!point_queries.empty()) {
    auto posteriors = (*session)->QueryBatch(point_queries);
    if (!posteriors.ok()) return Fail(posteriors.status());
    for (size_t i = 0; i < point_queries.size(); ++i) {
      PrintFact(point_queries[i].entity, point_queries[i].attribute,
                (*posteriors)[i]);
    }
  }
  if (have_range) {
    auto served = (*session)->QueryEntityRange(range_min, range_max);
    if (!served.ok()) return Fail(served.status());
    for (const ltm::serve::ServedFact& fact : *served) {
      PrintFact(fact.entity, fact.attribute, fact.posterior);
    }
  }

  if (want_stats) {
    const ltm::serve::ServeStats stats = (*session)->Stats();
    std::fprintf(stderr,
                 "queries: %llu (coalesced %llu, shed %llu)  "
                 "range queries: %llu\n",
                 static_cast<unsigned long long>(stats.queries),
                 static_cast<unsigned long long>(stats.coalesced),
                 static_cast<unsigned long long>(stats.shed),
                 static_cast<unsigned long long>(stats.range_queries));
    std::fprintf(stderr,
                 "cache: %llu hit(s) %llu miss(es)  slice computes: %llu\n",
                 static_cast<unsigned long long>(stats.cache.hits),
                 static_cast<unsigned long long>(stats.cache.misses),
                 static_cast<unsigned long long>(stats.slice_computes));
    std::fprintf(stderr,
                 "block cache: %llu hit(s) %llu miss(es) %llu eviction(s)  "
                 "bloom point skips: %llu\n",
                 static_cast<unsigned long long>(stats.block_cache.hits),
                 static_cast<unsigned long long>(stats.block_cache.misses),
                 static_cast<unsigned long long>(stats.block_cache.evictions),
                 static_cast<unsigned long long>(stats.bloom_point_skips));
    std::fprintf(stderr,
                 "epoch: %llu  quality version: %llu  live pins: %zu  "
                 "partitions: %zu\n",
                 static_cast<unsigned long long>(stats.epoch),
                 static_cast<unsigned long long>(stats.quality_version),
                 stats.live_pins, (*store)->num_partitions());
    std::fprintf(stderr, "latency: p50 %.1fus p99 %.1fus (%llu sample(s))\n",
                 stats.latency.p50_us, stats.latency.p99_us,
                 static_cast<unsigned long long>(stats.latency.count));
  }
  if (dump_metrics) {
    std::fputs(ltm::obs::MetricsRegistry::Global().RenderText().c_str(),
               stdout);
  }
  if (!trace_out.empty()) {
    if (ltm::Status st = ltm::obs::TraceRecorder::Global().WriteJson(trace_out);
        !st.ok()) {
      return Fail(st);
    }
  }
  return 0;
}
