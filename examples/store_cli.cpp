// store_cli: operate on a store directory — ingest TSV chunks,
// flush/compact, inspect, and verify integrity. --partitions N carves a
// *fresh* directory into N entity ranges (an existing layout always
// wins); every command but verify converts a legacy single-store
// directory (a root MANIFEST, no PARTMAP) into one partition on open.
//
//   store_cli <dir> ingest <chunk.tsv> [--flush] [--compact]
//                   [--sync-every-append] [--partitions N]
//   store_cli <dir> flush
//   store_cli <dir> compact
//   store_cli <dir> inspect
//   store_cli <dir> verify
//   store_cli <dir> stats                        # metrics exposition
//   store_cli <dir> materialize --out <raw.tsv>
//   store_cli <dir> serve <queries.tsv> [--spec "serve(...)"]
//
// `inspect` prints the partition map plus every partition's level
// layout, zone stats, and measured bloom FP rate. `verify` checks the
// partition map's range invariants (full keyspace coverage, no overlap,
// no gap) and every child store, and exits nonzero when anything is
// wrong; on a legacy directory it verifies that layout without
// converting it.
//
// Every command (except verify) also accepts --dump-metrics, which
// renders the process metrics registry in Prometheus text exposition
// format to stdout after the command runs — metrics are per-process, so
// chain the work into one invocation (e.g. `ingest x.tsv --flush
// --compact --dump-metrics`) to observe it. --trace-out FILE writes the
// recorded spans as chrome://tracing JSON.
//
// Every mutating command accepts --fail-at POINT: the process _exit()s
// the moment a durability failpoint whose name contains POINT is hit —
// a deterministic stand-in for SIGKILL at that instant, used by the CI
// recovery smoke test. Useful POINTs: wal-append,
// store-flush-segment-written, store-flush-wal-rotated,
// store-compact-segment-written, segment-block-write (mid-segment
// write), manifest-edit-append (before a MANIFEST edit record), and
// atomic-write-before-rename (add "MANIFEST" to target only the
// manifest snapshot commit).

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include <map>

#include "common/failpoint.h"
#include "common/string_util.h"
#include "data/tsv_io.h"
#include "ext/streaming.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/serve_options.h"
#include "serve/serve_session.h"
#include "store/partition_map.h"
#include "store/partitioned_store.h"
#include "store/segment.h"
#include "store/truth_store.h"

#include <fstream>

#if !defined(_WIN32)
#include <unistd.h>
#endif

namespace {

int Usage() {
  std::fprintf(
      stderr,
      "usage: store_cli <dir> <command> [args]\n"
      "commands:\n"
      "  ingest <chunk.tsv> [--flush] [--compact] [--sync-every-append]\n"
      "  flush | compact | inspect | verify | stats\n"
      "  materialize --out <raw.tsv>\n"
      "  serve <queries.tsv> [--spec \"serve(key=value,...)\"]\n"
      "--partitions N carves a fresh store into N entity ranges (an\n"
      "existing directory keeps its layout);\n"
      "all mutating commands accept --fail-at POINT (simulated kill);\n"
      "all commands but verify accept --dump-metrics and --trace-out FILE\n");
  return 2;
}

void ArmFailAt(const std::string& point) {
  ltm::SetFailpointHandler([point](std::string_view at) -> ltm::Status {
    if (at.find(point) != std::string_view::npos) {
      std::fprintf(stderr, "store_cli: simulated kill at %.*s\n",
                   static_cast<int>(at.size()), at.data());
#if defined(_WIN32)
      std::_Exit(137);
#else
      _exit(137);  // no cleanup, no buffer flush — like SIGKILL
#endif
    }
    return ltm::Status::OK();
  });
}

int Fail(const ltm::Status& st) {
  std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
  return 1;
}

/// The scalar store counters, aggregated over every partition.
void PrintStatsHeader(const ltm::store::TruthStoreStats& stats) {
  std::printf("epoch:                %llu\n",
              static_cast<unsigned long long>(stats.epoch));
  std::printf("manifest generation:  %llu\n",
              static_cast<unsigned long long>(stats.generation));
  std::printf("manifest edits:       %llu since last snapshot\n",
              static_cast<unsigned long long>(
                  stats.manifest_edits_since_snapshot));
  std::printf("next row seq:         %llu\n",
              static_cast<unsigned long long>(stats.next_row_seq));
  std::printf("segments:             %zu (%llu row(s), max level %u, "
              "%zu at L0)\n",
              stats.num_segments,
              static_cast<unsigned long long>(stats.segment_rows),
              stats.max_level, stats.l0_segments);
  std::printf("memtable rows:        %zu\n", stats.memtable_rows);
  std::printf("WAL records replayed: %llu%s\n",
              static_cast<unsigned long long>(stats.wal_records_replayed),
              stats.recovered_torn_tail ? " (torn tail truncated)" : "");
}

/// Per-level layout with zone stats, plus a measured bloom
/// false-positive rate: probe each segment's filter with keys that
/// cannot exist in the store (entities starting with 0x01 and an
/// embedded tab would have been split by the TSV loader). `indent`
/// prefixes every line (inspect nests the layout under the partition
/// heading). Returns nonzero when a segment cannot be opened.
int PrintLevelLayout(const std::string& seg_dir,
                     const std::vector<ltm::store::SegmentInfo>& segments,
                     const char* indent) {
  std::map<uint32_t, std::vector<ltm::store::SegmentInfo>> levels;
  for (const auto& seg : segments) {
    levels[seg.level].push_back(seg);
  }
  for (const auto& [level, segs] : levels) {
    uint64_t level_rows = 0;
    uint64_t level_bytes = 0;
    for (const auto& seg : segs) {
      level_rows += seg.num_rows;
      level_bytes += seg.file_bytes;
    }
    std::printf("%slevel %u:              %zu segment(s), %llu row(s), "
                "%llu byte(s)\n",
                indent, level, segs.size(),
                static_cast<unsigned long long>(level_rows),
                static_cast<unsigned long long>(level_bytes));
    for (const auto& seg : segs) {
      auto reader = ltm::store::BlockSegmentReader::Open(
          seg_dir + "/" + seg.file, seg.id);
      if (!reader.ok()) return Fail(reader.status());
      constexpr int kProbes = 4096;
      int false_positives = 0;
      for (int p = 0; p < kProbes; ++p) {
        const std::string absent = "\x01probe-" + std::to_string(p);
        if ((*reader)->MayContainFact(absent, "x")) ++false_positives;
      }
      std::printf(
          "%s  %s  rows=%llu facts=%llu sources=%llu blocks=%u "
          "bytes=%llu seq=[%llu..%llu] entities=[%s..%s] "
          "bloom=%ub/key fp=%.2f%%\n",
          indent, seg.file.c_str(),
          static_cast<unsigned long long>(seg.num_rows),
          static_cast<unsigned long long>(seg.num_facts),
          static_cast<unsigned long long>(seg.num_sources), seg.num_blocks,
          static_cast<unsigned long long>(seg.file_bytes),
          static_cast<unsigned long long>(seg.min_seq),
          static_cast<unsigned long long>(seg.max_seq),
          seg.min_entity.c_str(), seg.max_entity.c_str(),
          (*reader)->footer().bloom_bits_per_key,
          100.0 * false_positives / kProbes);
    }
  }
  return 0;
}

/// A counter family summed over every partition's series, for printf.
unsigned long long Count(const ltm::obs::MetricsRegistry& metrics,
                         const char* family) {
  return static_cast<unsigned long long>(metrics.CounterSum(family));
}

/// Read-path and compaction counters (the tail of the inspect output).
void PrintStatsFooter(const ltm::obs::MetricsRegistry& metrics) {
  const auto gauge = [&metrics](const char* family) {
    return static_cast<long long>(metrics.GaugeSum(family));
  };
  std::printf("block cache:          %llu hit(s), %llu miss(es), "
              "%llu eviction(s), %lld/%lld byte(s)\n",
              Count(metrics, "ltm_cache_block_hits_total"),
              Count(metrics, "ltm_cache_block_misses_total"),
              Count(metrics, "ltm_cache_block_evictions_total"),
              gauge("ltm_cache_block_size_bytes"),
              gauge("ltm_cache_block_capacity_bytes"));
  std::printf("bloom point skips:    %llu\n",
              Count(metrics, "ltm_store_bloom_point_skips_total"));
  std::printf("compactions:          %llu (%llu trivial move(s), "
              "%llu -> %llu segment(s), %llu read / %llu written "
              "byte(s), %llu duplicate row(s) dropped)\n",
              Count(metrics, "ltm_store_compactions_total"),
              Count(metrics, "ltm_store_compaction_trivial_moves_total"),
              Count(metrics, "ltm_store_compaction_input_segments_total"),
              Count(metrics, "ltm_store_compaction_output_segments_total"),
              Count(metrics, "ltm_store_compaction_bytes_read_total"),
              Count(metrics, "ltm_store_compaction_bytes_written_total"),
              Count(metrics, "ltm_store_compaction_rows_dropped_total"));
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return Usage();
  const std::string dir = argv[1];
  const std::string command = argv[2];
  std::vector<std::string> rest(argv + 3, argv + argc);

  std::string fail_at;
  std::string tsv_path;
  std::string out_path;
  std::string serve_spec = "serve";
  std::string trace_out;
  bool flush_after = false;
  bool compact_after = false;
  bool dump_metrics = command == "stats";
  ltm::store::PartitionedStoreOptions popts;
  ltm::store::TruthStoreOptions& options = popts.store;
  options.metrics = &ltm::obs::MetricsRegistry::Global();
  for (size_t i = 0; i < rest.size(); ++i) {
    if (rest[i] == "--fail-at" && i + 1 < rest.size()) {
      fail_at = rest[++i];
    } else if (rest[i] == "--flush") {
      flush_after = true;
    } else if (rest[i] == "--compact") {
      compact_after = true;
    } else if (rest[i] == "--dump-metrics") {
      dump_metrics = true;
    } else if (rest[i] == "--trace-out" && i + 1 < rest.size()) {
      trace_out = rest[++i];
    } else if (rest[i] == "--sync-every-append") {
      options.sync_every_append = true;
    } else if (rest[i] == "--partitions" && i + 1 < rest.size()) {
      const long n = std::atol(rest[++i].c_str());
      if (n < 1) return Usage();
      popts.partitions = static_cast<size_t>(n);
    } else if (rest[i] == "--out" && i + 1 < rest.size()) {
      out_path = rest[++i];
    } else if (rest[i] == "--spec" && i + 1 < rest.size()) {
      serve_spec = rest[++i];
    } else if (rest[i].rfind("--", 0) != 0 && tsv_path.empty()) {
      tsv_path = rest[i];
    } else {
      return Usage();
    }
  }
  if (!fail_at.empty()) ArmFailAt(fail_at);
  if (!trace_out.empty()) ltm::obs::TraceRecorder::Global().Enable();

  if (command == "verify") {
    auto report = ltm::store::PartitionedTruthStore::Verify(dir);
    if (!report.ok()) return Fail(report.status());
    std::printf("%s\n", report->Summary().c_str());
    // Nonzero on any invariant violation — a range overlap or gap in the
    // partition map, a failing child — so CI can gate on it.
    return report->ok() ? 0 : 1;
  }

  // The serve spec carries store-level knobs (block_cache_mb,
  // bloom_bits_per_key, partitions), so it must be parsed before the
  // store opens. An explicit --partitions wins over the spec key.
  auto serve_options = ltm::serve::ParseServeSpec(serve_spec);
  if (!serve_options.ok()) return Fail(serve_options.status());
  options = serve_options->ApplyToStore(options);
  if (popts.partitions == 1) popts.partitions = serve_options->partitions;

  auto store = ltm::store::PartitionedTruthStore::Open(dir, popts);
  if (!store.ok()) return Fail(store.status());

  if (command == "ingest") {
    if (tsv_path.empty()) return Usage();
    auto raw = ltm::LoadRawDatabaseFromTsv(tsv_path);
    if (!raw.ok()) return Fail(raw.status());
    // Ingest fast path: raw rows go straight to the WAL — no fact table
    // or claim graph is built for an append.
    ltm::Status st = (*store)->AppendRaw(*raw);
    if (!st.ok()) return Fail(st);
    std::fprintf(stderr, "appended %zu row(s) from %s\n", raw->NumRows(),
                 tsv_path.c_str());
    if (flush_after) {
      st = (*store)->Flush();
      if (!st.ok()) return Fail(st);
      std::fprintf(stderr, "flushed\n");
    }
    if (compact_after) {
      st = (*store)->Compact();
      if (!st.ok()) return Fail(st);
      std::fprintf(stderr, "compacted\n");
    }
  } else if (command == "flush") {
    ltm::Status st = (*store)->Flush();
    if (!st.ok()) return Fail(st);
  } else if (command == "compact") {
    ltm::Status st = (*store)->Compact();
    if (!st.ok()) return Fail(st);
  } else if (command == "inspect") {
    const ltm::store::TruthStoreStats stats = (*store)->Stats();
    PrintStatsHeader(stats);
    const ltm::store::PartitionMap map = (*store)->partition_map();
    const auto per_part = (*store)->PartitionStats();
    const auto per_segs = (*store)->PartitionSegments();
    std::printf("partition map:        generation %llu, %zu partition(s), "
                "next id %llu\n",
                static_cast<unsigned long long>(map.generation),
                map.entries.size(),
                static_cast<unsigned long long>(map.next_partition_id));
    for (size_t p = 0; p < map.entries.size(); ++p) {
      const auto& entry = map.entries[p];
      const auto& ps = per_part[p];
      std::printf("partition %s:   id=%llu range=%s epoch=%llu "
                  "segments=%zu (%llu row(s)) memtable=%zu\n",
                  entry.dir.c_str(),
                  static_cast<unsigned long long>(entry.id),
                  entry.RangeString().c_str(),
                  static_cast<unsigned long long>(ps.epoch), ps.num_segments,
                  static_cast<unsigned long long>(ps.segment_rows),
                  ps.memtable_rows);
      if (const int rc =
              PrintLevelLayout(dir + "/" + entry.dir, per_segs[p], "  ");
          rc != 0) {
        return rc;
      }
    }
    PrintStatsFooter(*(*store)->metrics());
  } else if (command == "materialize") {
    if (out_path.empty()) return Usage();
    auto ds = (*store)->Materialize();
    if (!ds.ok()) return Fail(ds.status());
    ltm::Status st = ltm::WriteRawDatabaseToTsv(ds->raw, out_path);
    if (!st.ok()) return Fail(st);
    std::fprintf(stderr, "materialized %zu row(s) to %s\n",
                 ds->raw.NumRows(), out_path.c_str());
  } else if (command == "serve") {
    // Read path: bootstrap a pipeline from the store and answer the
    // query file through a ServeSession (epoch-pinned snapshot reads).
    if (tsv_path.empty()) return Usage();
    std::ifstream in(tsv_path);
    if (!in) {
      std::fprintf(stderr, "error: cannot read %s\n", tsv_path.c_str());
      return 1;
    }
    std::vector<ltm::serve::FactRef> queries;
    std::string line;
    while (std::getline(in, line)) {
      const std::string_view trimmed = ltm::Trim(line);
      if (trimmed.empty() || trimmed.front() == '#') continue;
      const std::vector<std::string> fields = ltm::Split(trimmed, '\t');
      if (fields.size() != 2) {
        std::fprintf(stderr, "error: %s: want entity<TAB>attribute rows\n",
                     tsv_path.c_str());
        return 1;
      }
      ltm::serve::FactRef ref;
      ref.entity = fields[0];
      ref.attribute = fields[1];
      queries.push_back(std::move(ref));
    }
    const ltm::store::TruthStoreStats stats = (*store)->Stats();
    ltm::ext::StreamingOptions stream_opts;
    stream_opts.ltm = ltm::LtmOptions::ScaledDefaults(stats.segment_rows +
                                                      stats.memtable_rows);
    ltm::ext::StreamingPipeline pipeline(stream_opts);
    ltm::RunContext boot_ctx;
    boot_ctx.metrics = &ltm::obs::MetricsRegistry::Global();
    ltm::Status st = pipeline.BootstrapFromStore(store->get(), boot_ctx);
    if (!st.ok()) return Fail(st);
    auto session = ltm::serve::ServeSession::Create(&pipeline, *serve_options);
    if (!session.ok()) return Fail(session.status());
    auto posteriors = (*session)->QueryBatch(queries);
    if (!posteriors.ok()) return Fail(posteriors.status());
    for (size_t i = 0; i < queries.size(); ++i) {
      std::printf("%s\t%s\t%.6f\n", queries[i].entity.c_str(),
                  queries[i].attribute.c_str(), (*posteriors)[i]);
    }
    const ltm::obs::MetricsRegistry& metrics = *(*store)->metrics();
    std::fprintf(stderr,
                 "block cache: %llu hit(s) %llu miss(es) %llu eviction(s); "
                 "bloom point skips: %llu\n",
                 Count(metrics, "ltm_cache_block_hits_total"),
                 Count(metrics, "ltm_cache_block_misses_total"),
                 Count(metrics, "ltm_cache_block_evictions_total"),
                 Count(metrics, "ltm_store_bloom_point_skips_total"));
  } else if (command != "stats") {
    return Usage();
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
