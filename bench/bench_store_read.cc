// Read-amplification benchmark for the block-format store: point
// lookups (bloom check -> block index binary search -> one cached/1-read
// block -> restart-array seek to the entity's rows, the read serving runs
// on a posterior-cache miss) against whole-slice materialization on the
// same multi-segment store. Writes BENCH_store_read.json; CI gates
//
//   - point-lookup p50 latency below a loose wall-clock bound, and
//   - >= 10x fewer bytes read per point query than one slice
//     materialization of the full store.
//
// Both phases run against a freshly opened store (cold block cache), so
// the byte counts are disk reads, not cache replays. Warm-cache numbers
// are reported alongside for reference but not gated.
//
// With --partitions N (N >= 2) the bench additionally measures ingest
// scale-out: the same workload written by N concurrent threads into a
// one-partition store and into an N-partition store
// (entity-range boundaries aligned with the writer split, so each
// thread lands in its own partition's WAL + memtable). The JSON gains a
// "partitioned_ingest" object with both wall times, the speedup ratio,
// and per-partition row/segment counts; CI gates the speedup at 4
// partitions with a hardware-conditional floor.
//
// Flags (for the CI smoke job):
//   --segments N      flushed segments to build (default 12, min 8)
//   --entities N      entities per segment (default 512)
//   --queries N       point lookups per phase (default 512)
//   --partitions N    also run the partitioned ingest phase (default 0)
//   --out FILE        JSON output path (default BENCH_store_read.json)

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/timer.h"
#include "data/raw_database.h"
#include "store/partitioned_store.h"
#include "store/truth_store.h"

namespace ltm {
namespace bench {
namespace {

struct ReadBenchConfig {
  int segments = 12;
  int entities_per_segment = 512;
  int queries = 512;
  int partitions = 0;  // 0 = skip the partitioned ingest phase
  std::string out = "BENCH_store_read.json";
};

std::string EntityName(int id) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "movie-%06d", id);
  return std::string(buf);
}

double PercentileUs(std::vector<double>* sorted_micros, double q) {
  if (sorted_micros->empty()) return 0.0;
  const size_t idx = static_cast<size_t>(
      q * static_cast<double>(sorted_micros->size() - 1) + 0.5);
  return (*sorted_micros)[std::min(idx, sorted_micros->size() - 1)];
}

struct PointPhase {
  uint64_t queries = 0;
  uint64_t blocks_read = 0;
  uint64_t cache_hits = 0;
  uint64_t disk_bytes = 0;
  uint64_t bloom_skips = 0;
  uint64_t zone_skips = 0;
  double p50_us = 0.0;
  double p99_us = 0.0;
};

struct IngestScale {
  double seconds = 0.0;
  uint64_t rows = 0;
  std::vector<store::TruthStoreStats> per_partition;
};

/// Writes `num_entities` x 4 claim rows with `threads` concurrent
/// writers into a fresh store carved into `partitions` ranges, boundary
/// split aligned with the writer split so at `partitions == threads`
/// every writer owns one partition's WAL + memtable. Returns wall time
/// including the final flush.
Result<IngestScale> RunPartitionedIngest(const std::string& dir,
                                         size_t partitions, int threads,
                                         int num_entities) {
  std::filesystem::remove_all(dir);
  store::PartitionedStoreOptions opts;
  opts.store.metrics = &obs::MetricsRegistry::Global();
  opts.partitions = partitions;
  for (size_t b = 1; b < partitions; ++b) {
    opts.initial_boundaries.push_back(
        EntityName(static_cast<int>(num_entities * b / partitions)));
  }
  LTM_ASSIGN_OR_RETURN(const auto store,
                       store::PartitionedTruthStore::Open(dir, opts));

  WallTimer timer;
  std::vector<Status> failures(static_cast<size_t>(threads));
  std::vector<std::thread> writers;
  for (int t = 0; t < threads; ++t) {
    writers.emplace_back([&store, &failures, t, threads, num_entities] {
      const int lo = num_entities * t / threads;
      const int hi = num_entities * (t + 1) / threads;
      for (int base = lo; base < hi; base += 256) {
        RawDatabase batch;
        const int end = std::min(base + 256, hi);
        for (int e = base; e < end; ++e) {
          const std::string entity = EntityName(e);
          for (int s = 0; s < 4; ++s) {
            batch.Add(entity, "director", "source-" + std::to_string(s));
          }
        }
        if (Status st = store->AppendRaw(batch); !st.ok()) {
          failures[static_cast<size_t>(t)] = st;
          return;
        }
      }
    });
  }
  for (std::thread& w : writers) w.join();
  for (const Status& st : failures) LTM_RETURN_IF_ERROR(st);
  LTM_RETURN_IF_ERROR(store->Flush());

  IngestScale out;
  out.seconds = timer.ElapsedSeconds();
  out.per_partition = store->PartitionStats();
  for (const store::TruthStoreStats& p : out.per_partition) {
    out.rows += p.segment_rows + p.memtable_rows;
  }
  std::filesystem::remove_all(dir);
  return out;
}

Result<PointPhase> RunPointPhase(store::PartitionedTruthStore* store,
                                 int num_entities, int queries) {
  PointPhase out;
  const std::unique_ptr<store::StorePin> pin = store->PinSnapshot();
  std::vector<double> micros;
  micros.reserve(static_cast<size_t>(queries));
  int e = 0;
  for (int q = 0; q < queries; ++q) {
    const std::string key = EntityName(e % num_entities);
    e += 997;  // prime stride spreads lookups across segments and blocks
    store::RangeScanStats rs;
    WallTimer timer;
    LTM_ASSIGN_OR_RETURN(const store::RowViews rows,
                         store->ReadRowsAt(*pin, &key, &key, &rs));
    micros.push_back(timer.ElapsedSeconds() * 1e6);
    if (rows.rows.empty()) {
      return Status::Internal("point lookup for " + key + " found no rows");
    }
    ++out.queries;
    out.blocks_read += rs.blocks_read;
    out.cache_hits += rs.block_cache_hits;
    out.disk_bytes += rs.bytes_read;
    out.bloom_skips += rs.segments_skipped_bloom;
    out.zone_skips += rs.segments_skipped;
  }
  std::sort(micros.begin(), micros.end());
  out.p50_us = PercentileUs(&micros, 0.50);
  out.p99_us = PercentileUs(&micros, 0.99);
  return out;
}

bool Run(const ReadBenchConfig& cfg) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "ltm_bench_store_read")
          .string();
  std::filesystem::remove_all(dir);
  // One process-global registry across the build/baseline/point opens, so
  // the JSON snapshot covers the whole run.
  store::PartitionedStoreOptions store_options;
  store_options.store.metrics = &obs::MetricsRegistry::Global();

  // Build: `segments` flushes over disjoint entity ranges — the layout
  // leveled compaction converges to — each entity claimed by 4 sources.
  const int num_entities = cfg.segments * cfg.entities_per_segment;
  {
    auto store = store::PartitionedTruthStore::Open(dir, store_options);
    if (!store.ok()) {
      std::fprintf(stderr, "open: %s\n", store.status().ToString().c_str());
      return false;
    }
    for (int seg = 0; seg < cfg.segments; ++seg) {
      RawDatabase batch;
      for (int i = 0; i < cfg.entities_per_segment; ++i) {
        const std::string entity =
            EntityName(seg * cfg.entities_per_segment + i);
        for (int s = 0; s < 4; ++s) {
          batch.Add(entity, "director", "source-" + std::to_string(s));
        }
      }
      if (!(*store)->AppendRaw(batch).ok() || !(*store)->Flush().ok()) {
        std::fprintf(stderr, "build ingest failed\n");
        return false;
      }
    }
  }

  // Baseline: one whole-slice materialization, cold cache (fresh open).
  uint64_t slice_bytes = 0;
  uint64_t slice_blocks = 0;
  uint64_t slice_rows = 0;
  double slice_us = 0.0;
  size_t num_segments = 0;
  uint32_t max_level = 0;
  {
    auto store = store::PartitionedTruthStore::Open(dir, store_options);
    if (!store.ok()) {
      std::fprintf(stderr, "reopen: %s\n", store.status().ToString().c_str());
      return false;
    }
    const store::TruthStoreStats stats = (*store)->Stats();
    num_segments = stats.num_segments;
    max_level = stats.max_level;
    store::RangeScanStats rs;
    WallTimer timer;
    auto slice = (*store)->MaterializeEntityRange(
        EntityName(0), EntityName(num_entities - 1), &rs);
    if (!slice.ok()) {
      std::fprintf(stderr, "slice: %s\n", slice.status().ToString().c_str());
      return false;
    }
    slice_us = timer.ElapsedSeconds() * 1e6;
    slice_bytes = rs.bytes_read;
    slice_blocks = rs.blocks_read;
    slice_rows = slice->raw.NumRows();
  }

  // Point lookups, cold cache (fresh open), then again warm.
  PointPhase cold;
  PointPhase warm;
  {
    auto store = store::PartitionedTruthStore::Open(dir, store_options);
    if (!store.ok()) {
      std::fprintf(stderr, "reopen: %s\n", store.status().ToString().c_str());
      return false;
    }
    auto phase = RunPointPhase(store->get(), num_entities, cfg.queries);
    if (!phase.ok()) {
      std::fprintf(stderr, "point(cold): %s\n",
                   phase.status().ToString().c_str());
      return false;
    }
    cold = *phase;
    phase = RunPointPhase(store->get(), num_entities, cfg.queries);
    if (!phase.ok()) {
      std::fprintf(stderr, "point(warm): %s\n",
                   phase.status().ToString().c_str());
      return false;
    }
    warm = *phase;
  }

  const double cold_bytes_per_query =
      static_cast<double>(cold.disk_bytes) / static_cast<double>(cold.queries);
  const double read_amplification =
      cold_bytes_per_query > 0.0
          ? static_cast<double>(slice_bytes) / cold_bytes_per_query
          : 0.0;

  // Optional partitioned ingest phase: same rows, same writer count,
  // 1 partition vs N partitions.
  IngestScale single_ingest;
  IngestScale parted_ingest;
  double ingest_speedup = 0.0;
  if (cfg.partitions >= 2) {
    auto one = RunPartitionedIngest(dir + "_p1", 1, cfg.partitions,
                                    num_entities);
    if (!one.ok()) {
      std::fprintf(stderr, "ingest(1p): %s\n",
                   one.status().ToString().c_str());
      return false;
    }
    single_ingest = *one;
    auto many = RunPartitionedIngest(
        dir + "_pn", static_cast<size_t>(cfg.partitions), cfg.partitions,
        num_entities);
    if (!many.ok()) {
      std::fprintf(stderr, "ingest(%dp): %s\n", cfg.partitions,
                   many.status().ToString().c_str());
      return false;
    }
    parted_ingest = *many;
    ingest_speedup = parted_ingest.seconds > 0.0
                         ? single_ingest.seconds / parted_ingest.seconds
                         : 0.0;
    std::printf(
        "partitioned ingest: %llu row(s), %d writer(s): 1 partition %.3fs, "
        "%d partitions %.3fs -> %.2fx\n",
        static_cast<unsigned long long>(parted_ingest.rows), cfg.partitions,
        single_ingest.seconds, cfg.partitions, parted_ingest.seconds,
        ingest_speedup);
    for (size_t p = 0; p < parted_ingest.per_partition.size(); ++p) {
      const store::TruthStoreStats& ps = parted_ingest.per_partition[p];
      std::printf("  partition %zu: %llu row(s), %zu segment(s)\n", p,
                  static_cast<unsigned long long>(ps.segment_rows +
                                                  ps.memtable_rows),
                  ps.num_segments);
    }
  }

  std::printf(
      "store: %zu segment(s), max level %u, %llu row(s) in slice\n"
      "slice materialize (cold): %llu byte(s), %llu block(s), %.1f us\n"
      "point lookup (cold): %.1f byte(s)/query, %.2f block(s)/query, "
      "p50 %.1f us, p99 %.1f us\n"
      "point lookup (warm): %llu/%llu blocks from cache, p50 %.1f us\n"
      "read amplification: slice reads %.1fx the bytes of a point lookup\n",
      num_segments, max_level, static_cast<unsigned long long>(slice_rows),
      static_cast<unsigned long long>(slice_bytes),
      static_cast<unsigned long long>(slice_blocks), slice_us,
      cold_bytes_per_query,
      static_cast<double>(cold.blocks_read) /
          static_cast<double>(cold.queries),
      cold.p50_us, cold.p99_us,
      static_cast<unsigned long long>(warm.cache_hits),
      static_cast<unsigned long long>(warm.blocks_read), warm.p50_us,
      read_amplification);

  std::FILE* f = std::fopen(cfg.out.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", cfg.out.c_str());
    return false;
  }
  std::fprintf(
      f,
      "{\n"
      "  \"bench\": \"store_read\",\n"
      "  \"store\": {\"segments\": %zu, \"max_level\": %u, "
      "\"entities\": %d, \"rows\": %llu},\n"
      "  \"slice_materialize\": {\"bytes\": %llu, \"blocks\": %llu, "
      "\"micros\": %.1f},\n"
      "  \"point_lookup_cold\": {\"queries\": %llu, "
      "\"bytes_per_query\": %.1f, \"blocks_per_query\": %.3f, "
      "\"zone_skips\": %llu, \"bloom_skips\": %llu, "
      "\"p50_us\": %.1f, \"p99_us\": %.1f},\n"
      "  \"point_lookup_warm\": {\"queries\": %llu, "
      "\"blocks_per_query\": %.3f, \"cache_hit_blocks\": %llu, "
      "\"p50_us\": %.1f, \"p99_us\": %.1f},\n"
      "  \"read_amplification_ratio\": %.1f,\n",
      num_segments, max_level, num_entities,
      static_cast<unsigned long long>(slice_rows),
      static_cast<unsigned long long>(slice_bytes),
      static_cast<unsigned long long>(slice_blocks), slice_us,
      static_cast<unsigned long long>(cold.queries), cold_bytes_per_query,
      static_cast<double>(cold.blocks_read) /
          static_cast<double>(cold.queries),
      static_cast<unsigned long long>(cold.zone_skips),
      static_cast<unsigned long long>(cold.bloom_skips), cold.p50_us,
      cold.p99_us, static_cast<unsigned long long>(warm.queries),
      static_cast<double>(warm.blocks_read) /
          static_cast<double>(warm.queries),
      static_cast<unsigned long long>(warm.cache_hits), warm.p50_us,
      warm.p99_us, read_amplification);
  if (cfg.partitions >= 2) {
    std::fprintf(f,
                 "  \"partitioned_ingest\": {\"partitions\": %d, "
                 "\"writer_threads\": %d, \"rows\": %llu, "
                 "\"single_store_seconds\": %.4f, "
                 "\"partitioned_seconds\": %.4f, "
                 "\"ingest_speedup\": %.3f,\n    \"per_partition\": [",
                 cfg.partitions, cfg.partitions,
                 static_cast<unsigned long long>(parted_ingest.rows),
                 single_ingest.seconds, parted_ingest.seconds,
                 ingest_speedup);
    for (size_t p = 0; p < parted_ingest.per_partition.size(); ++p) {
      const store::TruthStoreStats& ps = parted_ingest.per_partition[p];
      std::fprintf(f, "%s{\"partition\": %zu, \"rows\": %llu, "
                      "\"segments\": %zu}",
                   p == 0 ? "" : ", ", p,
                   static_cast<unsigned long long>(ps.segment_rows +
                                                   ps.memtable_rows),
                   ps.num_segments);
    }
    std::fprintf(f, "]},\n");
  }
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
  ltm::bench::ReadBenchConfig cfg;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : "";
    };
    if (std::strcmp(arg, "--segments") == 0) {
      cfg.segments = std::atoi(next());
    } else if (std::strcmp(arg, "--entities") == 0) {
      cfg.entities_per_segment = std::atoi(next());
    } else if (std::strcmp(arg, "--queries") == 0) {
      cfg.queries = std::atoi(next());
    } else if (std::strcmp(arg, "--partitions") == 0) {
      cfg.partitions = std::atoi(next());
    } else if (std::strcmp(arg, "--out") == 0) {
      cfg.out = next();
    } else {
      std::fprintf(stderr,
                   "unknown flag %s (expected --segments N, --entities N, "
                   "--queries N, --partitions N, --out FILE)\n",
                   arg);
      return 2;
    }
  }
  if (cfg.partitions < 0 || cfg.partitions == 1 || cfg.partitions > 64) {
    std::fprintf(stderr,
                 "--partitions must be 0 (off) or in [2, 64]\n");
    return 2;
  }
  if (cfg.segments < 8 || cfg.entities_per_segment <= 0 || cfg.queries <= 0 ||
      cfg.out.empty()) {
    std::fprintf(stderr,
                 "--segments must be >= 8 (the read-amp gate assumes a "
                 "multi-segment store); --entities/--queries > 0\n");
    return 2;
  }
  return ltm::bench::Run(cfg) ? 0 : 1;
}
