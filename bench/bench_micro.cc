// Google-benchmark micro-benchmarks for the hot paths: one collapsed
// Gibbs sweep, claim-graph materialization, the LTMinc
// closed form (Eq. 3), source-quality read-off, the synthetic generators,
// struct-walk vs packed-graph-walk method loops, and snapshot-load vs
// TSV-ingest.
//
// The *Struct benchmarks re-implement the pre-refactor hot loops over the
// 12-byte Claim structs that the methods used to iterate; the *Graph
// benchmarks run the loops the migrated methods use today. Run with
//   --benchmark_filter='Struct|Graph|Tsv|Snapshot'
//   --benchmark_out=BENCH_methods.json
// to emit the substrate-comparison artifact CI checks, and with
//   --benchmark_filter='GibbsSweep' --benchmark_out=BENCH_kernel.json
// to emit the fused-vs-reference Gibbs kernel comparison CI gates at
// >= 2x single-thread throughput.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "common/math_util.h"
#include "data/claim_graph.h"
#include "data/dataset.h"
#include "data/snapshot.h"
#include "data/tsv_io.h"
#include "store/partitioned_store.h"
#include "store/truth_store.h"
#include "store/wal.h"
#include "synth/ltm_process.h"
#include "synth/movie_simulator.h"
#include "truth/ltm.h"
#include "truth/ltm_incremental.h"
#include "truth/source_quality.h"

namespace ltm {
namespace {

const synth::LtmProcessData& SharedProcessData(size_t facts) {
  static auto* cache =
      new std::map<size_t, synth::LtmProcessData>();
  auto it = cache->find(facts);
  if (it == cache->end()) {
    synth::LtmProcessOptions gen;
    gen.num_facts = facts;
    gen.num_sources = 20;
    it = cache->emplace(facts, synth::GenerateLtmProcess(gen)).first;
  }
  return it->second;
}

const Dataset& SharedMovieDataset(size_t movies) {
  static auto* cache = new std::map<size_t, Dataset>();
  auto it = cache->find(movies);
  if (it == cache->end()) {
    synth::MovieSimOptions gen;
    gen.num_movies = movies;
    it = cache->emplace(movies, synth::GenerateMovieDataset(gen)).first;
  }
  return it->second;
}

/// The array-of-structs claim layout every method iterated before the
/// packed CSR graph: 12-byte Claim structs, fact-major, with per-fact
/// offsets. Unpacked from the movie world's graph so the *Struct
/// baselines below walk the same claims in the same order.
struct ClaimStructs {
  std::vector<Claim> claims;
  std::vector<uint32_t> fact_offsets;  // size NumFacts()+1
  size_t num_sources = 0;

  size_t NumFacts() const { return fact_offsets.size() - 1; }
  std::span<const Claim> OfFact(FactId f) const {
    return std::span<const Claim>(claims.data() + fact_offsets[f],
                                  fact_offsets[f + 1] - fact_offsets[f]);
  }
};

const ClaimStructs& SharedMovieStructs(size_t movies) {
  static auto* cache = new std::map<size_t, ClaimStructs>();
  auto it = cache->find(movies);
  if (it == cache->end()) {
    const ClaimGraph& graph = SharedMovieDataset(movies).graph;
    ClaimStructs structs;
    structs.num_sources = graph.NumSources();
    structs.fact_offsets = graph.fact_offsets();
    for (FactId f = 0; f < graph.NumFacts(); ++f) {
      for (uint32_t entry : graph.FactClaims(f)) {
        structs.claims.push_back({f, ClaimGraph::PackedId(entry),
                                  ClaimGraph::PackedObs(entry) == 1});
      }
    }
    it = cache->emplace(movies, std::move(structs)).first;
  }
  return it->second;
}

std::string BenchFilePath(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

// The reference (bit-pinned) kernel: two LogConditional passes per fact,
// four std::log calls per packed entry. BM_GibbsSweepFused below runs the
// same sweep on the fused kernel; CI emits both into BENCH_kernel.json
// (filter 'GibbsSweep') and gates fused >= 2x reference.
void BM_GibbsSweep(benchmark::State& state) {
  const auto& data = SharedProcessData(state.range(0));
  LtmOptions opts = LtmOptions::ScaledDefaults(data.graph.NumFacts());
  opts.kernel = LtmKernel::kReference;
  LtmGibbs sampler(data.graph, opts);
  for (auto _ : state) {
    sampler.RunSweep();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(data.graph.NumClaims()));
}
BENCHMARK(BM_GibbsSweep)->Arg(1000)->Arg(10000);

// The fused log-odds kernel: one adjacency pass per fact, all
// transcendentals memoized in log(count + alpha) tables.
void BM_GibbsSweepFused(benchmark::State& state) {
  const auto& data = SharedProcessData(state.range(0));
  LtmOptions opts = LtmOptions::ScaledDefaults(data.graph.NumFacts());
  opts.kernel = LtmKernel::kFused;
  LtmGibbs sampler(data.graph, opts);
  for (auto _ : state) {
    sampler.RunSweep();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(data.graph.NumClaims()));
}
BENCHMARK(BM_GibbsSweepFused)->Arg(1000)->Arg(10000);

// Sharded sweep on the production default kernel (kAuto: reference at
// one shard, fused beyond), so the curve shows the compounded
// kernel-times-sharding throughput a `threads=N` spec actually gets.
// Real time, not the calling thread's CPU time: the shards run on pool
// workers, so CPU time would inflate items/s by about the shard count.
void BM_ShardedGibbsSweep(benchmark::State& state) {
  const auto& data = SharedProcessData(10000);
  LtmOptions opts = LtmOptions::ScaledDefaults(data.graph.NumFacts());
  opts.threads = static_cast<int>(state.range(0));
  LtmGibbs sampler(data.graph, opts);
  for (auto _ : state) {
    sampler.RunSweep();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(data.graph.NumClaims()));
}
BENCHMARK(BM_ShardedGibbsSweep)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

// Definition 3 claim materialization straight into the packed CSR graph.
void BM_ClaimGraphBuild(benchmark::State& state) {
  const Dataset& ds = SharedMovieDataset(state.range(0));
  for (auto _ : state) {
    ClaimGraph graph = ClaimGraph::Build(ds.raw, ds.facts);
    benchmark::DoNotOptimize(graph.NumClaims());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(ds.graph.NumClaims()));
}
BENCHMARK(BM_ClaimGraphBuild)->Arg(1000)->Arg(4000);

// ---------------------------------------------------------------------------
// Struct-walk vs graph-walk: one TruthFinder fixed-point iteration.

constexpr double kTrustCap = 1.0 - 1e-9;
constexpr double kDampening = 0.3;

void BM_TruthFinderIterStruct(benchmark::State& state) {
  const ClaimStructs& table = SharedMovieStructs(8000);
  std::vector<double> trust(table.num_sources, 0.8);
  std::vector<double> conf(table.NumFacts(), 0.0);
  std::vector<double> sum(table.num_sources);
  std::vector<size_t> n(table.num_sources);
  for (auto _ : state) {
    for (FactId f = 0; f < table.NumFacts(); ++f) {
      double sigma = 0.0;
      for (const Claim& c : table.OfFact(f)) {
        if (!c.observation) continue;
        sigma += -std::log(1.0 - std::min(trust[c.source], kTrustCap));
      }
      conf[f] = Sigmoid(kDampening * sigma);
    }
    std::fill(sum.begin(), sum.end(), 0.0);
    std::fill(n.begin(), n.end(), 0);
    for (const Claim& c : table.claims) {
      if (!c.observation) continue;
      sum[c.source] += conf[c.fact];
      ++n[c.source];
    }
    for (SourceId s = 0; s < table.num_sources; ++s) {
      if (n[s] > 0) trust[s] = sum[s] / static_cast<double>(n[s]);
    }
    benchmark::DoNotOptimize(trust.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(table.claims.size()));
}
BENCHMARK(BM_TruthFinderIterStruct);

void BM_TruthFinderIterGraph(benchmark::State& state) {
  const ClaimGraph& graph = SharedMovieDataset(8000).graph;
  std::vector<double> trust(graph.NumSources(), 0.8);
  std::vector<double> weight(graph.NumSources(), 0.0);
  std::vector<double> conf(graph.NumFacts(), 0.0);
  for (auto _ : state) {
    // The migrated method's loop: one log per source, then a pure
    // streaming pass over the packed adjacency.
    for (SourceId s = 0; s < graph.NumSources(); ++s) {
      weight[s] = -std::log(1.0 - std::min(trust[s], kTrustCap));
    }
    for (FactId f = 0; f < graph.NumFacts(); ++f) {
      double sigma = 0.0;
      for (uint32_t entry : graph.FactClaims(f)) {
        if (!ClaimGraph::PackedObs(entry)) continue;
        sigma += weight[ClaimGraph::PackedId(entry)];
      }
      conf[f] = Sigmoid(kDampening * sigma);
    }
    for (SourceId s = 0; s < graph.NumSources(); ++s) {
      double sum = 0.0;
      for (uint32_t entry : graph.SourceClaims(s)) {
        if (!ClaimGraph::PackedObs(entry)) continue;
        sum += conf[ClaimGraph::PackedId(entry)];
      }
      const uint32_t n = graph.SourcePositiveCount(s);
      if (n > 0) trust[s] = sum / static_cast<double>(n);
    }
    benchmark::DoNotOptimize(trust.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(graph.NumClaims()));
}
BENCHMARK(BM_TruthFinderIterGraph);

// ---------------------------------------------------------------------------
// Struct-walk vs graph-walk: voting.

void BM_VotingStruct(benchmark::State& state) {
  const ClaimStructs& table = SharedMovieStructs(8000);
  std::vector<double> prob(table.NumFacts(), 0.0);
  for (auto _ : state) {
    for (FactId f = 0; f < table.NumFacts(); ++f) {
      auto fact_claims = table.OfFact(f);
      if (fact_claims.empty()) continue;
      size_t pos = 0;
      for (const Claim& c : fact_claims) {
        if (c.observation) ++pos;
      }
      prob[f] = static_cast<double>(pos) /
                static_cast<double>(fact_claims.size());
    }
    benchmark::DoNotOptimize(prob.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(table.claims.size()));
}
BENCHMARK(BM_VotingStruct);

void BM_VotingGraph(benchmark::State& state) {
  const ClaimGraph& graph = SharedMovieDataset(8000).graph;
  std::vector<double> prob(graph.NumFacts(), 0.0);
  for (auto _ : state) {
    // The migrated method's loop: derived stats only, no adjacency walk.
    for (FactId f = 0; f < graph.NumFacts(); ++f) {
      const uint32_t degree = graph.FactDegree(f);
      if (degree == 0) continue;
      prob[f] = static_cast<double>(graph.FactPositiveCount(f)) /
                static_cast<double>(degree);
    }
    benchmark::DoNotOptimize(prob.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(graph.NumClaims()));
}
BENCHMARK(BM_VotingGraph);

// ---------------------------------------------------------------------------
// Snapshot-load vs TSV-ingest: the repeat-run path the snapshot format
// exists for.

void BM_DatasetIngestTsv(benchmark::State& state) {
  const Dataset& ds = SharedMovieDataset(4000);
  const std::string path = BenchFilePath("ltm_bench_micro.tsv");
  Status st = WriteRawDatabaseToTsv(ds.raw, path);
  if (!st.ok()) {
    state.SkipWithError(st.ToString().c_str());
    return;
  }
  for (auto _ : state) {
    auto raw = LoadRawDatabaseFromTsv(path);
    if (!raw.ok()) {
      state.SkipWithError(raw.status().ToString().c_str());
      return;
    }
    Dataset loaded = Dataset::FromRaw("bench", std::move(raw).value());
    benchmark::DoNotOptimize(loaded.graph.NumClaims());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(ds.graph.NumClaims()));
  std::remove(path.c_str());
}
BENCHMARK(BM_DatasetIngestTsv);

void BM_DatasetLoadSnapshot(benchmark::State& state) {
  const Dataset& ds = SharedMovieDataset(4000);
  const std::string path = BenchFilePath("ltm_bench_micro.snap");
  Status st = ds.SaveSnapshot(path);
  if (!st.ok()) {
    state.SkipWithError(st.ToString().c_str());
    return;
  }
  for (auto _ : state) {
    auto loaded = Dataset::LoadSnapshot(path);
    if (!loaded.ok()) {
      state.SkipWithError(loaded.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(loaded->graph.NumClaims());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(ds.graph.NumClaims()));
  std::remove(path.c_str());
}
BENCHMARK(BM_DatasetLoadSnapshot);

// ---------------------------------------------------------------------------
// TruthStore ingest and recovery: WAL append throughput (the store's
// write hot path — buffered appends, group-commit fsync excluded) and
// WAL replay (the recovery hot path).

std::vector<store::WalRecord> SampleWalRecords(size_t count) {
  std::vector<store::WalRecord> records;
  records.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    store::WalRecord r;
    r.entity = "movie-" + std::to_string(i % 4096);
    r.attribute = "director-" + std::to_string(i % 512);
    r.source = "source-" + std::to_string(i % 64);
    records.push_back(std::move(r));
  }
  return records;
}

void BM_WalAppend(benchmark::State& state) {
  const std::string path = BenchFilePath("ltm_bench_wal_append.log");
  std::remove(path.c_str());
  auto writer = store::WalWriter::Open(path);
  if (!writer.ok()) {
    state.SkipWithError(writer.status().ToString().c_str());
    return;
  }
  const std::vector<store::WalRecord> records = SampleWalRecords(1024);
  size_t i = 0;
  for (auto _ : state) {
    Status st = writer->Append(records[i++ & 1023]);
    if (!st.ok()) {
      state.SkipWithError(st.ToString().c_str());
      return;
    }
  }
  (void)writer->Sync();  // one group commit for the whole run
  state.SetItemsProcessed(state.iterations());
  std::remove(path.c_str());
}
BENCHMARK(BM_WalAppend);

void BM_StoreAppend(benchmark::State& state) {
  const std::string dir = BenchFilePath("ltm_bench_store_append");
  std::filesystem::remove_all(dir);
  auto st = store::TruthStore::Open(dir);
  if (!st.ok()) {
    state.SkipWithError(st.status().ToString().c_str());
    return;
  }
  const std::vector<store::WalRecord> records = SampleWalRecords(1024);
  size_t i = 0;
  for (auto _ : state) {
    Status s = (*st)->Append(records[i++ & 1023]);
    if (!s.ok()) {
      state.SkipWithError(s.ToString().c_str());
      return;
    }
  }
  (void)(*st)->Sync();
  state.SetItemsProcessed(state.iterations());
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_StoreAppend);

void BM_WalReplayRecovery(benchmark::State& state) {
  const size_t num_records = static_cast<size_t>(state.range(0));
  const std::string path = BenchFilePath("ltm_bench_wal_replay.log");
  std::remove(path.c_str());
  {
    auto writer = store::WalWriter::Open(path);
    if (!writer.ok()) {
      state.SkipWithError(writer.status().ToString().c_str());
      return;
    }
    for (const store::WalRecord& r : SampleWalRecords(num_records)) {
      (void)writer->Append(r);
    }
    (void)writer->Sync();
  }
  for (auto _ : state) {
    auto replay = store::ReplayWal(path);
    if (!replay.ok()) {
      state.SkipWithError(replay.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(replay->records.size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(num_records));
  std::remove(path.c_str());
}
BENCHMARK(BM_WalReplayRecovery)->Arg(10000)->Arg(100000);

// ---------------------------------------------------------------------------
// Block-format read path: point lookup (the entity read serving runs on
// a posterior-cache miss) vs slice materialization over a multi-segment
// store. Run with --benchmark_filter='StorePoint|StoreSlice'
// for the read-amplification pair; bench_store_read emits the CI-gated
// BENCH_store_read.json variant of the same comparison.

store::PartitionedTruthStore* SharedReadStore() {
  using Owned = std::unique_ptr<store::PartitionedTruthStore>;
  static auto* cached = []() -> Owned* {
    const std::string dir = BenchFilePath("ltm_bench_micro_store_read");
    std::filesystem::remove_all(dir);
    auto opened = store::PartitionedTruthStore::Open(dir);
    if (!opened.ok()) return new Owned();
    // Eight flushed segments over disjoint entity ranges — the shape
    // leveled compaction converges to — so a point read must pick the one
    // covering segment (zone stats + bloom) and then one data block.
    for (int seg = 0; seg < 8; ++seg) {
      RawDatabase batch;
      for (int i = 0; i < 512; ++i) {
        char entity[32];
        std::snprintf(entity, sizeof entity, "movie-%05d", seg * 512 + i);
        for (int s = 0; s < 4; ++s) {
          batch.Add(entity, "director", "source-" + std::to_string(s));
        }
      }
      if (!(*opened)->AppendRaw(batch).ok() || !(*opened)->Flush().ok()) {
        return new Owned();
      }
    }
    return new Owned(std::move(*opened));
  }();
  return cached->get();
}

void BM_StorePointLookup(benchmark::State& state) {
  store::PartitionedTruthStore* ts = SharedReadStore();
  if (ts == nullptr) {
    state.SkipWithError("read-store fixture build failed");
    return;
  }
  const std::unique_ptr<store::StorePin> pin = ts->PinSnapshot();
  uint64_t blocks = 0;
  uint64_t disk_bytes = 0;
  uint64_t queries = 0;
  int e = 0;
  for (auto _ : state) {
    char entity[32];
    std::snprintf(entity, sizeof entity, "movie-%05d", e & 4095);
    e += 997;  // prime stride: consecutive lookups land in far-apart blocks
    const std::string key(entity);
    store::RangeScanStats rs;
    auto rows = ts->ReadRowsAt(*pin, &key, &key, &rs);
    if (!rows.ok()) {
      state.SkipWithError(rows.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(rows->rows.data());
    blocks += rs.blocks_read;
    disk_bytes += rs.bytes_read;
    ++queries;
  }
  if (queries > 0) {
    state.counters["blocks_per_query"] =
        static_cast<double>(blocks) / static_cast<double>(queries);
    state.counters["disk_bytes_per_query"] =
        static_cast<double>(disk_bytes) / static_cast<double>(queries);
  }
  state.SetItemsProcessed(static_cast<int64_t>(queries));
}
BENCHMARK(BM_StorePointLookup);

void BM_StoreSliceMaterialize(benchmark::State& state) {
  store::PartitionedTruthStore* ts = SharedReadStore();
  if (ts == nullptr) {
    state.SkipWithError("read-store fixture build failed");
    return;
  }
  const std::string min = "movie-00000";
  const std::string max = "movie-99999";
  uint64_t blocks = 0;
  uint64_t queries = 0;
  for (auto _ : state) {
    store::RangeScanStats rs;
    auto slice = ts->MaterializeEntityRange(min, max, &rs);
    if (!slice.ok()) {
      state.SkipWithError(slice.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(slice->raw.NumRows());
    blocks += rs.blocks_read;
    ++queries;
  }
  if (queries > 0) {
    state.counters["blocks_per_query"] =
        static_cast<double>(blocks) / static_cast<double>(queries);
  }
  state.SetItemsProcessed(static_cast<int64_t>(queries));
}
BENCHMARK(BM_StoreSliceMaterialize);

void BM_LtmIncPredict(benchmark::State& state) {
  const auto& data = SharedProcessData(state.range(0));
  LtmOptions opts = LtmOptions::ScaledDefaults(data.graph.NumFacts());
  std::vector<double> p(data.graph.NumFacts(), 0.7);
  SourceQuality quality =
      EstimateSourceQuality(data.graph, p, opts.alpha0, opts.alpha1);
  LtmIncremental inc(quality, opts);
  FactTable facts;
  for (auto _ : state) {
    TruthEstimate est = inc.Score(facts, data.graph);
    benchmark::DoNotOptimize(est.probability.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(data.graph.NumClaims()));
}
BENCHMARK(BM_LtmIncPredict)->Arg(1000)->Arg(10000);

void BM_SourceQualityReadOff(benchmark::State& state) {
  const auto& data = SharedProcessData(10000);
  std::vector<double> p(data.graph.NumFacts(), 0.6);
  LtmOptions opts;
  for (auto _ : state) {
    SourceQuality q =
        EstimateSourceQuality(data.graph, p, opts.alpha0, opts.alpha1);
    benchmark::DoNotOptimize(q.sensitivity.data());
  }
}
BENCHMARK(BM_SourceQualityReadOff);

void BM_MovieGenerator(benchmark::State& state) {
  for (auto _ : state) {
    synth::MovieSimOptions gen;
    gen.num_movies = state.range(0);
    Dataset ds = synth::GenerateMovieDataset(gen);
    benchmark::DoNotOptimize(ds.graph.NumClaims());
  }
}
BENCHMARK(BM_MovieGenerator)->Arg(1000);

}  // namespace
}  // namespace ltm

BENCHMARK_MAIN();
