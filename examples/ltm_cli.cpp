// ltm_cli: command-line truth finding over a TSV raw database, a binary
// dataset snapshot, or a durable store directory.
//
//   ltm_cli <raw.tsv> [--method LTM] [--threshold 0.5] [--out truth.tsv]
//           [--quality quality.tsv] [--iterations 200] [--seed 42]
//           [--labels labels.tsv] [--save-snapshot data.snap]
//   ltm_cli <data.snap> --snapshot [...]
//   ltm_cli --store DIR [--append chunk.tsv] [--flush] [...]
//   ltm_cli --store DIR --serve-queries q.tsv [--serve-spec "serve(...)"]
//
// Input: one `entity<TAB>attribute<TAB>source` triple per line, or (with
// --snapshot) a binary snapshot written by --save-snapshot — repeat runs
// then skip TSV parsing and claim materialization entirely. With --store,
// the dataset is materialized from a store directory (segments +
// WAL-recovered tail); --append first durably ingests a TSV chunk into
// the store's WAL (--flush also compacts the memtable into a segment).
// --serve-queries answers `entity<TAB>attribute` rows online through a
// serve::ServeSession (epoch-pinned reads over a pipeline bootstrapped
// from the store) instead of running a batch method.
// Output: per-fact probabilities/decisions; optional per-source quality;
// optional evaluation against a label file.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <utility>
#include <string>
#include <vector>

#include "common/string_util.h"
#include "data/tsv_io.h"
#include "eval/metrics.h"
#include "eval/table_printer.h"
#include "ext/streaming.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/serve_options.h"
#include "serve/serve_session.h"
#include "store/partitioned_store.h"
#include "store/truth_store.h"
#include "truth/ltm.h"
#include "truth/registry.h"

namespace {

void Usage() {
  std::fprintf(
      stderr,
      "usage: ltm_cli <raw.tsv|data.snap> [--method SPEC] [--threshold P]\n"
      "               [--out truth.tsv] [--quality quality.tsv]\n"
      "               [--iterations N] [--seed S] [--labels labels.tsv]\n"
      "               [--deadline SECONDS] [--trace]\n"
      "               [--dump-metrics] [--trace-out FILE]\n"
      "               [--snapshot] [--save-snapshot data.snap]\n"
      "       ltm_cli --store DIR [--append chunk.tsv] [--flush] [...]\n"
      "       ltm_cli --store DIR --serve-queries q.tsv "
      "[--serve-spec \"serve(...)\"]\n"
      "SPEC is a method name, optionally parameterized:\n"
      "  LTM  \"LTM(iterations=200,seed=7)\"  \"TruthFinder(rho=0.5,gamma=0.3)\"\n"
      "methods:");
  for (const std::string& name : ltm::MethodNames()) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fprintf(stderr, "\n");
}

// Shared tail for every successful exit path: render the process metrics
// registry (--dump-metrics) and persist recorded spans (--trace-out).
int FinishObservability(bool dump_metrics, const std::string& trace_out) {
  if (dump_metrics) {
    std::fputs(ltm::obs::MetricsRegistry::Global().RenderText().c_str(),
               stdout);
  }
  if (!trace_out.empty()) {
    ltm::Status st = ltm::obs::TraceRecorder::Global().WriteJson(trace_out);
    if (!st.ok()) {
      std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
      return 1;
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    Usage();
    return 2;
  }
  // The positional input is optional when --store names the data source.
  std::string raw_path;
  int first_flag = 1;
  if (std::string(argv[1]).rfind("--", 0) != 0) {
    raw_path = argv[1];
    first_flag = 2;
  }
  std::map<std::string, std::string> flags;
  for (int i = first_flag; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) {
      Usage();
      return 2;
    }
    // Value-less flags (e.g. --trace) are stored as "1".
    const std::string flag_name = key.substr(2);
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      ++i;
      flags[flag_name] = std::string(argv[i]);
    } else {
      flags[flag_name] = std::string("1");
    }
  }

  if (raw_path.empty() && !flags.count("store")) {
    Usage();
    return 2;
  }
  if (!raw_path.empty() && flags.count("store")) {
    std::fprintf(stderr,
                 "error: give either a positional input file or --store, not "
                 "both (use --store DIR --append %s to ingest the file)\n",
                 raw_path.c_str());
    return 2;
  }

  const bool dump_metrics = flags.count("dump-metrics") > 0;
  const std::string trace_out =
      flags.count("trace-out") ? flags["trace-out"] : std::string();
  if (!trace_out.empty()) ltm::obs::TraceRecorder::Global().Enable();

  ltm::Dataset ds;
  if (flags.count("store")) {
    // The open keeps the directory's partition layout (a legacy
    // single-store directory converts to one partition).
    ltm::store::PartitionedStoreOptions store_options;
    store_options.store.metrics = &ltm::obs::MetricsRegistry::Global();
    auto store = ltm::store::PartitionedTruthStore::Open(flags["store"],
                                                         store_options);
    if (!store.ok()) {
      std::fprintf(stderr, "error: %s\n", store.status().ToString().c_str());
      return 1;
    }
    if (flags.count("append")) {
      auto chunk_raw = ltm::LoadRawDatabaseFromTsv(flags["append"]);
      if (!chunk_raw.ok()) {
        std::fprintf(stderr, "error: %s\n",
                     chunk_raw.status().ToString().c_str());
        return 1;
      }
      ltm::Status st = (*store)->AppendRaw(*chunk_raw);
      if (!st.ok()) {
        std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
        return 1;
      }
      std::fprintf(stderr, "appended %zu row(s) from %s\n",
                   chunk_raw->NumRows(), flags["append"].c_str());
    }
    if (flags.count("flush")) {
      ltm::Status st = (*store)->Flush();
      if (!st.ok()) {
        std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
        return 1;
      }
    }
    if (flags.count("serve-queries")) {
      // Online read path: no batch method run — bootstrap a pipeline
      // from the store and serve the query file through a ServeSession.
      std::ifstream in(flags["serve-queries"]);
      if (!in) {
        std::fprintf(stderr, "error: cannot read %s\n",
                     flags["serve-queries"].c_str());
        return 1;
      }
      std::vector<ltm::serve::FactRef> queries;
      std::string line;
      while (std::getline(in, line)) {
        const std::string_view trimmed = ltm::Trim(line);
        if (trimmed.empty() || trimmed.front() == '#') continue;
        const std::vector<std::string> fields = ltm::Split(trimmed, '\t');
        if (fields.size() != 2) {
          std::fprintf(stderr,
                       "error: %s: want entity<TAB>attribute rows\n",
                       flags["serve-queries"].c_str());
          return 1;
        }
        ltm::serve::FactRef ref;
        ref.entity = fields[0];
        ref.attribute = fields[1];
        queries.push_back(std::move(ref));
      }
      auto serve_options = ltm::serve::ParseServeSpec(
          flags.count("serve-spec") ? flags["serve-spec"] : "serve");
      if (!serve_options.ok()) {
        std::fprintf(stderr, "error: %s\n",
                     serve_options.status().ToString().c_str());
        return 1;
      }
      const ltm::store::TruthStoreStats sstats = (*store)->Stats();
      ltm::ext::StreamingOptions stream_opts;
      stream_opts.ltm = ltm::LtmOptions::ScaledDefaults(sstats.segment_rows +
                                                        sstats.memtable_rows);
      ltm::ext::StreamingPipeline pipeline(stream_opts);
      ltm::RunContext boot_ctx;
      boot_ctx.metrics = &ltm::obs::MetricsRegistry::Global();
      if (ltm::Status st = pipeline.BootstrapFromStore(store->get(), boot_ctx);
          !st.ok()) {
        std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
        return 1;
      }
      auto session =
          ltm::serve::ServeSession::Create(&pipeline, *serve_options);
      if (!session.ok()) {
        std::fprintf(stderr, "error: %s\n",
                     session.status().ToString().c_str());
        return 1;
      }
      auto posteriors = (*session)->QueryBatch(queries);
      if (!posteriors.ok()) {
        std::fprintf(stderr, "error: %s\n",
                     posteriors.status().ToString().c_str());
        return 1;
      }
      for (size_t i = 0; i < queries.size(); ++i) {
        std::printf("%s\t%s\t%.6f\n", queries[i].entity.c_str(),
                    queries[i].attribute.c_str(), (*posteriors)[i]);
      }
      return FinishObservability(dump_metrics, trace_out);
    }
    auto materialized = (*store)->Materialize();
    if (!materialized.ok()) {
      std::fprintf(stderr, "error: %s\n",
                   materialized.status().ToString().c_str());
      return 1;
    }
    ds = std::move(materialized).value();
  } else if (flags.count("snapshot")) {
    auto loaded = ltm::Dataset::LoadSnapshot(raw_path);
    if (!loaded.ok()) {
      std::fprintf(stderr, "error: %s\n", loaded.status().ToString().c_str());
      return 1;
    }
    ds = std::move(loaded).value();
  } else {
    auto loaded = ltm::LoadRawDatabaseFromTsv(raw_path);
    if (!loaded.ok()) {
      std::fprintf(stderr, "error: %s\n", loaded.status().ToString().c_str());
      return 1;
    }
    ds = ltm::Dataset::FromRaw(raw_path, std::move(loaded).value());
  }
  std::fprintf(stderr, "%s\n", ds.SummaryString().c_str());

  if (flags.count("save-snapshot")) {
    ltm::Status st = ds.SaveSnapshot(flags["save-snapshot"]);
    if (!st.ok()) {
      std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "snapshot written to %s\n",
                 flags["save-snapshot"].c_str());
  }

  const std::string method_name =
      flags.count("method") ? flags["method"] : "LTM";
  const double threshold =
      flags.count("threshold") ? std::atof(flags["threshold"].c_str()) : 0.5;

  ltm::LtmOptions opts = ltm::LtmOptions::ScaledDefaults(ds.facts.NumFacts());
  if (flags.count("iterations")) {
    opts.iterations = std::atoi(flags["iterations"].c_str());
    opts.burnin = opts.iterations / 5;
  }
  if (flags.count("seed")) {
    opts.seed = std::strtoull(flags["seed"].c_str(), nullptr, 10);
  }
  ltm::Status vst = opts.Validate();
  if (!vst.ok()) {
    std::fprintf(stderr, "error: %s\n", vst.ToString().c_str());
    return 1;
  }

  auto method = ltm::CreateMethod(method_name, opts);
  if (!method.ok()) {
    std::fprintf(stderr, "error: %s\n", method.status().ToString().c_str());
    Usage();
    return 1;
  }

  // One unified run path for every method: quality, convergence trace and
  // deadline all flow through the RunContext.
  ltm::RunContext ctx;
  ctx.with_quality = flags.count("quality") > 0;
  ctx.collect_trace = flags.count("trace") > 0;
  ctx.metrics = &ltm::obs::MetricsRegistry::Global();
  if (flags.count("deadline")) {
    ctx.deadline_seconds = std::atof(flags["deadline"].c_str());
  }
  auto run = (*method)->Run(ctx, ds.facts, ds.graph);
  if (!run.ok()) {
    std::fprintf(stderr, "error: %s\n", run.status().ToString().c_str());
    return 1;
  }
  std::fprintf(stderr, "%s: %d iteration(s) in %.2fs%s\n",
               (*method)->name().c_str(), run->iterations, run->wall_seconds,
               run->converged ? "" : " (not converged)");
  if (ctx.collect_trace) {
    for (const ltm::IterationStat& stat : run->trace) {
      std::fprintf(stderr, "  iter %4d  delta %.6f  t %.3fs\n",
                   stat.iteration, stat.delta, stat.elapsed_seconds);
    }
  }

  if (flags.count("quality")) {
    if (!run->quality.has_value()) {
      std::fprintf(stderr, "error: %s does not expose source quality\n",
                   (*method)->name().c_str());
      return 1;
    }
    const ltm::SourceQuality& quality = *run->quality;
    FILE* qf = std::fopen(flags["quality"].c_str(), "w");
    if (qf == nullptr) {
      std::fprintf(stderr, "error: cannot write %s\n",
                   flags["quality"].c_str());
      return 1;
    }
    std::fprintf(qf, "# source\tsensitivity\tspecificity\tprecision\n");
    for (ltm::SourceId s = 0; s < ds.raw.NumSources(); ++s) {
      std::fprintf(qf, "%s\t%.6f\t%.6f\t%.6f\n",
                   std::string(ds.raw.sources().Get(s)).c_str(),
                   quality.sensitivity[s], quality.specificity[s],
                   quality.precision[s]);
    }
    std::fclose(qf);
    std::fprintf(stderr, "source quality written to %s\n",
                 flags["quality"].c_str());
  }
  ltm::TruthEstimate est = std::move(run.value()).estimate;

  if (flags.count("out")) {
    ltm::Status st =
        ltm::WriteTruthToTsv(ds, est.probability, threshold, flags["out"]);
    if (!st.ok()) {
      std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "truth written to %s\n", flags["out"].c_str());
  } else {
    for (ltm::FactId f = 0; f < ds.facts.NumFacts(); ++f) {
      const ltm::Fact& fact = ds.facts.fact(f);
      std::printf("%s\t%s\t%.4f\t%s\n",
                  std::string(ds.raw.entities().Get(fact.entity)).c_str(),
                  std::string(ds.raw.attributes().Get(fact.attribute)).c_str(),
                  est.probability[f],
                  est.probability[f] >= threshold ? "true" : "false");
    }
  }

  if (flags.count("labels")) {
    ltm::Status st = ltm::LoadTruthLabelsFromTsv(flags["labels"], &ds);
    if (!st.ok()) {
      std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
      return 1;
    }
    ltm::PointMetrics m =
        ltm::EvaluateAtThreshold(est.probability, ds.labels, threshold);
    std::fprintf(stderr,
                 "evaluation (%zu labeled): precision %.3f recall %.3f "
                 "accuracy %.3f F1 %.3f\n",
                 static_cast<size_t>(m.confusion.Total()), m.precision(),
                 m.recall(), m.accuracy(), m.f1());
  }
  return FinishObservability(dump_metrics, trace_out);
}
