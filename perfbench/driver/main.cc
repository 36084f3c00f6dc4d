// Benchmark driver: runs one workload in this process and writes the
// detail JSON (metrics with units and sample counts, work counts, the
// verdict) that perfbench/run.py turns into the result line.
//
//   ltm_perfbench --workload serve_cold --seed 7 --seconds 10 --trace 0
//       --workdir .bench_build/perfbench/work --out detail.json [--tiny]
//
// Exit status: 0 when every answer, count and thread-budget check
// passed; 1 when a check failed; 2 on bad arguments.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "harness.h"
#include "workloads.h"

int main(int argc, char** argv) {
  perfbench::RunConfig cfg;
  std::string out;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--tiny") {
      cfg.tiny = true;
      continue;
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", flag.c_str());
      return 2;
    }
    const char* value = argv[++i];
    if (flag == "--workload") {
      cfg.workload = value;
    } else if (flag == "--seed") {
      cfg.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      cfg.seconds = std::atoi(value);
    } else if (flag == "--trace") {
      cfg.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--workdir") {
      cfg.workdir = value;
    } else if (flag == "--out") {
      out = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if (!perfbench::IsWorkload(cfg.workload) || cfg.seconds < 1 ||
      cfg.workdir.empty() || out.empty()) {
    std::fprintf(stderr,
                 "usage: ltm_perfbench --workload serve_cold|serve_ingest "
                 "--seed N --seconds S --trace 0|1 --workdir DIR "
                 "--out FILE [--tiny]\n");
    return 2;
  }
  perfbench::Report report;
  perfbench::RunWorkload(cfg, &report);
  if (!report.WriteJson(out)) {
    std::fprintf(stderr, "cannot write %s\n", out.c_str());
    return 1;
  }
  return report.ok() ? 0 : 1;
}
