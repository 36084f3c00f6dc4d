// Reproduces paper Table 9: wall-clock runtime of every method versus the
// number of entities (3k/6k/9k/12k/15k movies), averaged over several
// runs. Iterative methods run a fixed 100 iterations for fairness, as in
// the paper; LTMinc reuses pre-learned source quality.
//
// Flags:
//   --movies N            shrink the movie world (default 15073)

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/timer.h"
#include "eval/table_printer.h"
#include "truth/ltm.h"
#include "truth/ltm_incremental.h"
#include "truth/registry.h"

namespace ltm {
namespace bench {
namespace {

constexpr int kRepeats = 3;

double TimeMethod(TruthMethod* method, const Dataset& data) {
  double total = 0.0;
  for (int rep = 0; rep < kRepeats; ++rep) {
    WallTimer timer;
    TruthEstimate est = method->Score(data.facts, data.graph);
    total += timer.ElapsedSeconds();
    if (est.probability.size() != data.facts.NumFacts()) return -1.0;
  }
  return total / kRepeats;
}

void Run(size_t movies) {
  // Subsets are carved from one full-scale world so claim distributions
  // match across sizes.
  BenchDataset full = MakeMovieBench(movies);
  const std::vector<size_t> sizes{3000, 6000, 9000, 12000, 15073};

  std::vector<Dataset> subsets;
  for (size_t n : sizes) {
    // Subset keeps entities with id < bound; entity ids follow movie
    // generation order, so this matches "first n movies".
    subsets.push_back(full.data.Subset(full.data.raw.NumEntities() * n /
                                       sizes.back()));
  }

  // Source quality for LTMinc, learned once on the full data.
  LtmOptions opts = full.ltm_options;
  opts.iterations = 100;
  opts.burnin = 20;
  opts.sample_gap = 4;
  LatentTruthModel model(opts);
  SourceQuality quality;
  model.RunWithQuality(full.data.graph, &quality);

  PrintHeader("Table 9: runtimes (seconds) vs #entities on the movie data");
  std::vector<std::string> header{"Method"};
  for (size_t i = 0; i < sizes.size(); ++i) {
    header.push_back(std::to_string(sizes[i] / 1000) + "k");
  }
  TablePrinter table(header);

  // Order as in the paper: cheap streaming methods first, LTM last.
  std::vector<std::string> order{"Voting",           "AvgLog",
                                 "HubAuthority",     "PooledInvestment",
                                 "TruthFinder",      "Investment",
                                 "3-Estimates",      "LTM"};

  {
    std::vector<double> times;
    for (const Dataset& sub : subsets) {
      LtmIncremental inc(quality, opts);
      times.push_back(TimeMethod(&inc, sub));
    }
    table.AddRow("LTMinc", times, 4);
  }
  for (const std::string& name : order) {
    auto method = CreateMethod(name, opts);
    std::vector<double> times;
    for (const Dataset& sub : subsets) {
      times.push_back(TimeMethod(method->get(), sub));
    }
    table.AddRow(name, times, 4);
  }
  table.Print();
  std::printf(
      "\nExpected shape (paper): all methods scale linearly; Voting and\n"
      "LTMinc are the cheapest; LTM costs a small constant factor (3-5x)\n"
      "over the simpler iterative baselines.\n");
}

}  // namespace
}  // namespace bench
}  // namespace ltm

int main(int argc, char** argv) {
  size_t movies = 15073;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--movies") == 0 && i + 1 < argc) {
      const long n = std::atol(argv[++i]);
      if (n <= 0) {
        std::fprintf(stderr, "--movies must be > 0\n");
        return 2;
      }
      movies = static_cast<size_t>(n);
    } else {
      std::fprintf(stderr, "unknown flag %s (expected --movies N)\n",
                   argv[i]);
      return 2;
    }
  }
  ltm::bench::Run(movies);
  return 0;
}
