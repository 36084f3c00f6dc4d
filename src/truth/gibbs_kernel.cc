#include "truth/gibbs_kernel.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace ltm {

void LogCountTables::Reset(
    const std::array<std::array<double, 2>, 2>& alpha) {
  alpha_ = alpha;
  for (int i = 0; i < 2; ++i) {
    alpha_sum_[i] = alpha_[i][0] + alpha_[i][1];
    den_[i].clear();
    for (int j = 0; j < 2; ++j) num_[i][j].clear();
  }
}

void LogCountTables::Grow(std::vector<double>* t, double offset,
                          size_t needed) {
  size_t new_size = std::max<size_t>(t->size() * 2, 64);
  new_size = std::max(new_size, needed + 1);
  new_size = std::min(new_size, kMaxEntries);
  size_t k = t->size();
  t->resize(new_size);
  for (; k < new_size; ++k) {
    (*t)[k] = std::log(static_cast<double>(k) + offset);
  }
}

double FusedFlipLogOdds(const ClaimGraph& graph, FactId f, int cur,
                        const std::vector<int64_t>& counts,
                        const std::array<double, 2>& log_beta,
                        LogCountTables* tables) {
  const int other = 1 - cur;
  double delta = log_beta[other] - log_beta[cur];
  for (uint32_t entry : graph.FactClaims(f)) {
    const uint32_t s = ClaimGraph::PackedId(entry);
    const int j = ClaimGraph::PackedObs(entry);
    const int64_t* c = &counts[s * 4];
    const int64_t n_other_j = c[other * 2 + j];
    const int64_t n_other = c[other * 2] + c[other * 2 + 1];
    // Fact f's own claim is counted under cur, so the self-excluded
    // counts are the raw counts minus one — always >= 0.
    const int64_t n_cur_j = c[cur * 2 + j] - 1;
    const int64_t n_cur = c[cur * 2] + c[cur * 2 + 1] - 1;
    delta += tables->LogNum(other, j, n_other_j) -
             tables->LogDen(other, n_other);
    delta -= tables->LogNum(cur, j, n_cur_j) - tables->LogDen(cur, n_cur);
  }
  return delta;
}

namespace {

/// Rewrites source s's eight cached terms (FusedKernelState) from its
/// counts c = &counts[s * 4], with the subexpressions FusedFlipLogOdds
/// evaluates, so the cached values equal its per-claim ones bit for bit.
void RefreshSourceTerms(uint32_t s, const int64_t* c, LogCountTables* tables,
                        double* terms) {
  for (int cur = 0; cur < 2; ++cur) {
    const int other = 1 - cur;
    const int64_t n_other = c[other * 2] + c[other * 2 + 1];
    const int64_t n_cur = c[cur * 2] + c[cur * 2 + 1] - 1;
    for (int j = 0; j < 2; ++j) {
      double* cell = &terms[(s * 2 + j) * 4 + cur * 2];
      cell[0] = tables->LogNum(other, j, c[other * 2 + j]) -
                tables->LogDen(other, n_other);
      // With no claim of (s, j) under cur no fact reads this cell, and
      // its self-excluded count would be -1.
      const int64_t n_cur_j = c[cur * 2 + j] - 1;
      cell[1] = n_cur_j < 0 ? std::numeric_limits<double>::quiet_NaN()
                            : tables->LogNum(cur, j, n_cur_j) -
                                  tables->LogDen(cur, n_cur);
    }
  }
}

}  // namespace

int FusedSweep(const ClaimGraph& graph, std::vector<uint8_t>* truth,
               std::vector<int64_t>* counts,
               const std::array<double, 2>& log_beta, FusedKernelState* state,
               Rng* rng) {
  LogCountTables* tables = &state->tables;
  std::vector<double>& terms = state->terms;
  terms.resize(graph.NumSources() * 8);
  for (uint32_t s = 0; s < graph.NumSources(); ++s) {
    RefreshSourceTerms(s, &(*counts)[s * 4], tables, terms.data());
  }
  const FactId num_facts = static_cast<FactId>(truth->size());
  int flips = 0;
  for (FactId f = 0; f < num_facts; ++f) {
    const int cur = (*truth)[f];
    const int other = 1 - cur;
    // Same additions in the same order as FusedFlipLogOdds.
    const double* t = terms.data() + cur * 2;
    double delta = log_beta[other] - log_beta[cur];
    for (uint32_t entry : graph.FactClaims(f)) {
      const double* cell = t + static_cast<size_t>(entry) * 4;
      delta += cell[0];
      delta -= cell[1];
    }
    const double p_flip = 1.0 / (1.0 + std::exp(-delta));
    if (rng->Uniform() < p_flip) {
      ++flips;
      (*truth)[f] = static_cast<uint8_t>(other);
      for (uint32_t entry : graph.FactClaims(f)) {
        const uint32_t s = ClaimGraph::PackedId(entry);
        const int j = ClaimGraph::PackedObs(entry);
        --(*counts)[s * 4 + cur * 2 + j];
        ++(*counts)[s * 4 + other * 2 + j];
        RefreshSourceTerms(s, &(*counts)[s * 4], tables, terms.data());
      }
    }
  }
  return flips;
}

void RecountClaims(const ClaimGraph& graph,
                   const std::vector<uint8_t>& truth,
                   std::vector<int64_t>* counts) {
  std::fill(counts->begin(), counts->end(), 0);
  for (FactId f = 0; f < truth.size(); ++f) {
    const int i = truth[f];
    for (uint32_t entry : graph.FactClaims(f)) {
      ++(*counts)[ClaimGraph::PackedId(entry) * 4 + i * 2 +
                  ClaimGraph::PackedObs(entry)];
    }
  }
}

}  // namespace ltm
