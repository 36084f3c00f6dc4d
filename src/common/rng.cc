#include "common/rng.h"

#include <cassert>
#include <cmath>

namespace ltm {

uint64_t SplitMix64::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

Pcg32::Pcg32(uint64_t seed, uint64_t stream) : state_(0), inc_((stream << 1u) | 1u) {
  Next();
  state_ += seed;
  Next();
}

uint32_t Pcg32::Next() {
  uint64_t old = state_;
  state_ = old * 6364136223846793005ULL + inc_;
  uint32_t xorshifted = static_cast<uint32_t>(((old >> 18u) ^ old) >> 27u);
  uint32_t rot = static_cast<uint32_t>(old >> 59u);
  return (xorshifted >> rot) | (xorshifted << ((32u - rot) & 31u));
}

Rng::Rng(uint64_t seed)
    : gen_(SplitMix64(seed).Next(),
           SplitMix64(seed ^ 0xabcdef12345ULL).Next()),
      seeder_(seed ^ 0x5851f42d4c957f2dULL) {}

double Rng::Uniform() {
  // 53-bit mantissa from two 32-bit draws.
  uint64_t hi = gen_.Next();
  uint64_t lo = gen_.Next();
  uint64_t bits = ((hi << 32) | lo) >> 11;
  return static_cast<double>(bits) * 0x1.0p-53;
}

double Rng::Uniform(double lo, double hi) { return lo + (hi - lo) * Uniform(); }

uint64_t Rng::UniformInt(uint64_t n) {
  assert(n > 0);
  if (n == 1) return 0;
  // Rejection sampling over 64-bit draws to avoid modulo bias.
  uint64_t limit = UINT64_MAX - (UINT64_MAX % n);
  for (;;) {
    uint64_t v = (static_cast<uint64_t>(gen_.Next()) << 32) | gen_.Next();
    if (v < limit) return v % n;
  }
}

bool Rng::Bernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return Uniform() < p;
}

double Rng::Gamma(double shape) {
  assert(shape > 0.0);
  // Marsaglia & Tsang (2000). For shape < 1, boost via U^(1/shape).
  if (shape < 1.0) {
    double u = Uniform();
    while (u <= 0.0) u = Uniform();
    return Gamma(shape + 1.0) * std::pow(u, 1.0 / shape);
  }
  double d = shape - 1.0 / 3.0;
  double c = 1.0 / std::sqrt(9.0 * d);
  for (;;) {
    double x = Normal();
    double v = 1.0 + c * x;
    if (v <= 0.0) continue;
    v = v * v * v;
    double u = Uniform();
    while (u <= 0.0) u = Uniform();
    double x2 = x * x;
    if (u < 1.0 - 0.0331 * x2 * x2) return d * v;
    if (std::log(u) < 0.5 * x2 + d * (1.0 - v + std::log(v))) return d * v;
  }
}

double Rng::Beta(double a, double b) {
  double x = Gamma(a);
  double y = Gamma(b);
  double s = x + y;
  if (s <= 0.0) return 0.5;  // Degenerate draw; both gammas underflowed.
  return x / s;
}

double Rng::Normal() {
  if (have_cached_normal_) {
    have_cached_normal_ = false;
    return cached_normal_;
  }
  double u1 = Uniform();
  while (u1 <= 0.0) u1 = Uniform();
  double u2 = Uniform();
  double r = std::sqrt(-2.0 * std::log(u1));
  double theta = 2.0 * M_PI * u2;
  cached_normal_ = r * std::sin(theta);
  have_cached_normal_ = true;
  return r * std::cos(theta);
}

double Rng::Normal(double mu, double sigma) { return mu + sigma * Normal(); }

uint32_t Rng::Poisson(double lambda) {
  if (lambda <= 0.0) return 0;
  if (lambda > 30.0) {
    // Normal approximation with continuity correction.
    double v = Normal(lambda, std::sqrt(lambda));
    return v < 0.0 ? 0u : static_cast<uint32_t>(v + 0.5);
  }
  double l = std::exp(-lambda);
  uint32_t k = 0;
  double p = 1.0;
  do {
    ++k;
    p *= Uniform();
  } while (p > l);
  return k - 1;
}

uint64_t Rng::Zipf(uint64_t n, double s) {
  assert(n > 0);
  if (n == 1) return 0;
  // Inverse-CDF by linear scan is O(n); instead use rejection against the
  // continuous bounding envelope (Devroye). Good enough for generator use.
  double b = std::pow(2.0, s - 1.0);
  for (;;) {
    double u = Uniform();
    double v = Uniform();
    double x = std::floor(std::pow(static_cast<double>(n) + 1.0, u));
    // x in [1, n+1); accept into [1, n].
    if (x > static_cast<double>(n)) continue;
    double t = std::pow(1.0 + 1.0 / x, s - 1.0);
    if (v * x * (t - 1.0) / (b - 1.0) <= t / b) {
      return static_cast<uint64_t>(x) - 1;
    }
  }
}

Rng Rng::Fork(uint64_t salt) {
  uint64_t child = seeder_.Next() ^ (salt * 0x9e3779b97f4a7c15ULL);
  return Rng(child);
}

}  // namespace ltm
