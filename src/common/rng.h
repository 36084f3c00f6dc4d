#ifndef LTM_COMMON_RNG_H_
#define LTM_COMMON_RNG_H_

#include <cstdint>
#include <vector>

namespace ltm {

/// SplitMix64: tiny, fast 64-bit mixer. Used to expand a single user seed
/// into independent stream seeds (one per source, per dataset, ...) so that
/// components remain reproducible even when invoked in different orders.
class SplitMix64 {
 public:
  explicit SplitMix64(uint64_t seed) : state_(seed) {}

  uint64_t Next();

 private:
  uint64_t state_;
};

/// PCG32 (O'Neill's pcg32_oneseq variant): small, statistically strong
/// generator with 32-bit output and 64-bit state. Deterministic across
/// platforms, unlike std::mt19937 seeded via std::seed_seq + distributions
/// whose output is implementation-defined.
class Pcg32 {
 public:
  using result_type = uint32_t;

  explicit Pcg32(uint64_t seed, uint64_t stream = 0xda3e39cb94b95bdbULL);

  uint32_t Next();

  /// std::uniform_random_bit_generator interface so the engine can be used
  /// with <algorithm> shuffles if ever desired.
  uint32_t operator()() { return Next(); }
  static constexpr uint32_t min() { return 0; }
  static constexpr uint32_t max() { return 0xffffffffu; }

 private:
  uint64_t state_;
  uint64_t inc_;
};

/// Deterministic random engine with the sampling menu the library needs:
/// uniforms, Bernoulli, Gamma/Beta (Marsaglia–Tsang), Gaussian, Poisson,
/// bounded Zipf, and Fisher–Yates shuffling. All methods are reproducible
/// for a fixed seed across platforms.
class Rng {
 public:
  explicit Rng(uint64_t seed);

  /// Uniform double in [0, 1).
  double Uniform();

  /// Uniform double in [lo, hi).
  double Uniform(double lo, double hi);

  /// Uniform integer in [0, n). n must be > 0. Uses rejection to avoid
  /// modulo bias.
  uint64_t UniformInt(uint64_t n);

  /// Returns true with probability p (clamped to [0,1]).
  bool Bernoulli(double p);

  /// Gamma(shape, 1) via Marsaglia–Tsang squeeze; shape > 0.
  double Gamma(double shape);

  /// Beta(a, b) via two Gamma draws; a, b > 0.
  double Beta(double a, double b);

  /// Standard normal via Box–Muller (cached pair).
  double Normal();

  /// Normal(mu, sigma).
  double Normal(double mu, double sigma);

  /// Poisson(lambda) via Knuth's product method (lambda expected small) or
  /// normal approximation for large lambda.
  uint32_t Poisson(double lambda);

  /// Zipf-like rank draw over {0, ..., n-1} with exponent `s`: probability
  /// of rank k proportional to 1/(k+1)^s. Uses a precomputation-free
  /// inversion by rejection; intended for modest n in generators.
  uint64_t Zipf(uint64_t n, double s);

  /// Fisher–Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    if (v->empty()) return;
    for (uint64_t i = v->size() - 1; i > 0; --i) {
      uint64_t j = UniformInt(i + 1);
      std::swap((*v)[i], (*v)[j]);
    }
  }

  /// Derives an independent child engine; `salt` distinguishes siblings.
  /// Consumes one draw from the internal seeder, so repeated Fork(salt)
  /// calls yield different children.
  Rng Fork(uint64_t salt);

 private:
  Pcg32 gen_;
  SplitMix64 seeder_;
  bool have_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

}  // namespace ltm

#endif  // LTM_COMMON_RNG_H_
