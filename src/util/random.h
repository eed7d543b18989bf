#ifndef WEBEVO_UTIL_RANDOM_H_
#define WEBEVO_UTIL_RANDOM_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace webevo {

/// Deterministic 64-bit PRNG (xoshiro256++) seeded via SplitMix64.
///
/// Every stochastic component in the library draws through an explicitly
/// seeded Rng so that experiments are reproducible bit-for-bit. The
/// generator is small, fast, and passes BigCrush; it is not
/// cryptographically secure, which is irrelevant here.
class Rng {
 public:
  /// Seeds the four 64-bit lanes from `seed` with SplitMix64, which
  /// guarantees a non-zero state for any seed (including 0).
  explicit Rng(uint64_t seed);

  /// Next raw 64-bit output.
  uint64_t Next();

  /// Uniform double in [0, 1).
  double NextDouble();

  /// Uniform double in [lo, hi). Requires lo <= hi.
  double Uniform(double lo, double hi);

  /// Uniform integer in [0, bound). Requires bound > 0. Uses rejection
  /// sampling (Lemire) so the result is exactly uniform.
  uint64_t NextBounded(uint64_t bound);

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int64_t UniformInt(int64_t lo, int64_t hi);

  /// True with probability p (clamped to [0, 1]).
  bool Bernoulli(double p);

  /// Exponential variate with rate `lambda` (mean 1/lambda).
  /// Requires lambda > 0.
  double Exponential(double lambda);

  /// Poisson variate with the given mean. Uses Knuth's method for small
  /// means and a normal approximation (rounded, clamped at 0) for means
  /// above 64, which keeps the tail error far below our use cases' needs.
  uint64_t Poisson(double mean);

  /// Standard normal variate (Box-Muller, one value per call).
  double Normal();

  /// Normal variate with the given mean and standard deviation.
  double Normal(double mean, double stddev);

  /// Zipf-distributed rank in [1, n] with exponent `s` (s >= 0).
  /// P(k) proportional to 1/k^s. Uses rejection-inversion (Hormann),
  /// O(1) per draw for any n.
  uint64_t Zipf(uint64_t n, double s);

  /// Pareto variate with scale x_m > 0 and shape alpha > 0.
  double Pareto(double x_m, double alpha);

  /// Picks an index in [0, weights.size()) with probability proportional
  /// to weights[i]. Requires at least one strictly positive weight.
  std::size_t WeightedIndex(const std::vector<double>& weights);

  /// Fisher-Yates shuffle of `v`.
  template <typename T>
  void Shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::size_t j = static_cast<std::size_t>(NextBounded(i));
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

  /// Forks an independent child generator; children with distinct
  /// `stream` values are statistically independent of the parent and of
  /// each other.
  Rng Fork(uint64_t stream);

  /// Raw 256-bit generator state, for checkpoint/restore. A state
  /// captured here and fed back through SetState resumes the exact
  /// output stream.
  std::array<uint64_t, 4> State() const {
    return {s_[0], s_[1], s_[2], s_[3]};
  }

  /// Restores a State() snapshot. The state must come from a seeded
  /// generator (all-zero is degenerate for xoshiro and never produced
  /// by the SplitMix64 seeding).
  void SetState(const std::array<uint64_t, 4>& state) {
    for (std::size_t i = 0; i < 4; ++i) s_[i] = state[i];
  }

 private:
  uint64_t s_[4];
};

}  // namespace webevo

#endif  // WEBEVO_UTIL_RANDOM_H_
