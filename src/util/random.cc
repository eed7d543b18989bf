#include "util/random.h"

#include <cassert>
#include <cmath>

namespace webevo {
namespace {

uint64_t SplitMix64(uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t x = seed;
  for (auto& lane : s_) lane = SplitMix64(x);
}

uint64_t Rng::Next() {
  const uint64_t result = Rotl(s_[0] + s_[3], 23) + s_[0];
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

double Rng::NextDouble() {
  // 53 high bits -> [0, 1) with full double precision.
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

double Rng::Uniform(double lo, double hi) {
  assert(lo <= hi);
  return lo + (hi - lo) * NextDouble();
}

uint64_t Rng::NextBounded(uint64_t bound) {
  assert(bound > 0);
  // Lemire's multiply-shift with rejection of the biased low range.
  uint64_t x = Next();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  uint64_t l = static_cast<uint64_t>(m);
  if (l < bound) {
    uint64_t threshold = -bound % bound;
    while (l < threshold) {
      x = Next();
      m = static_cast<__uint128_t>(x) * bound;
      l = static_cast<uint64_t>(m);
    }
  }
  return static_cast<uint64_t>(m >> 64);
}

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  assert(lo <= hi);
  uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
  if (span == 0) return static_cast<int64_t>(Next());  // full 64-bit range
  return lo + static_cast<int64_t>(NextBounded(span));
}

bool Rng::Bernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return NextDouble() < p;
}

double Rng::Exponential(double lambda) {
  assert(lambda > 0.0);
  // Inversion. 1 - U in (0, 1] avoids log(0).
  return -std::log(1.0 - NextDouble()) / lambda;
}

uint64_t Rng::Poisson(double mean) {
  assert(mean >= 0.0);
  if (mean == 0.0) return 0;
  if (mean < 64.0) {
    // Knuth: multiply uniforms until below e^-mean.
    const double limit = std::exp(-mean);
    uint64_t k = 0;
    double p = 1.0;
    do {
      ++k;
      p *= NextDouble();
    } while (p > limit);
    return k - 1;
  }
  // Normal approximation with continuity correction.
  double v = std::round(Normal(mean, std::sqrt(mean)));
  return v <= 0.0 ? 0 : static_cast<uint64_t>(v);
}

double Rng::Normal() {
  // Box-Muller; discards the second variate to stay stateless.
  double u1 = 1.0 - NextDouble();  // (0, 1]
  double u2 = NextDouble();
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * M_PI * u2);
}

double Rng::Normal(double mean, double stddev) {
  return mean + stddev * Normal();
}

uint64_t Rng::Zipf(uint64_t n, double s) {
  assert(n >= 1);
  if (n == 1) return 1;
  // Rejection-inversion sampling (Hormann & Derflinger 1996).
  const double nd = static_cast<double>(n);
  auto h_integral = [s](double x) {
    // Integral of 1/x^s: log for s == 1, power otherwise.
    const double log_x = std::log(x);
    if (std::abs(s - 1.0) < 1e-12) return log_x;
    return std::expm1((1.0 - s) * log_x) / (1.0 - s);
  };
  auto h = [s](double x) { return std::exp(-s * std::log(x)); };
  const double h_x1 = h_integral(1.5) - 1.0;
  const double h_n = h_integral(nd + 0.5);
  const double scale = h_n - h_x1;
  while (true) {
    const double u = h_x1 + NextDouble() * scale;
    // Inverse of h_integral.
    double x;
    if (std::abs(s - 1.0) < 1e-12) {
      x = std::exp(u);
    } else {
      x = std::exp(std::log1p(u * (1.0 - s)) / (1.0 - s));
    }
    double k = std::floor(x + 0.5);
    if (k < 1.0) k = 1.0;
    if (k > nd) k = nd;
    if (u >= h_integral(k + 0.5) - h(k)) {
      return static_cast<uint64_t>(k);
    }
  }
}

double Rng::Pareto(double x_m, double alpha) {
  assert(x_m > 0.0 && alpha > 0.0);
  return x_m / std::pow(1.0 - NextDouble(), 1.0 / alpha);
}

std::size_t Rng::WeightedIndex(const std::vector<double>& weights) {
  double total = 0.0;
  for (double w : weights) {
    assert(w >= 0.0);
    total += w;
  }
  assert(total > 0.0);
  double r = NextDouble() * total;
  double acc = 0.0;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    acc += weights[i];
    if (r < acc) return i;
  }
  // Floating-point slack: fall back to the last positive weight.
  for (std::size_t i = weights.size(); i > 0; --i) {
    if (weights[i - 1] > 0.0) return i - 1;
  }
  return weights.size() - 1;
}

Rng Rng::Fork(uint64_t stream) {
  // Mix the parent's next output with the stream id; SplitMix64 in the
  // constructor decorrelates the children.
  return Rng(Next() ^ (0x9e3779b97f4a7c15ULL * (stream + 1)));
}

}  // namespace webevo
