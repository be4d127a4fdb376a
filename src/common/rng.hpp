// Deterministic random number generation.
//
// Every stochastic component (motion noise, network jitter, dataset
// generation) draws from an explicitly seeded Rng so that simulations
// and benchmarks are reproducible bit-for-bit. xoshiro256** core with
// a SplitMix64 seeder.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace vp {

/// Both values of one Box–Muller transform.
struct GaussianPair {
  double cos_value;  // r·cos θ: what NextGaussian returns first
  double sin_value;  // r·sin θ: the cached second value
};

/// The exact Box–Muller transform, r = sqrt(-2 ln u1), θ = 2π u2, for
/// u1 in (0, 1) and u2 in [0, 1). This is the one definition: it is
/// out of line so every caller (Rng::NextGaussian, the sensor-noise
/// kernel's exact path) gets the same bits from the same code.
GaussianPair BoxMuller(double u1, double u2);

class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ULL);

  /// Uniform 64-bit value (inline: the sensor-noise kernel draws
  /// hundreds of thousands per frame).
  uint64_t NextU64() {
    const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
    const uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = Rotl(s_[3], 45);
    return result;
  }

  /// The top 53 bits of a 64-bit draw as a double in [0, 1).
  static double UnitFromBits(uint64_t bits) {
    return static_cast<double>(bits >> 11) * 0x1.0p-53;
  }

  /// Uniform in [0, 1).
  double NextDouble() { return UnitFromBits(NextU64()); }

  /// Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  int64_t NextInt(int64_t lo, int64_t hi);

  /// Uniform double in [lo, hi).
  double NextRange(double lo, double hi);

  /// Standard normal via Box–Muller (cached second value). Each pair
  /// draws u1 = NextDouble() until it is nonzero, then u2.
  double NextGaussian();

  /// Gaussian with the given mean/stddev.
  double NextGaussian(double mean, double stddev) {
    return mean + stddev * NextGaussian();
  }

  /// Bernoulli with probability p.
  bool NextBool(double p = 0.5) { return NextDouble() < p; }

  /// Derive an independent child stream (for per-component seeding).
  Rng Fork();

  /// Fisher–Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>& v) {
    for (size_t i = v.size(); i > 1; --i) {
      size_t j = static_cast<size_t>(NextInt(0, static_cast<int64_t>(i) - 1));
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

 private:
  static uint64_t Rotl(uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  uint64_t s_[4];
  bool has_cached_gaussian_ = false;
  double cached_gaussian_ = 0.0;
};

}  // namespace vp
