// Sensor noise: the synthetic camera's per-channel Gaussian noise.
//
// The reference definition is the per-channel loop
//
//   for (auto& c : channels)
//     c = uint8_t(clamp(c + rng.NextGaussian(0, stddev), 0, 255));
//
// on a fresh Rng. It costs a libm log and sincos per pair of channels,
// far more than drawing the rest of the scene. AddSensorNoise gives
// exactly the same bytes much faster: it draws the same xoshiro stream,
// evaluates Box–Muller from small interpolated tables, and keeps a
// sample only when a certified error bound shows that the exact
// expression truncates to the same byte. Every other pair goes through
// the exact expression (vp::BoxMuller), so no pixel ever changes.
#pragma once

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>

#include "common/rng.hpp"

namespace vp::media {

namespace noise_detail {

/// ln(1 + f) for f = i / kLogEntries, i = 0..kLogEntries.
inline constexpr int kLogBits = 11;
inline constexpr size_t kLogEntries = size_t{1} << kLogBits;
/// cos(2π i / kCosEntries), i = 0..kCosEntries.
inline constexpr int kCosBits = 12;
inline constexpr size_t kCosEntries = size_t{1} << kCosBits;

struct Tables {
  double log1p[kLogEntries + 1];
  double cos[kCosEntries + 1];
};

/// Built on first use (thread-safe); ~48 KB.
const Tables& GetTables();

inline constexpr double kLn2 = 0.69314718055994530942;

// Error bounds of the table evaluation. Linear interpolation of f over
// steps of h is off by at most h²/8 · max|f''|:
//  - ln(1 + f) on [0, 1): h = 2^-11, |f''| ≤ 1, so 2^-25. The table
//    entries, the exponent term (≤ 53 · ln 2) and the arithmetic add
//    under 2e-14.
//  - cos θ: h = 2π/2^12, |f''| ≤ 1, so (2π)²/2^27 ≈ 2.94e-7; entries
//    (whose arguments carry M_PI's error) and arithmetic add under 2e-15.
inline constexpr double kLogError = 0x1.0p-25 + 1e-13;
inline constexpr double kCosError =
    (2.0 * M_PI) * (2.0 * M_PI) * 0x1.0p-27 + 1e-14;
/// Covers the rounding of both computations of y = c + sd·z, including
/// the exact path's own error: libm and M_PI put z within ~1e-11 of
/// the true value once r ≥ 1e-3 (kMinR2), and |y| ≤ 255 + 9 sd.
inline constexpr double kSlack = 1e-9;
/// r² below this (probability ~5e-7 per pair) takes the exact path:
/// the r error bound 2δL/r grows without limit as r → 0.
inline constexpr double kMinR2 = 1e-6;
/// Above this stddev (and at or below zero, where the bound is not
/// one) the exact path runs throughout; below it |y| stays far inside
/// the range where the float → int conversion is defined.
inline constexpr double kMaxFastStddev = 1e6;

/// c + sd·z from the exact Box–Muller value, as the reference loop
/// computes it (its `0.0 +` mean term changes no sum with c).
inline uint8_t ExactChannel(uint8_t c, double sd, double z) {
  return static_cast<uint8_t>(std::clamp(c + sd * z, 0.0, 255.0));
}

/// floor(y) clamped to a byte, if y is farther than eps from every
/// integer; false otherwise. Requires |y| < 2^62.
inline bool CertifiedChannel(double y, double eps, uint8_t& out) {
  int64_t f = static_cast<int64_t>(y);
  if (y < static_cast<double>(f)) --f;
  const double d = y - static_cast<double>(f);
  if (!(d > eps && d < 1.0 - eps)) return false;
  out = static_cast<uint8_t>(std::clamp<int64_t>(f, 0, 255));
  return true;
}

/// One pair from draws a (u1, top 53 bits nonzero) and b (u2) through
/// the tables. Writes both channels and returns true only when both are
/// certified; otherwise leaves them untouched. Forced inline: at -O2
/// GCC otherwise calls it once per pair.
[[gnu::always_inline]] inline bool FastPair(const Tables& t, uint64_t a,
                                            uint64_t b, double sd,
                                            uint8_t* px) {
  // u1 = k · 2^-53 with k = a >> 11 = (1 + f) · 2^e exactly, so
  // -ln u1 = (53 - e) ln 2 - ln(1 + f).
  const uint64_t bits = std::bit_cast<uint64_t>(static_cast<double>(a >> 11));
  const int e = static_cast<int>(bits >> 52) - 1023;
  const uint64_t mantissa = bits & ((uint64_t{1} << 52) - 1);
  constexpr int kLogLow = 52 - kLogBits;
  const size_t li = static_cast<size_t>(mantissa >> kLogLow);
  const double lf =
      static_cast<double>(mantissa & ((uint64_t{1} << kLogLow) - 1)) *
      0x1.0p-41;
  const double log1p_f = t.log1p[li] + lf * (t.log1p[li + 1] - t.log1p[li]);
  const double r2 = 2.0 * (static_cast<double>(53 - e) * kLn2 - log1p_f);
  if (!(r2 >= kMinR2)) return false;
  const double r = std::sqrt(r2);

  // θ = 2π u2 with u2 = (b >> 11) · 2^-53: the top 12 bits of b index
  // the cos table and the next 41 interpolate, both exactly. sin θ is
  // cos(θ - π/2), three quarters further round the same table.
  static_assert(kCosBits + 41 == 53);
  const size_t ci = static_cast<size_t>(b >> (64 - kCosBits));
  const size_t si = (ci + 3 * kCosEntries / 4) & (kCosEntries - 1);
  const double cf =
      static_cast<double>((b >> 11) & ((uint64_t{1} << 41) - 1)) * 0x1.0p-41;
  const double cos_theta = t.cos[ci] + cf * (t.cos[ci + 1] - t.cos[ci]);
  const double sin_theta = t.cos[si] + cf * (t.cos[si + 1] - t.cos[si]);

  // With r' and cos' the table values: |r' - r| ≤ |r'² - r²| / r' ≤
  // 2δL / r' and |cos' - cos| ≤ δC (sin likewise), so each y is within
  // sd (2δL/r' + r' δC) + slack of the exact expression.
  const double eps =
      sd * (2.0 * kLogError / r + r * kCosError) + kSlack * (1.0 + sd);
  uint8_t c0 = 0, c1 = 0;
  if (!CertifiedChannel(px[0] + sd * (r * cos_theta), eps, c0) ||
      !CertifiedChannel(px[1] + sd * (r * sin_theta), eps, c1)) {
    return false;
  }
  px[0] = c0;
  px[1] = c1;
  return true;
}

}  // namespace noise_detail

/// Adds N(0, stddev) noise to every channel, bit-identical to the
/// reference loop above on a fresh Rng whose NextU64 is `next`. Pairs
/// of channels share one Box–Muller draw (cos, then sin); an odd last
/// channel takes the cos half of one more draw. Returns how many pairs
/// (the odd tail counts as one) took the exact path.
template <typename NextU64>
size_t AddSensorNoise(std::span<uint8_t> channels, double stddev,
                      NextU64&& next) {
  using namespace noise_detail;
  const Tables& tables = GetTables();
  const bool fast = stddev > 0 && stddev <= kMaxFastStddev;
  const auto draw_u1 = [&next] {
    uint64_t a = next();
    while ((a >> 11) == 0) a = next();
    return a;
  };
  uint8_t* px = channels.data();
  const size_t n = channels.size();
  size_t exact = 0;
  size_t i = 0;
  for (; i + 1 < n; i += 2) {
    const uint64_t a = draw_u1();
    const uint64_t b = next();
    if (fast && FastPair(tables, a, b, stddev, px + i)) continue;
    const GaussianPair z =
        BoxMuller(Rng::UnitFromBits(a), Rng::UnitFromBits(b));
    px[i] = ExactChannel(px[i], stddev, z.cos_value);
    px[i + 1] = ExactChannel(px[i + 1], stddev, z.sin_value);
    ++exact;
  }
  if (i < n) {
    const uint64_t a = draw_u1();
    const uint64_t b = next();
    const GaussianPair z =
        BoxMuller(Rng::UnitFromBits(a), Rng::UnitFromBits(b));
    px[i] = ExactChannel(px[i], stddev, z.cos_value);
    ++exact;
  }
  return exact;
}

/// The same, drawing from `rng`, which must hold no cached Gaussian.
/// Leaves `rng` past every draw; an odd tail's sin half is not cached.
size_t AddSensorNoise(std::span<uint8_t> channels, double stddev, Rng& rng);

}  // namespace vp::media
