// Sensor noise: the synthetic camera's per-channel Gaussian noise.
//
// The reference definition is the per-channel loop
//
//   for (auto& c : channels)
//     c = uint8_t(clamp(c + rng.NextGaussian(0, stddev), 0, 255));
//
// on a fresh Rng. It costs a libm log and sincos per pair of channels,
// far more than drawing the rest of the scene. AddSensorNoise gives
// exactly the same bytes much faster. It works on blocks of pairs in
// four passes:
//  1. draw: the same xoshiro stream, rejection and order, serially;
//  2. transform: branch-free polynomial Box–Muller, two or four pairs per
//     vector, giving t = sd·z, its integer offset floor(t) per channel
//     and a flag per pair set only when a certified error bound shows
//     that the exact expression truncates to the same byte;
//  3. apply: c = clamp(c + floor(t), 0, 255) over the bytes;
//  4. fix-up: each uncertified pair goes through the exact expression
//     (vp::BoxMuller) from its saved draws, so no pixel ever changes.
// Passes 2–4 are compiled twice, for baseline x86-64 and for AVX2+FMA;
// the CPU picks one once per process.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>

#include "common/rng.hpp"

namespace vp::media {

namespace noise_detail {

/// r² below this (probability ~5e-7 per pair) takes the exact path:
/// the r error bound 2δL/r grows without limit as r → 0.
inline constexpr double kMinR2 = 1e-6;
/// Above this stddev (and at or below zero, where the bound is not
/// one) the exact path runs throughout; below it |t| stays far inside
/// the range where the float → int tricks are exact.
inline constexpr double kMaxFastStddev = 1e6;
/// Pairs per block: the draw buffers and offsets stay in L1.
inline constexpr size_t kBlockPairs = 256;

/// c + sd·z from the exact Box–Muller value, as the reference loop
/// computes it (its `0.0 +` mean term changes no sum with c).
inline uint8_t ExactChannel(uint8_t c, double sd, double z) {
  return static_cast<uint8_t>(std::clamp(c + sd * z, 0.0, 255.0));
}

/// Both channels of one pair from draws a (u1, top 53 bits nonzero)
/// and b (u2) through the exact expression.
inline void ExactPair(uint64_t a, uint64_t b, double sd, uint8_t* px) {
  const GaussianPair z = BoxMuller(Rng::UnitFromBits(a), Rng::UnitFromBits(b));
  px[0] = ExactChannel(px[0], sd, z.cos_value);
  px[1] = ExactChannel(px[1], sd, z.sin_value);
}

/// Passes 2–4 over `pairs` (≤ kBlockPairs) drawn pairs and the
/// 2·pairs channels at px, for 0 < sd ≤ kMaxFastStddev. Returns how
/// many pairs took the exact path.
using BlockFn = size_t (*)(const uint64_t* a, const uint64_t* b,
                           size_t pairs, double sd, uint8_t* px);
size_t BlockBaseline(const uint64_t* a, const uint64_t* b, size_t pairs,
                     double sd, uint8_t* px);
/// Requires CpuHasAvx2Fma().
[[gnu::target("avx2,fma")]] size_t BlockAvx2(const uint64_t* a,
                                             const uint64_t* b, size_t pairs,
                                             double sd, uint8_t* px);
bool CpuHasAvx2Fma();
/// BlockAvx2 where the CPU has it, else BlockBaseline; chosen once.
BlockFn DispatchedBlock();

/// AddSensorNoise (below) with passes 2–4 given explicitly.
template <typename NextU64>
size_t AddSensorNoiseWith(BlockFn block, std::span<uint8_t> channels,
                          double stddev, NextU64&& next) {
  const bool fast = stddev > 0 && stddev <= kMaxFastStddev;
  const auto draw_u1 = [&next] {
    uint64_t a = next();
    while ((a >> 11) == 0) a = next();
    return a;
  };
  uint8_t* px = channels.data();
  const size_t n = channels.size();
  const size_t pairs = n / 2;
  uint64_t a[kBlockPairs];
  uint64_t b[kBlockPairs];
  size_t exact = 0;
  for (size_t p = 0; p < pairs; p += kBlockPairs) {
    const size_t m = std::min(kBlockPairs, pairs - p);
    for (size_t k = 0; k < m; ++k) {
      a[k] = draw_u1();
      b[k] = next();
    }
    if (fast) {
      exact += block(a, b, m, stddev, px + 2 * p);
      continue;
    }
    for (size_t k = 0; k < m; ++k) {
      ExactPair(a[k], b[k], stddev, px + 2 * (p + k));
    }
    exact += m;
  }
  if (n % 2 != 0) {
    const uint64_t a_tail = draw_u1();
    const uint64_t b_tail = next();
    const GaussianPair z = BoxMuller(Rng::UnitFromBits(a_tail),
                                     Rng::UnitFromBits(b_tail));
    px[n - 1] = ExactChannel(px[n - 1], stddev, z.cos_value);
    ++exact;
  }
  return exact;
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
  return noise_detail::AddSensorNoiseWith(noise_detail::DispatchedBlock(),
                                          channels, stddev, next);
}

/// The same, drawing from `rng`, which must hold no cached Gaussian.
/// Leaves `rng` past every draw; an odd tail's sin half is not cached.
size_t AddSensorNoise(std::span<uint8_t> channels, double stddev, Rng& rng);

}  // namespace vp::media
