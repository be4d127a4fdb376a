#include "media/sensor_noise.hpp"

#include <cstring>

namespace vp::media {
namespace noise_detail {
namespace {

// Why a certified pair gives the reference bytes. Let z be the true
// Box–Muller value of the pair's draws and t' the kernel's value of
// sd·z. If |t' - sd·z| ≤ sd·kUnitError and the reference's y = c + sd·z
// (as it rounds it) is within kSlack·(1 + sd) of c + sd·z, then with
// eps the sum of the two, t' in (n + eps, n + 1 - eps) for an integer n
// puts y - c strictly inside (n, n + 1). c is an integer, so floor(y) =
// c + n, and the reference byte (y truncated, clamped to [0, 255]) is
// clamp(c + n, 0, 255): what pass 3 writes.
//
// The bounds, as absolute errors against the true values. Every step
// is exact or one IEEE operation rounded to nearest (at most half an
// ulp); a fused multiply-add only removes a rounding, so each bound
// holds with and without FMA contraction (the AVX2 clone contracts).
//
// ln u1 = e·ln 2 + ln m with m in [√2/2, √2) and e an integer in
// [-53, 0], both exact. ln m = 2 atanh f = 2f Σ s^k/(2k+1) with
// f = (m-1)/(m+1), s = f², |f| ≤ (√2-1)/(√2+1) < 0.1716, s < 0.02944.
// Keeping k ≤ 4 leaves 2|f| Σ_{k≥5} s^k/(2k+1) ≤ 2|f| s^5 / (11 (1-s))
// < 7.11e-10. Arithmetic: f carries ≤ 3 roundings (|Δf| < 4e-17), the
// polynomial a few more on |ln m| < 0.35, and e·ln 2 (|e| ≤ 53, ln 2
// off by ≤ 2^-54) plus the sum stay under 1e-14 together.
constexpr double kLogError = 7.2e-10;
// sin φ and cos φ for |φ| ≤ π/4 by Taylor polynomials through φ^9 and
// φ^10: the Lagrange remainders are ≤ (π/4)^11/11! < 1.76e-9 and
// (π/4)^12/12! < 1.16e-10. φ = v · (π/2) with v exact; π/2 and the
// product put φ within 2e-16, and the evaluation adds under 1e-15.
constexpr double kTrigError = 1.8e-9;
// Pairs with r'² < kMinR2 are not certified, so r' ≥ 1e-3 (up to one
// rounding). And r ≤ √(106 ln 2) < 8.58 because u1 ≥ 2^-53.
constexpr double kMinR = 1e-3;
constexpr double kMaxR = 9.0;
// With r' and cos' the computed values: |r' - r| ≤ |r'² - r²| / r' ≤
// 2δL / r' and |cos' - cos| ≤ δT (sin likewise), so t' = sd·r'·cos' is
// within sd (2δL/r' + r' δT) ≤ sd · kUnitError of sd·z, the roundings
// of sqrt and the products aside.
constexpr double kUnitError = 2.0 * kLogError / kMinR + kMaxR * kTrigError;
// Covers those roundings (relative 2^-52 on |t'| ≤ 9 sd), that of
// t' - 1/2 (≤ 2^-45 once clamped), and the reference's own: libm and
// M_PI put its z within ~1e-11 of the true value once r ≥ 1e-3, and it
// rounds sd·z and c + sd·z, with |c + sd·z| ≤ 255 + 9 sd.
constexpr double kSlack = 1e-9;

constexpr double kLn2 = 0.69314718055994530942;
constexpr double kHalfPi = 1.57079632679489661923;
// 1.5 · 2^52: adding it to an integral |x| < 2^51, or rounding any such
// x to the nearest integer, leaves that integer in the low mantissa
// bits (two's complement).
constexpr double kMagic = 0x1.8p52;
constexpr uint64_t kTwo52Bits = 0x4330000000000000;
constexpr uint64_t kMantissa = (uint64_t{1} << 52) - 1;
constexpr uint64_t kSignBit = uint64_t{1} << 63;
// The bits of √2/2 and of 1.0 minus them: adding the latter to a
// double carries into its exponent exactly when its mantissa is ≥ √2.
constexpr uint64_t kSqrtHalfBits = 0x3FE6A09E667F3BCD;
constexpr uint64_t kRangeShift = 0x3FF0000000000000 - kSqrtHalfBits;
// t - 1/2 is clamped to ±kMaxOffset before rounding. For a byte c,
// clamp(c + n, 0, 255) is 0 for n ≤ -256 and 255 for n ≥ 256, and a
// t beyond ±(kMaxOffset + 1/2) puts the reference there too, so the
// clamp changes no byte (and the offset fits an int16).
constexpr double kMaxOffset = 301.0;

// The helpers below return 32-byte vectors. They are always inlined,
// so the warning that such a return would change the ABI without AVX
// does not apply. (Not popped: templates are instantiated at the end
// of the file.)
#pragma GCC diagnostic ignored "-Wpsabi"

template <int W>
struct Lanes {
  typedef double D __attribute__((vector_size(8 * W)));
  typedef uint64_t U __attribute__((vector_size(8 * W)));
  typedef int64_t I __attribute__((vector_size(8 * W)));
  // 4W channels: their offsets fill one register, their bytes half.
  typedef int16_t H __attribute__((vector_size(8 * W)));
  typedef int16_t HalfH __attribute__((vector_size(4 * W)));
  typedef uint8_t Bytes __attribute__((vector_size(4 * W)));
};

/// Lane-wise sqrt, max and min: one instruction each for the two
/// widths (SSE2 and AVX).
template <typename D>
[[gnu::always_inline]] inline D Sqrt(const D& x) {
  if constexpr (sizeof(D) == 16) {
    return __builtin_ia32_sqrtpd(x);
  } else {
    return __builtin_ia32_sqrtpd256(x);
  }
}

template <typename D>
[[gnu::always_inline]] inline D Clamp(const D& x, const D& lo, const D& hi) {
  if constexpr (sizeof(D) == 16) {
    return __builtin_ia32_minpd(__builtin_ia32_maxpd(x, lo), hi);
  } else {
    return __builtin_ia32_minpd256(__builtin_ia32_maxpd256(x, lo), hi);
  }
}

/// The low 16 bits of each lane of c and s, interleaved: the channel
/// offsets of W pairs in pixel order.
template <int W, typename U>
[[gnu::always_inline]] inline typename Lanes<W>::HalfH Interleave(
    const U& c, const U& s) {
  using H = typename Lanes<W>::H;
  if constexpr (W == 2) {
    return __builtin_shufflevector((H)c, (H)s, 0, 8, 4, 12);
  } else {
    return __builtin_shufflevector((H)c, (H)s, 0, 16, 4, 20, 8, 24, 12, 28);
  }
}

/// Loads lanes i.. of `src`; past `count`, lanes repeat the last
/// element, so a padding lane computes what a real one does.
template <typename U>
[[gnu::always_inline]] inline U LoadPadded(const uint64_t* src, size_t i,
                                           size_t count) {
  U v;
  constexpr size_t kLanes = sizeof(U) / sizeof(uint64_t);
  if (i + kLanes <= count) {
    std::memcpy(&v, src + i, sizeof v);
  } else {
    for (size_t l = 0; l < kLanes; ++l) v[l] = src[std::min(i + l, count - 1)];
  }
  return v;
}

/// Passes 2–4 with W pairs per vector.
template <int W>
[[gnu::always_inline]] inline size_t Block(const uint64_t* a,
                                           const uint64_t* b, size_t pairs,
                                           double sd, uint8_t* px) {
  using D = typename Lanes<W>::D;
  using U = typename Lanes<W>::U;
  using I = typename Lanes<W>::I;
  using H = typename Lanes<W>::H;
  using HalfH = typename Lanes<W>::HalfH;
  using Bytes = typename Lanes<W>::Bytes;
  static_assert(kBlockPairs % W == 0);
  const double eps = sd * kUnitError + kSlack * (1.0 + sd);
  const D sd_v = D{} + sd;
  const D half_band = D{} + (0.5 - eps);
  const D lo = D{} - kMaxOffset;
  const D hi = D{} + kMaxOffset;
  // sd·r per pair, then the channel offsets; both in pixel order.
  alignas(32) double radius[kBlockPairs];
  alignas(32) int16_t off[2 * kBlockPairs];
  alignas(32) uint64_t certified[kBlockPairs];

  // Pass 2, transform, in two loops with short dependency chains (the
  // out-of-order core overlaps more iterations of each).
  // (a) sd·r with r² = -2 ln u1, or 0 where r² < kMinR2.
  for (size_t i = 0; i < pairs; i += W) {
    // u1 = K · 2^-53 with K = a >> 11 < 2^53, converted in two exact
    // halves. Then K = m · 2^(e + 53) with m in [√2/2, √2).
    const U k = LoadPadded<U>(a, i, pairs) >> 11;
    const D kd = ((D)((k >> 26) | kTwo52Bits) - 0x1p52) * 0x1p26 +
                 ((D)((k & ((uint64_t{1} << 26) - 1)) | kTwo52Bits) - 0x1p52);
    const U shifted = (U)kd + kRangeShift;
    const D m = (D)((shifted & kMantissa) + kSqrtHalfBits);
    const D e = (D)((shifted >> 52) | kTwo52Bits) - (0x1p52 + 1023.0 + 53.0);
    const D f = (m - 1.0) / (m + 1.0);
    const D s = f * f;
    const D series =
        1.0 / 3 + s * (1.0 / 5 + s * (1.0 / 7 + s * (1.0 / 9)));
    const D ln_m = 2.0 * f + (2.0 * f * s) * series;
    const D r2 = -2.0 * (e * kLn2 + ln_m);
    const D kept = (D)((I)r2 & (r2 >= kMinR2));
    const D sr = sd_v * Sqrt(kept);
    std::memcpy(radius + i, &sr, sizeof sr);
  }
  // (b) θ = 2π u2 with u2 = B · 2^-53. B = (j + v) · 2^51 exactly, j
  // the nearest quarter turn (0..4) and v in [-1/2, 1/2), so θ = j π/2
  // + φ with φ = v π/2. Then per channel x = t - 1/2, clamped, rounds
  // to n = floor(t), certified when |x - n| < 1/2 - eps: t lies more
  // than eps from every integer. The sign bit of |x - n| - (1/2 - eps)
  // holds that test (exactly: the difference of two unequal doubles is
  // never zero) and the pair's flag ANDs the two. A zeroed radius gives
  // t = 0, never certified.
  U all_certified = ~U{};
  for (size_t i = 0; i < pairs; i += W) {
    D sr;
    std::memcpy(&sr, radius + i, sizeof sr);
    const U q = (LoadPadded<U>(b, i, pairs) >> 11) + (uint64_t{1} << 50);
    const U j = q >> 51;
    const D v = (D)((q - (j << 51)) | kTwo52Bits) - (0x1p52 + 0x1p50);
    const D phi = v * (kHalfPi * 0x1p-51);
    const D p2 = phi * phi;
    const D sin_phi =
        phi + (phi * p2) * (-1.0 / 6 +
                            p2 * (1.0 / 120 +
                                  p2 * (-1.0 / 5040 + p2 * (1.0 / 362880))));
    const D cos_phi =
        1.0 + p2 * (-1.0 / 2 +
                    p2 * (1.0 / 24 +
                          p2 * (-1.0 / 720 +
                                p2 * (1.0 / 40320 + p2 * (-1.0 / 3628800)))));
    // Rotate by j quarter turns: odd j swaps cos and sin; cos θ is
    // negative for j = 1, 2 and sin θ for j = 2, 3.
    const U swap = ((U)cos_phi ^ (U)sin_phi) & -(j & 1);
    const D cos_theta =
        (D)(((U)cos_phi ^ swap) ^ (((j + 1) << 62) & kSignBit));
    const D sin_theta = (D)(((U)sin_phi ^ swap) ^ ((j << 62) & kSignBit));

    const D xc = Clamp(sr * cos_theta - 0.5, lo, hi);
    const D xs = Clamp(sr * sin_theta - 0.5, lo, hi);
    const D yc = xc + kMagic;
    const D ys = xs + kMagic;
    const D dc = xc - (yc - kMagic);
    const D ds = xs - (ys - kMagic);
    const U flags = (U)((D)((U)dc & ~kSignBit) - half_band) &
                    (U)((D)((U)ds & ~kSignBit) - half_band);
    all_certified &= flags;
    std::memcpy(certified + i, &flags, sizeof flags);
    const HalfH offsets = Interleave<W>((U)yc, (U)ys);
    std::memcpy(off + 2 * i, &offsets, sizeof offsets);
  }

  // Pass 4, fix-up, first half: the exact bytes of each uncertified
  // pair, from the bytes pass 3 is about to overwrite.
  bool all = true;
  for (int l = 0; l < W; ++l) all = all && (all_certified[l] & kSignBit) != 0;
  size_t exact = 0;
  uint16_t fixed_pair[kBlockPairs];
  uint8_t fixed_bytes[2 * kBlockPairs];
  if (!all) {
    for (size_t p = 0; p < pairs; ++p) {
      if ((certified[p] & kSignBit) != 0) continue;
      fixed_pair[exact] = static_cast<uint16_t>(p);
      uint8_t* bytes = fixed_bytes + 2 * exact;
      bytes[0] = px[2 * p];
      bytes[1] = px[2 * p + 1];
      ExactPair(a[p], b[p], sd, bytes);
      ++exact;
    }
  }

  // Pass 3, apply: clamp(c + floor(t), 0, 255). For a certified t this
  // is the reference byte: c is an integer, so floor(c + t) = c + floor(t).
  const size_t channels = 2 * pairs;
  size_t i = 0;
  for (; i + 4 * W <= channels; i += 4 * W) {
    Bytes c;
    H o;
    std::memcpy(&c, px + i, sizeof c);
    std::memcpy(&o, off + i, sizeof o);
    H v = __builtin_convertvector(c, H) + o;
    v = v < 0 ? H{} : v;
    v = v > 255 ? H{} + 255 : v;
    const Bytes out = __builtin_convertvector(v, Bytes);
    std::memcpy(px + i, &out, sizeof out);
  }
  for (; i < channels; ++i) {
    px[i] = static_cast<uint8_t>(std::clamp(px[i] + off[i], 0, 255));
  }

  // Pass 4, second half: the uncertified pairs' exact bytes.
  for (size_t k = 0; k < exact; ++k) {
    px[2 * fixed_pair[k]] = fixed_bytes[2 * k];
    px[2 * fixed_pair[k] + 1] = fixed_bytes[2 * k + 1];
  }
  return exact;
}

}  // namespace

[[gnu::flatten]] size_t BlockBaseline(const uint64_t* a, const uint64_t* b,
                                      size_t pairs, double sd, uint8_t* px) {
  return Block<2>(a, b, pairs, sd, px);
}

[[gnu::flatten, gnu::target("avx2,fma")]] size_t BlockAvx2(
    const uint64_t* a, const uint64_t* b, size_t pairs, double sd,
    uint8_t* px) {
  return Block<4>(a, b, pairs, sd, px);
}

bool CpuHasAvx2Fma() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
}

BlockFn DispatchedBlock() {
  static const BlockFn block = CpuHasAvx2Fma() ? BlockAvx2 : BlockBaseline;
  return block;
}

}  // namespace noise_detail

size_t AddSensorNoise(std::span<uint8_t> channels, double stddev, Rng& rng) {
  // Draw from a local copy: the compiler can keep its state in
  // registers, where the pixel stores cannot alias it.
  Rng local = rng;
  const size_t exact =
      AddSensorNoise(channels, stddev, [&local] { return local.NextU64(); });
  rng = local;
  return exact;
}

}  // namespace vp::media
