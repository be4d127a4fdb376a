#include "media/sensor_noise.hpp"

namespace vp::media {
namespace noise_detail {

const Tables& GetTables() {
  static const Tables tables = [] {
    Tables t;
    for (size_t i = 0; i <= kLogEntries; ++i) {
      t.log1p[i] = std::log1p(static_cast<double>(i) / kLogEntries);
    }
    for (size_t i = 0; i <= kCosEntries; ++i) {
      t.cos[i] = std::cos(2.0 * M_PI * static_cast<double>(i) / kCosEntries);
    }
    return t;
  }();
  return tables;
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
