// Microbenchmarks: media substrate — scene rendering, the frame codec
// and the frame store (real wall-clock costs of the simulation
// itself, not virtual-time costs).
//
// Custom main(): VP_BENCH_SMOKE=1 skips google-benchmark and instead
// times the synthetic camera (render at three sizes and without noise,
// the sensor noise alone through each kernel clone and through the
// per-channel reference loop), writing BENCH_media.json for CI to
// archive. It fails when the dispatched noise kernel is less than 3.5×
// as fast as the reference loop.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <span>
#include <vector>

#include "harness.hpp"
#include "media/codec.hpp"
#include "media/frame_store.hpp"
#include "media/renderer.hpp"
#include "media/sensor_noise.hpp"
#include "media/video_source.hpp"

using namespace vp;

namespace {

void BM_RenderScene(benchmark::State& state) {
  media::SceneOptions scene;
  scene.width = static_cast<int>(state.range(0));
  scene.height = scene.width * 3 / 4;
  const media::Pose pose = media::Pose::Standing();
  uint64_t seed = 0;
  for (auto _ : state) {
    const media::Image image = media::RenderScene(pose, scene, seed++);
    benchmark::DoNotOptimize(image.data().data());
  }
}
BENCHMARK(BM_RenderScene)->Arg(160)->Arg(320)->Arg(640);

/// Sensor noise alone on a flat background frame (what RenderScene
/// adds on top of drawing the scene).
void BM_SensorNoise(benchmark::State& state) {
  const media::Image background(320, 240, media::Rgb{24, 24, 24});
  uint64_t seed = 0;
  for (auto _ : state) {
    media::Image image = background;
    Rng rng(seed++);
    media::AddSensorNoise(image.data(), 3.0, rng);
    benchmark::DoNotOptimize(image.data().data());
  }
}
BENCHMARK(BM_SensorNoise);

void BM_EncodeFrame(benchmark::State& state) {
  media::SceneOptions scene;
  scene.width = static_cast<int>(state.range(0));
  scene.height = scene.width * 3 / 4;
  media::Frame frame;
  frame.image = media::RenderScene(media::Pose::Standing(), scene, 1);
  for (auto _ : state) {
    const Bytes wire = media::EncodeFrame(frame);
    benchmark::DoNotOptimize(wire.data());
  }
  media::Frame sized;
  sized.image = media::RenderScene(media::Pose::Standing(), scene, 1);
  state.counters["bytes"] =
      static_cast<double>(media::EncodeFrame(sized).size());
}
BENCHMARK(BM_EncodeFrame)->Arg(160)->Arg(320)->Arg(640);

void BM_DecodeFrame(benchmark::State& state) {
  media::SceneOptions scene;
  scene.width = 320;
  scene.height = 240;
  media::Frame frame;
  frame.image = media::RenderScene(media::Pose::Standing(), scene, 1);
  const Bytes wire = media::EncodeFrame(frame);
  for (auto _ : state) {
    auto decoded = media::DecodeFrame(wire);
    benchmark::DoNotOptimize(decoded);
  }
}
BENCHMARK(BM_DecodeFrame);

void BM_FrameStorePutGet(benchmark::State& state) {
  media::FrameStore store(64);
  media::Frame frame;
  frame.image = media::Image(320, 240);
  for (auto _ : state) {
    const media::FrameId id = store.Put(frame);
    auto got = store.Get(id);
    benchmark::DoNotOptimize(got);
  }
}
BENCHMARK(BM_FrameStorePutGet);

void BM_CaptureFrame(benchmark::State& state) {
  media::SyntheticVideoSource source(media::DefaultWorkoutScript(), 20.0);
  uint64_t seq = 0;
  for (auto _ : state) {
    const media::Frame frame = source.CaptureFrame(seq++ % 600);
    benchmark::DoNotOptimize(frame.image.data().data());
  }
}
BENCHMARK(BM_CaptureFrame);

double NowUs() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Best-of-`rounds` mean µs of `calls` invocations of `body(i)`.
template <typename Body>
double BestUs(int rounds, int calls, Body&& body) {
  double best = 1e18;
  for (int r = 0; r < rounds; ++r) {
    const double start = NowUs();
    for (int i = 0; i < calls; ++i) body(static_cast<uint64_t>(r * calls + i));
    best = std::min(best, (NowUs() - start) / calls);
  }
  return best;
}

double RenderUs(int width, int calls, double noise_stddev = 3.0) {
  media::SceneOptions scene;
  scene.width = width;
  scene.height = width * 3 / 4;
  scene.noise_stddev = noise_stddev;
  const media::Pose pose = media::Pose::Standing();
  return BestUs(9, calls, [&](uint64_t seed) {
    const media::Image image = media::RenderScene(pose, scene, seed);
    benchmark::DoNotOptimize(image.data().data());
  });
}

using NoiseFn = std::function<void(std::span<uint8_t>, Rng&)>;

/// Best-of-9 mean µs of 20 calls of each `noise(channels, rng)` on a
/// flat 320×240 frame at stddev 3 (the scene default), restored before
/// each call. The kernels take turns within each round, so a slow
/// stretch of a shared host hits all of them alike.
std::vector<double> NoiseUs(const std::vector<NoiseFn>& kernels) {
  const media::Image background(320, 240, media::Rgb{24, 24, 24});
  media::Image image = background;
  constexpr int kCalls = 20;
  std::vector<double> best(kernels.size(), 1e18);
  for (int round = 0; round < 9; ++round) {
    for (size_t k = 0; k < kernels.size(); ++k) {
      const double start = NowUs();
      for (int i = 0; i < kCalls; ++i) {
        std::copy(background.data().begin(), background.data().end(),
                  image.data().begin());
        Rng rng(static_cast<uint64_t>(round * kCalls + i));
        kernels[k](image.data(), rng);
        benchmark::DoNotOptimize(image.data().data());
        benchmark::ClobberMemory();
      }
      best[k] = std::min(best[k], (NowUs() - start) / kCalls);
    }
  }
  return best;
}

/// Passes 2–4 forced to one clone.
NoiseFn Clone(media::noise_detail::BlockFn block) {
  return [block](std::span<uint8_t> channels, Rng& rng) {
    // A local copy, as AddSensorNoise(..., Rng&) draws from.
    Rng local = rng;
    media::noise_detail::AddSensorNoiseWith(
        block, channels, 3.0, [&local] { return local.NextU64(); });
    rng = local;
  };
}

/// The dispatched kernel must beat the per-channel NextGaussian loop by
/// this factor. A ratio of two kernels on one host cancels host speed.
constexpr double kMinNoiseSpeedup = 3.5;

int SmokeMain() {
  // Best-of-9: scheduler noise is strictly additive.
  const double render_160 = RenderUs(160, 40);
  const double render_320 = RenderUs(320, 20);
  const double render_640 = RenderUs(640, 5);
  const double render_320_noiseless = RenderUs(320, 20, 0.0);
  std::vector<NoiseFn> kernels = {
      [](std::span<uint8_t> channels, Rng& rng) {
        media::AddSensorNoise(channels, 3.0, rng);
      },
      // The definition AddSensorNoise reproduces byte for byte.
      [](std::span<uint8_t> channels, Rng& rng) {
        for (auto& channel : channels) {
          const double noisy = channel + rng.NextGaussian(0.0, 3.0);
          channel = static_cast<uint8_t>(std::clamp(noisy, 0.0, 255.0));
        }
      },
      Clone(media::noise_detail::BlockBaseline)};
  const bool avx2 = media::noise_detail::CpuHasAvx2Fma();
  if (avx2) kernels.push_back(Clone(media::noise_detail::BlockAvx2));
  const std::vector<double> noise = NoiseUs(kernels);
  const double noise_320 = noise[0];
  const double noise_ref = noise[1];
  const double noise_baseline = noise[2];
  const double noise_avx2 = avx2 ? noise[3] : 0.0;
  const double speedup = noise_ref / noise_320;

  json::Value doc = json::Value::MakeObject();
  doc["bench"] = json::Value("micro_media");
  doc["render_us_160x120"] = json::Value(render_160);
  doc["render_us_320x240"] = json::Value(render_320);
  doc["render_us_640x480"] = json::Value(render_640);
  doc["render_us_320x240_noiseless"] = json::Value(render_320_noiseless);
  doc["noise_us_320x240"] = json::Value(noise_320);
  doc["noise_us_320x240_baseline"] = json::Value(noise_baseline);
  if (avx2) doc["noise_us_320x240_avx2"] = json::Value(noise_avx2);
  doc["noise_ref_loop_us_320x240"] = json::Value(noise_ref);
  bench::WriteBenchJson("media", doc);
  std::printf(
      "render: 160x120 %.1f us, 320x240 %.1f us (%.1f us noiseless), "
      "640x480 %.1f us\n",
      render_160, render_320, render_320_noiseless, render_640);
  std::printf("noise alone 320x240: %.1f us dispatched, %.1f us baseline",
              noise_320, noise_baseline);
  if (avx2) std::printf(", %.1f us avx2", noise_avx2);
  std::printf("; per-channel loop %.1f us\n", noise_ref);
  if (speedup < kMinNoiseSpeedup) {
    std::printf(
        "[FAIL] noise kernel %.2fx the per-channel loop, want >= %.1fx\n",
        speedup, kMinNoiseSpeedup);
    return 1;
  }
  std::printf("[ok] noise kernel %.2fx the per-channel loop (>= %.1fx)\n",
              speedup, kMinNoiseSpeedup);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (vp::bench::SmokeMode()) return SmokeMain();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
