// Microbenchmarks: media substrate — scene rendering, the frame codec
// and the frame store (real wall-clock costs of the simulation
// itself, not virtual-time costs).
//
// Custom main(): VP_BENCH_SMOKE=1 skips google-benchmark and instead
// times the synthetic camera (render at three sizes, and the sensor
// noise alone), writing BENCH_media.json for CI to archive.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>

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

double RenderUs(int width, int calls) {
  media::SceneOptions scene;
  scene.width = width;
  scene.height = width * 3 / 4;
  const media::Pose pose = media::Pose::Standing();
  return BestUs(9, calls, [&](uint64_t seed) {
    const media::Image image = media::RenderScene(pose, scene, seed);
    benchmark::DoNotOptimize(image.data().data());
  });
}

int SmokeMain() {
  // Best-of-9: scheduler noise is strictly additive.
  const double render_160 = RenderUs(160, 40);
  const double render_320 = RenderUs(320, 20);
  const double render_640 = RenderUs(640, 5);
  const media::Image background(320, 240, media::Rgb{24, 24, 24});
  media::Image image = background;
  const double noise_320 = BestUs(9, 20, [&](uint64_t seed) {
    std::copy(background.data().begin(), background.data().end(),
              image.data().begin());
    Rng rng(seed);
    media::AddSensorNoise(image.data(), 3.0, rng);
    benchmark::DoNotOptimize(image.data().data());
  });

  json::Value doc = json::Value::MakeObject();
  doc["bench"] = json::Value("micro_media");
  doc["render_us_160x120"] = json::Value(render_160);
  doc["render_us_320x240"] = json::Value(render_320);
  doc["render_us_640x480"] = json::Value(render_640);
  doc["noise_us_320x240"] = json::Value(noise_320);
  bench::WriteBenchJson("media", doc);
  std::printf(
      "render: 160x120 %.1f us, 320x240 %.1f us, 640x480 %.1f us; "
      "noise alone 320x240 %.1f us\n",
      render_160, render_320, render_640, noise_320);
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
