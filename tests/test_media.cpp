// Tests for the media substrate: images, skeleton/motion models, the
// renderer, the codec, frame stores and the synthetic camera.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "media/codec.hpp"
#include "media/frame_store.hpp"
#include "media/motion.hpp"
#include "media/renderer.hpp"
#include "media/sensor_noise.hpp"
#include "media/video_source.hpp"

namespace vp::media {
namespace {

// ---------------------------------------------------------------- Image

TEST(Image, ConstructionAndPixelAccess) {
  Image image(8, 4, Rgb{1, 2, 3});
  EXPECT_EQ(image.width(), 8);
  EXPECT_EQ(image.height(), 4);
  EXPECT_EQ(image.byte_size(), 8u * 4u * 3u);
  EXPECT_EQ(image.At(0, 0), (Rgb{1, 2, 3}));
  image.Set(7, 3, Rgb{9, 9, 9});
  EXPECT_EQ(image.At(7, 3), (Rgb{9, 9, 9}));
}

TEST(Image, ClippedSetIgnoresOutOfBounds) {
  Image image(4, 4);
  image.SetClipped(-1, 0, Rgb{255, 0, 0});
  image.SetClipped(0, 100, Rgb{255, 0, 0});
  for (int y = 0; y < 4; ++y) {
    for (int x = 0; x < 4; ++x) {
      EXPECT_EQ(image.At(x, y), (Rgb{0, 0, 0}));
    }
  }
}

TEST(Image, DrawDiskCoversExpectedArea) {
  Image image(21, 21);
  image.DrawDisk(10, 10, 3.0, Rgb{255, 255, 255});
  int lit = 0;
  for (int y = 0; y < 21; ++y) {
    for (int x = 0; x < 21; ++x) {
      if (image.At(x, y).r == 255) ++lit;
    }
  }
  EXPECT_NEAR(lit, M_PI * 9.0, 10.0);
  EXPECT_EQ(image.At(10, 10).r, 255);
  EXPECT_EQ(image.At(0, 0).r, 0);
}

TEST(Image, DrawLineConnectsEndpoints) {
  Image image(20, 20);
  image.DrawLine(2, 2, 17, 17, 1.5, Rgb{200, 0, 0});
  EXPECT_GT(image.At(2, 2).r, 0);
  EXPECT_GT(image.At(17, 17).r, 0);
  EXPECT_GT(image.At(10, 10).r, 0);  // midpoint
  EXPECT_EQ(image.At(2, 17).r, 0);   // off-diagonal untouched
}

TEST(Image, DownsampleAverages) {
  Image image(4, 4, Rgb{100, 100, 100});
  image.Set(0, 0, Rgb{200, 200, 200});
  Image small = image.Downsample(2);
  EXPECT_EQ(small.width(), 2);
  EXPECT_EQ(small.height(), 2);
  EXPECT_EQ(small.At(0, 0).r, 125);  // (200+100+100+100)/4
  EXPECT_EQ(small.At(1, 1).r, 100);
}

TEST(Image, MeanAbsDiff) {
  Image a(4, 4, Rgb{10, 10, 10});
  Image b(4, 4, Rgb{14, 10, 10});
  EXPECT_NEAR(a.MeanAbsDiff(b), 4.0 / 3.0, 1e-9);
  EXPECT_DOUBLE_EQ(a.MeanAbsDiff(a), 0.0);
  Image c(3, 3);
  EXPECT_DOUBLE_EQ(a.MeanAbsDiff(c), 255.0);  // dimension mismatch
}

TEST(Image, ColorDistanceIsChebyshev) {
  EXPECT_EQ(ColorDistance(Rgb{0, 0, 0}, Rgb{5, 10, 2}), 10);
  EXPECT_EQ(ColorDistance(Rgb{255, 0, 0}, Rgb{0, 0, 0}), 255);
}

// ------------------------------------------------------------- Skeleton

TEST(Skeleton, SeventeenKeypointsWithNamesAndColors) {
  EXPECT_EQ(kNumKeypoints, 17);
  std::set<std::string> names;
  for (int k = 0; k < kNumKeypoints; ++k) {
    names.insert(KeypointName(k));
  }
  EXPECT_EQ(names.size(), 17u);  // all distinct
  // Palette colors must stay pairwise separable beyond the detector
  // tolerance plus the codec quantization error.
  for (int a = 0; a < kNumKeypoints; ++a) {
    for (int b = a + 1; b < kNumKeypoints; ++b) {
      EXPECT_GE(ColorDistance(KeypointColor(a), KeypointColor(b)), 55)
          << KeypointName(a) << " vs " << KeypointName(b);
    }
  }
}

TEST(Skeleton, BonesReferenceValidJoints) {
  for (const auto& [a, b] : SkeletonBones()) {
    EXPECT_GE(a, 0);
    EXPECT_LT(a, kNumKeypoints);
    EXPECT_GE(b, 0);
    EXPECT_LT(b, kNumKeypoints);
    EXPECT_NE(a, b);
  }
  EXPECT_GE(SkeletonBones().size(), 14u);
}

TEST(Skeleton, StandingPoseGeometry) {
  const Pose pose = Pose::Standing();
  // Head above hips above ankles (y grows downward).
  EXPECT_LT(pose[kNose].y, pose[kLeftHip].y);
  EXPECT_LT(pose[kLeftHip].y, pose[kLeftAnkle].y);
  // Left of body has smaller x than right.
  EXPECT_LT(pose[kLeftShoulder].x, pose[kRightShoulder].x);
  EXPECT_GT(pose.TorsoLength(), 0.1);
  const Point2 hips = pose.HipCenter();
  EXPECT_NEAR(hips.x, 0.5, 0.01);
}

TEST(Skeleton, PoseJsonRoundTrip) {
  Pose pose = Pose::Standing();
  pose.visible[kLeftEar] = false;
  auto back = Pose::FromJson(pose.ToJson());
  ASSERT_TRUE(back.ok());
  for (int k = 0; k < kNumKeypoints; ++k) {
    EXPECT_DOUBLE_EQ((*back)[k].x, pose[k].x);
    EXPECT_DOUBLE_EQ((*back)[k].y, pose[k].y);
    EXPECT_EQ(back->visible[static_cast<size_t>(k)],
              pose.visible[static_cast<size_t>(k)]);
  }
}

TEST(Skeleton, PoseFromJsonRejectsBadShapes) {
  EXPECT_FALSE(Pose::FromJson(json::Value::MakeObject()).ok());
  auto truncated = Pose::Standing().ToJson();
  truncated["points"].AsArray().pop_back();
  EXPECT_FALSE(Pose::FromJson(truncated).ok());
}

TEST(Skeleton, LerpInterpolates) {
  Pose a = Pose::Standing();
  Pose b = a;
  b[kNose] = {0.7, 0.5};
  const Pose mid = Lerp(a, b, 0.5);
  EXPECT_NEAR(mid[kNose].x, (a[kNose].x + 0.7) / 2, 1e-12);
  EXPECT_NEAR(mid[kNose].y, (a[kNose].y + 0.5) / 2, 1e-12);
}

// --------------------------------------------------------------- Motion

TEST(Motion, FactoryKnowsAllAdvertisedLabels) {
  for (const std::string& label : KnownMotionLabels()) {
    auto motion = MakeMotion(label);
    ASSERT_TRUE(motion.ok()) << label;
    EXPECT_EQ((*motion)->label(), label);
  }
  EXPECT_FALSE(MakeMotion("moonwalk").ok());
  MotionParams bad;
  bad.period = 0;
  EXPECT_FALSE(MakeMotion("squat", bad).ok());
}

class MotionBounds : public ::testing::TestWithParam<std::string> {};

TEST_P(MotionBounds, PosesStayInBodySpace) {
  auto motion = MakeMotion(GetParam());
  ASSERT_TRUE(motion.ok());
  for (double t = 0; t < 10.0; t += 0.05) {
    const Pose pose = (*motion)->PoseAt(t);
    for (const Point2& p : pose.points) {
      EXPECT_GT(p.x, -0.3) << GetParam() << " t=" << t;
      EXPECT_LT(p.x, 1.3) << GetParam() << " t=" << t;
      EXPECT_GT(p.y, -0.3) << GetParam() << " t=" << t;
      EXPECT_LT(p.y, 1.3) << GetParam() << " t=" << t;
    }
  }
}

TEST_P(MotionBounds, RepsAreMonotone) {
  auto motion = MakeMotion(GetParam());
  ASSERT_TRUE(motion.ok());
  int last = 0;
  for (double t = 0; t < 12.0; t += 0.1) {
    const int reps = (*motion)->RepsCompleted(t);
    EXPECT_GE(reps, last);
    last = reps;
  }
}

INSTANTIATE_TEST_SUITE_P(AllMotions, MotionBounds,
                         ::testing::Values("idle", "squat", "jumping_jack",
                                           "lunge", "wave", "clap", "fall"));

TEST(Motion, ExerciseRepsMatchPeriods) {
  MotionParams params;
  params.period = 2.0;
  auto squat = MakeMotion("squat", params);
  ASSERT_TRUE(squat.ok());
  EXPECT_EQ((*squat)->RepsCompleted(9.9), 4);
  EXPECT_EQ((*squat)->RepsCompleted(10.1), 5);
  auto idle = MakeMotion("idle", params);
  EXPECT_EQ((*idle)->RepsCompleted(100.0), 0);
}

TEST(Motion, SquatActuallySinks) {
  MotionParams params;
  params.period = 2.0;
  auto squat = MakeMotion("squat", params);
  const Pose top = (*squat)->PoseAt(0.0);
  const Pose bottom = (*squat)->PoseAt(1.0);  // mid-cycle
  EXPECT_GT(bottom[kLeftHip].y, top[kLeftHip].y + 0.08);
}

TEST(Motion, FallEndsHorizontal) {
  MotionParams params;
  params.period = 4.0;
  auto fall = MakeMotion("fall", params);
  const Pose upright = (*fall)->PoseAt(0.0);
  const Pose lying = (*fall)->PoseAt(4.0);
  const double upright_dy =
      std::abs(upright[kNose].y - upright[kLeftAnkle].y);
  const double lying_dy = std::abs(lying[kNose].y - lying[kLeftAnkle].y);
  EXPECT_GT(upright_dy, 0.5);
  EXPECT_LT(lying_dy, 0.25);
}

TEST(MotionScript, SegmentsAndLabels) {
  auto script = MotionScript::Make({
      {"idle", 2.0, {}},
      {"squat", 4.0, {}},
      {"clap", 1.0, {}},
  });
  ASSERT_TRUE(script.ok());
  EXPECT_DOUBLE_EQ(script->total_duration(), 7.0);
  EXPECT_EQ(script->LabelAt(1.0), "idle");
  EXPECT_EQ(script->LabelAt(3.0), "squat");
  EXPECT_EQ(script->LabelAt(6.5), "clap");
  EXPECT_EQ(script->LabelAt(100.0), "clap");  // clamps to last segment
}

TEST(MotionScript, RepsAccumulateAcrossSegments) {
  MotionParams fast;
  fast.period = 1.0;
  auto script = MotionScript::Make({
      {"squat", 3.0, fast},  // 3 reps
      {"idle", 1.0, {}},
      {"jumping_jack", 2.0, fast},  // 2 reps
  });
  ASSERT_TRUE(script.ok());
  EXPECT_EQ(script->RepsUpTo(0.0), 0);
  EXPECT_EQ(script->RepsUpTo(3.5), 3);
  EXPECT_EQ(script->RepsUpTo(6.5), 5);
}

TEST(MotionScript, RejectsBadSegments) {
  EXPECT_FALSE(MotionScript::Make({{"warp", 1.0, {}}}).ok());
  EXPECT_FALSE(MotionScript::Make({{"idle", -1.0, {}}}).ok());
}

// -------------------------------------------------------------- Renderer

TEST(Renderer, JointMarkersLandWhereTheTransformSays) {
  SceneOptions scene;
  const Pose pose = Pose::Standing();
  const Image image = RenderScene(pose, scene, 1);
  const Point2 nose = BodyToPixel(pose[kNose], scene);
  const Rgb at_nose = image.At(static_cast<int>(std::lround(nose.x)),
                               static_cast<int>(std::lround(nose.y)));
  EXPECT_LT(ColorDistance(at_nose, KeypointColor(kNose)), 30);
}

TEST(Renderer, BackgroundIsQuietAndNoisy) {
  SceneOptions scene;
  Pose hidden;
  hidden.visible.fill(false);
  const Image image = RenderScene(hidden, scene, 2);
  const Rgb corner = image.At(1, 1);
  EXPECT_LT(ColorDistance(corner, scene.background), 15);
  // Noise makes frames differ between seeds.
  const Image other = RenderScene(hidden, scene, 3);
  EXPECT_GT(image.MeanAbsDiff(other), 0.5);
}

TEST(Renderer, DeterministicPerSeed) {
  SceneOptions scene;
  const Pose pose = Pose::Standing();
  const Image a = RenderScene(pose, scene, 7);
  const Image b = RenderScene(pose, scene, 7);
  EXPECT_DOUBLE_EQ(a.MeanAbsDiff(b), 0.0);
}

TEST(Renderer, PropsAreDrawn) {
  SceneOptions scene;
  scene.props.push_back(Prop{"lamp", 0.05, 0.05, 0.1, 0.2, Rgb{10, 90, 200}});
  Pose hidden;
  hidden.visible.fill(false);
  const Image image = RenderScene(hidden, scene, 4);
  const int cx = static_cast<int>(0.1 * scene.width);
  const int cy = static_cast<int>(0.15 * scene.height);
  EXPECT_LT(ColorDistance(image.At(cx, cy), Rgb{10, 90, 200}), 20);
}

TEST(Renderer, InvisibleJointsNotDrawn) {
  SceneOptions scene;
  Pose pose = Pose::Standing();
  pose.visible[kNose] = false;
  const Image image = RenderScene(pose, scene, 5);
  const Point2 nose = BodyToPixel(pose[kNose], scene);
  const Rgb at_nose =
      image.At(static_cast<int>(nose.x), static_cast<int>(nose.y));
  EXPECT_GT(ColorDistance(at_nose, KeypointColor(kNose)), 60);
}

// ---------------------------------------------------------- Sensor noise

// The per-channel loop RenderScene ran before the fused kernel, verbatim.
// AddSensorNoise must reproduce it byte for byte.
void ReferenceNoise(std::vector<uint8_t>& data, double noise_stddev,
                    Rng& rng) {
  for (auto& channel : data) {
    const double noisy = channel + rng.NextGaussian(0.0, noise_stddev);
    channel = static_cast<uint8_t>(std::clamp(noisy, 0.0, 255.0));
  }
}

// The same loop over a scripted NextU64 stream: Rng::NextGaussian's
// pair logic (rejection, cached sin) spelled out, verbatim expressions.
std::vector<uint8_t> ScriptedReference(std::vector<uint8_t> data,
                                       double noise_stddev,
                                       const std::vector<uint64_t>& draws) {
  size_t next = 0;
  const auto next_double = [&] {
    return static_cast<double>(draws.at(next++) >> 11) * 0x1.0p-53;
  };
  bool has_cached = false;
  double cached = 0.0;
  for (auto& channel : data) {
    double z = cached;
    if (has_cached) {
      has_cached = false;
    } else {
      double u1 = 0.0;
      do {
        u1 = next_double();
      } while (u1 <= 1e-300);
      const double u2 = next_double();
      const double r = std::sqrt(-2.0 * std::log(u1));
      const double theta = 2.0 * M_PI * u2;
      cached = r * std::sin(theta);
      has_cached = true;
      z = r * std::cos(theta);
    }
    const double noisy = channel + (0.0 + noise_stddev * z);
    channel = static_cast<uint8_t>(std::clamp(noisy, 0.0, 255.0));
  }
  return data;
}

// The kernel under test: the dispatched one behind the public API, or
// one clone of passes 2–4 called explicitly.
enum class Kernel { kDispatched, kBaseline, kAvx2 };

std::string KernelName(const testing::TestParamInfo<Kernel>& info) {
  switch (info.param) {
    case Kernel::kDispatched:
      return "Dispatched";
    case Kernel::kBaseline:
      return "Baseline";
    case Kernel::kAvx2:
      return "Avx2";
  }
  return "";
}

class SensorNoise : public testing::TestWithParam<Kernel> {
 protected:
  void SetUp() override {
    if (GetParam() == Kernel::kAvx2 && !noise_detail::CpuHasAvx2Fma()) {
      GTEST_SKIP() << "the CPU lacks AVX2/FMA";
    }
  }

  noise_detail::BlockFn Block() const {
    switch (GetParam()) {
      case Kernel::kBaseline:
        return noise_detail::BlockBaseline;
      case Kernel::kAvx2:
        return noise_detail::BlockAvx2;
      case Kernel::kDispatched:
        break;
    }
    return noise_detail::DispatchedBlock();
  }

  size_t Noise(std::vector<uint8_t>& data, double noise_stddev,
               Rng& rng) const {
    if (GetParam() == Kernel::kDispatched) {
      return AddSensorNoise(data, noise_stddev, rng);
    }
    return noise_detail::AddSensorNoiseWith(Block(), data, noise_stddev,
                                            [&rng] { return rng.NextU64(); });
  }

  // Runs the kernel on `data` over the scripted stream; returns the
  // number of exact-path pairs and checks every draw was consumed.
  size_t ScriptedNoise(std::vector<uint8_t>& data, double noise_stddev,
                       const std::vector<uint64_t>& draws) const {
    size_t next = 0;
    const size_t exact = noise_detail::AddSensorNoiseWith(
        Block(), data, noise_stddev, [&] { return draws.at(next++); });
    EXPECT_EQ(next, draws.size());
    return exact;
  }
};

INSTANTIATE_TEST_SUITE_P(Kernels, SensorNoise,
                         testing::Values(Kernel::kDispatched,
                                         Kernel::kBaseline, Kernel::kAvx2),
                         KernelName);

uint64_t Fnv1a(const std::vector<uint8_t>& bytes) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  return h;
}

TEST_P(SensorNoise, MatchesPerChannelLoopAcrossSeedsSizesAndColours) {
  const std::vector<std::pair<int, int>> sizes = {{7, 5}, {33, 1}, {160, 120}};
  size_t pairs = 0;
  size_t exact_pairs = 0;
  for (const uint64_t seed : {1ULL, 2ULL, 0xC0FFEEULL}) {
    for (const auto& [w, h] : sizes) {
      for (const double sd : {0.0, 0.5, 3.0, 25.0, 200.0}) {
        for (const uint8_t base : {0, 24, 128, 250, 255}) {
          const Image image(w, h, Rgb{base, base, base});
          std::vector<uint8_t> expected = image.data();
          std::vector<uint8_t> actual = image.data();
          Rng reference_rng(seed);
          Rng rng(seed);
          ReferenceNoise(expected, sd, reference_rng);
          const size_t exact = Noise(actual, sd, rng);
          ASSERT_EQ(actual, expected)
              << "seed " << seed << " " << w << "x" << h << " sd " << sd
              << " base " << int{base};
          ASSERT_EQ(rng.NextU64(), reference_rng.NextU64());
          if (sd > 0) {
            pairs += (actual.size() + 1) / 2;
            exact_pairs += exact;
          }
        }
      }
    }
  }
  // The transform carries almost every pair; the exact path is the
  // rare band-edge fallback (plus the odd-length tails).
  EXPECT_LT(static_cast<double>(exact_pairs),
            0.01 * static_cast<double>(pairs));
}

TEST_P(SensorNoise, MatchesPerChannelLoopOnARenderedScene) {
  // Bones, joint colours and props: the byte values a real frame holds.
  SceneOptions scene;
  scene.width = 320;
  scene.height = 240;
  scene.noise_stddev = 0;
  scene.props.push_back(Prop{"lamp", 0.05, 0.05, 0.1, 0.2, Rgb{10, 90, 200}});
  const Image clean = RenderScene(Pose::Standing(), scene, 1);
  for (const double sd : {0.5, 3.0, 25.0}) {
    for (const uint64_t seed : {3ULL, 4ULL}) {
      std::vector<uint8_t> expected = clean.data();
      std::vector<uint8_t> actual = clean.data();
      Rng reference_rng(seed);
      Rng rng(seed);
      ReferenceNoise(expected, sd, reference_rng);
      Noise(actual, sd, rng);
      ASSERT_EQ(actual, expected) << "sd " << sd << " seed " << seed;
    }
  }
}

TEST_P(SensorNoise, InjectedDrawsRejectZeroU1) {
  // Draws whose top 53 bits are zero make u1 = 0; NextGaussian skips
  // them, and so must the kernel, for pairs and for the odd tail.
  const uint64_t kZeroU1 = 0x7FF;  // low 11 bits only
  const std::vector<uint64_t> draws = {
      0,       kZeroU1, 0x9E3779B97F4A7C15ULL, 0x0123456789ABCDEFULL,
      kZeroU1, 0xDEADBEEFCAFEF00DULL,          0x8000000000000000ULL,
      0,       0xF0F0F0F0F0F0F0F0ULL,          0x5555555555555555ULL};
  const std::vector<uint8_t> base = {24, 128, 250, 0, 255};
  std::vector<uint8_t> actual = base;
  ScriptedNoise(actual, 3.0, draws);
  EXPECT_EQ(actual, ScriptedReference(base, 3.0, draws));
}

TEST_P(SensorNoise, InjectedDrawsAtTheBandEdgeTakeTheExactPath) {
  const uint64_t a = 0x9E3779B97F4A7C15ULL;
  // One pair through passes 2–4 alone: returns its exact-path count
  // and leaves the pair's bytes in px.
  const auto block = [this](uint64_t u1, uint64_t u2, double sd,
                            uint8_t* px) {
    return Block()(&u1, &u2, 1, sd, px);
  };
  // b = 0 makes θ = 0: the exact sin half is exactly 0, so y = c lies on
  // an integer, where any approximate sin of the wrong sign would
  // truncate c = 1 to 0.
  {
    const std::vector<uint8_t> base = {100, 1};
    const std::vector<uint8_t> expected = ScriptedReference(base, 3.0, {a, 0});
    std::vector<uint8_t> px = base;
    EXPECT_EQ(block(a, 0, 3.0, px.data()), 1u);
    EXPECT_EQ(px, expected);
    std::vector<uint8_t> actual = base;
    EXPECT_EQ(ScriptedNoise(actual, 3.0, {a, 0}), 1u);
    EXPECT_EQ(actual, expected);
  }
  // A stddev that puts c + sd·r (θ = 0) within rounding of c + 2.
  {
    const double r = std::sqrt(-2.0 * std::log(Rng::UnitFromBits(a)));
    const double sd = 2.0 / r;
    const std::vector<uint8_t> base = {100, 7};
    const std::vector<uint8_t> expected = ScriptedReference(base, sd, {a, 0});
    std::vector<uint8_t> px = base;
    EXPECT_EQ(block(a, 0, sd, px.data()), 1u);
    EXPECT_EQ(px, expected);
    std::vector<uint8_t> actual = base;
    EXPECT_EQ(ScriptedNoise(actual, sd, {a, 0}), 1u);
    EXPECT_EQ(actual, expected);
  }
  // u1 = 1 - 2^-53 makes r about 1.5e-8, below the certified range.
  {
    const std::vector<uint8_t> base = {128, 128};
    const std::vector<uint8_t> expected =
        ScriptedReference(base, 3.0, {~uint64_t{0}, a});
    std::vector<uint8_t> px = base;
    EXPECT_EQ(block(~uint64_t{0}, a, 3.0, px.data()), 1u);
    EXPECT_EQ(px, expected);
    std::vector<uint8_t> actual = base;
    EXPECT_EQ(ScriptedNoise(actual, 3.0, {~uint64_t{0}, a}), 1u);
    EXPECT_EQ(actual, expected);
  }
  // An ordinary pair is certified.
  {
    const std::vector<uint64_t> draws = {a, 0x0123456789ABCDEFULL};
    const std::vector<uint8_t> base = {24, 24};
    const std::vector<uint8_t> expected = ScriptedReference(base, 3.0, draws);
    std::vector<uint8_t> px = base;
    EXPECT_EQ(block(draws[0], draws[1], 3.0, px.data()), 0u);
    EXPECT_EQ(px, expected);
    std::vector<uint8_t> actual = base;
    EXPECT_EQ(ScriptedNoise(actual, 3.0, draws), 0u);
    EXPECT_EQ(actual, expected);
  }
}

TEST_P(SensorNoise, BandEdgePairsInTheFirstAndLastSlotOfABlock) {
  // Three blocks, the last one partial, with the θ = 0 band-edge pair
  // (see above) in the first and the last slot of each and ordinary
  // pairs everywhere else.
  using noise_detail::kBlockPairs;
  const uint64_t a = 0x9E3779B97F4A7C15ULL;
  const size_t pairs = 2 * kBlockPairs + 7;
  const std::set<size_t> edges = {0,           kBlockPairs - 1,
                                  kBlockPairs, 2 * kBlockPairs - 1,
                                  2 * kBlockPairs, pairs - 1};
  Rng rng(11);
  std::vector<uint64_t> draws;
  std::vector<uint8_t> base;
  for (size_t i = 0; i < pairs; ++i) {
    if (edges.count(i) != 0) {
      draws.insert(draws.end(), {a, 0});
      base.insert(base.end(), {100, 1});
    } else {
      draws.insert(draws.end(), {rng.NextU64() | (uint64_t{1} << 63),
                                 rng.NextU64()});
      base.insert(base.end(), {static_cast<uint8_t>(i), 128});
    }
  }
  std::vector<uint8_t> actual = base;
  EXPECT_EQ(ScriptedNoise(actual, 3.0, draws), edges.size());
  EXPECT_EQ(actual, ScriptedReference(base, 3.0, draws));
}

TEST_P(SensorNoise, ChannelCountsOffTheBlockAndVectorWidth) {
  using noise_detail::kBlockPairs;
  const size_t block = 2 * kBlockPairs;
  for (const size_t n : {size_t{1}, size_t{2}, size_t{3}, size_t{5},
                         size_t{6}, size_t{7}, size_t{9}, size_t{14},
                         block - 3, block - 1, block, block + 1, block + 2,
                         block + 5, 2 * block + 3, 3 * block - 2}) {
    for (const double sd : {0.5, 25.0}) {
      std::vector<uint8_t> expected(n);
      for (size_t i = 0; i < n; ++i) expected[i] = static_cast<uint8_t>(i * 7);
      std::vector<uint8_t> actual = expected;
      Rng reference_rng(n);
      Rng rng(n);
      ReferenceNoise(expected, sd, reference_rng);
      Noise(actual, sd, rng);
      ASSERT_EQ(actual, expected) << n << " channels, sd " << sd;
      ASSERT_EQ(rng.NextU64(), reference_rng.NextU64()) << n << " channels";
    }
  }
}

TEST_P(SensorNoise, NonPositiveAndHugeStddevStayExact) {
  for (const double sd : {-3.0, 0.0, 2e6}) {
    const Image image(9, 3, Rgb{24, 128, 250});
    std::vector<uint8_t> expected = image.data();
    std::vector<uint8_t> actual = image.data();
    Rng reference_rng(5);
    Rng rng(5);
    ReferenceNoise(expected, sd, reference_rng);
    EXPECT_EQ(Noise(actual, sd, rng), (actual.size() + 1) / 2);
    EXPECT_EQ(actual, expected) << "sd " << sd;
  }
}

TEST(SensorNoise, PixelsArePinned) {
  // FNV-1a of the pixels, computed with the per-channel loop before the
  // fused kernel replaced it. A change here changes every frame.
  SceneOptions scene;
  EXPECT_EQ(Fnv1a(RenderScene(Pose::Standing(), scene, 1).data()),
            0xdd3540b903a311edULL);
  EXPECT_EQ(Fnv1a(RenderScene(Pose::Standing(), scene, 7).data()),
            0x1859b48a18ab355cULL);
  EXPECT_EQ(Fnv1a(RenderScene(Pose::Standing(), scene, 42).data()),
            0xf42cda9e221236a5ULL);
  SceneOptions big;
  big.width = 320;
  big.height = 240;
  big.props.push_back(Prop{"lamp", 0.05, 0.05, 0.1, 0.2, Rgb{10, 90, 200}});
  EXPECT_EQ(Fnv1a(RenderScene(Pose::Standing(), big, 3).data()),
            0x92e56937321b54c2ULL);
  SceneOptions odd;
  odd.width = 7;
  odd.height = 5;
  odd.noise_stddev = 25;
  odd.background = Rgb{250, 0, 128};
  EXPECT_EQ(Fnv1a(RenderScene(Pose::Standing(), odd, 9).data()),
            0xa1c9513679ed52efULL);
  SyntheticVideoSource source(DefaultWorkoutScript(), 20.0);
  EXPECT_EQ(Fnv1a(source.CaptureFrame(0).image.data()),
            0x5e6c99a2c420baabULL);
  EXPECT_EQ(Fnv1a(source.CaptureFrame(80).image.data()),
            0xcaa6c308e93aa905ULL);
  EXPECT_EQ(Fnv1a(source.CaptureFrame(599).image.data()),
            0xd0877cc46762b067ULL);
}

// ----------------------------------------------------------------- Codec

TEST(Codec, RoundTripWithinQuantizationBound) {
  SceneOptions scene;
  Frame frame;
  frame.seq = 9;
  frame.capture_time = TimePoint::FromMicros(123456);
  frame.ground_truth["activity"] = json::Value("squat");
  frame.image = RenderScene(Pose::Standing(), scene, 6);

  const Bytes wire = EncodeFrame(frame);
  auto decoded = DecodeFrame(wire);
  ASSERT_TRUE(decoded.ok()) << decoded.error().ToString();
  EXPECT_EQ(decoded->seq, 9u);
  EXPECT_EQ(decoded->capture_time.micros(), 123456);
  EXPECT_EQ(decoded->ground_truth.GetString("activity"), "squat");
  EXPECT_EQ(decoded->image.width(), frame.image.width());
  EXPECT_EQ(decoded->image.height(), frame.image.height());
  // 16-level quantization: every channel within 8 of the original.
  EXPECT_LE(frame.image.MeanAbsDiff(decoded->image), 8.0);
  for (int y = 0; y < frame.image.height(); y += 7) {
    for (int x = 0; x < frame.image.width(); x += 7) {
      EXPECT_LE(ColorDistance(frame.image.At(x, y), decoded->image.At(x, y)),
                8);
    }
  }
}

TEST(Codec, CompressesSyntheticScenes) {
  SceneOptions scene;
  Frame frame;
  frame.image = RenderScene(Pose::Standing(), scene, 8);
  const Bytes wire = EncodeFrame(frame);
  EXPECT_LT(wire.size(), frame.image.byte_size() / 2);
  EXPECT_GT(wire.size(), 100u);
}

TEST(Codec, RejectsGarbage) {
  EXPECT_FALSE(DecodeFrame(Bytes{1, 2, 3}).ok());
  Bytes wire = EncodeFrame(Frame{.image = Image(8, 8)});
  wire[0] ^= 0xFF;
  EXPECT_FALSE(DecodeFrame(wire).ok());
  wire[0] ^= 0xFF;
  wire.resize(wire.size() / 2);
  EXPECT_FALSE(DecodeFrame(wire).ok());
}

TEST(Codec, RejectsSizesThePayloadCannotFill) {
  // Header fields as EncodeFrame writes them, then an RLE payload of
  // `runs` full 255-pixel runs.
  const auto wire = [](uint16_t w, uint16_t h, int runs) {
    ByteWriter out;
    out.WriteU32(0x56504631);
    out.WriteU64(1);
    out.WriteI64(0);
    out.WriteString("null");
    out.WriteU16(w);
    out.WriteU16(h);
    ByteWriter rle;
    for (int i = 0; i < runs; ++i) {
      rle.WriteU8(255);
      rle.WriteU8(1);
      rle.WriteU8(1);
      rle.WriteU8(1);
    }
    out.WriteBytes(rle.data());
    return out.Take();
  };
  // A garbled size must fail as a Status, not allocate 12.9 GB.
  const auto huge = DecodeFrame(wire(65535, 65535, 2));
  ASSERT_FALSE(huge.ok());
  EXPECT_EQ(huge.error().code(), StatusCode::kParseError);
  EXPECT_FALSE(DecodeFrame(wire(511, 1, 2)).ok());
  // Exactly what the runs can fill still decodes.
  const auto full = DecodeFrame(wire(255, 2, 2));
  ASSERT_TRUE(full.ok()) << full.error().ToString();
  EXPECT_EQ(full->image.width(), 255);
  EXPECT_EQ(full->image.At(254, 1), (Rgb{24, 24, 24}));
}

TEST(Codec, CostModelsScaleWithSize) {
  EXPECT_GT(EncodeCost(Image(640, 480)).millis(),
            EncodeCost(Image(160, 120)).millis());
  EXPECT_GT(DecodeCost(100000).millis(), DecodeCost(1000).millis());
}

// Parameterized: the round-trip bound holds across resolutions/noise.
struct CodecCase {
  int width;
  int height;
  double noise;
};

class CodecRoundTrip : public ::testing::TestWithParam<CodecCase> {};

TEST_P(CodecRoundTrip, BoundHolds) {
  SceneOptions scene;
  scene.width = GetParam().width;
  scene.height = GetParam().height;
  scene.noise_stddev = GetParam().noise;
  Frame frame;
  frame.image = RenderScene(Pose::Standing(), scene, 11);
  auto decoded = DecodeFrame(EncodeFrame(frame));
  ASSERT_TRUE(decoded.ok());
  EXPECT_LE(frame.image.MeanAbsDiff(decoded->image), 8.0);
}

INSTANTIATE_TEST_SUITE_P(
    Resolutions, CodecRoundTrip,
    ::testing::Values(CodecCase{64, 48, 0.0}, CodecCase{160, 120, 3.0},
                      CodecCase{320, 240, 3.0}, CodecCase{320, 240, 10.0},
                      CodecCase{640, 480, 3.0}, CodecCase{17, 13, 5.0}));

// ------------------------------------------------------------ FrameStore

TEST(FrameStore, PutGetRelease) {
  FrameStore store(8);
  Frame frame;
  frame.seq = 5;
  frame.image = Image(4, 4);
  const FrameId id = store.Put(std::move(frame));
  EXPECT_NE(id, kInvalidFrameId);
  auto got = store.Get(id);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ((*got)->seq, 5u);
  EXPECT_EQ((*got)->id, id);
  EXPECT_TRUE(store.Release(id));
  EXPECT_FALSE(store.Release(id));
  EXPECT_EQ(store.Get(id).code(), StatusCode::kNotFound);
}

TEST(FrameStore, IdsAreUnique) {
  FrameStore store(100);
  std::set<FrameId> ids;
  for (int i = 0; i < 50; ++i) {
    ids.insert(store.Put(Frame{.image = Image(2, 2)}));
  }
  EXPECT_EQ(ids.size(), 50u);
}

TEST(FrameStore, EvictsOldestAtCapacity) {
  FrameStore store(3);
  const FrameId first = store.Put(Frame{.image = Image(2, 2)});
  store.Put(Frame{.image = Image(2, 2)});
  store.Put(Frame{.image = Image(2, 2)});
  const FrameId fourth = store.Put(Frame{.image = Image(2, 2)});
  EXPECT_EQ(store.size(), 3u);
  EXPECT_EQ(store.evictions(), 1u);
  EXPECT_FALSE(store.Get(first).ok());
  EXPECT_TRUE(store.Get(fourth).ok());
}

TEST(FrameStore, EncodedCache) {
  FrameStore store(4);
  const FrameId a = store.Put(Frame{.image = Image(2, 2)}, Bytes{1, 2, 3});
  const FrameId b = store.Put(Frame{.image = Image(2, 2)});
  ASSERT_NE(store.Encoded(a), nullptr);
  EXPECT_EQ(*store.Encoded(a), (Bytes{1, 2, 3}));
  EXPECT_EQ(store.Encoded(b), nullptr);
  store.CacheEncoded(b, Bytes{9});
  ASSERT_NE(store.Encoded(b), nullptr);
  EXPECT_EQ(store.Encoded(b)->size(), 1u);
  EXPECT_EQ(store.Encoded(999), nullptr);
}

TEST(FrameStore, ResidentBytesTracksPixels) {
  FrameStore store(4);
  store.Put(Frame{.image = Image(10, 10)});
  store.Put(Frame{.image = Image(10, 10)});
  EXPECT_EQ(store.resident_bytes(), 2u * 10u * 10u * 3u);
}

// ----------------------------------------------------------- VideoSource

TEST(VideoSource, FrameCountAndTimestamps) {
  SyntheticVideoSource source(DefaultWorkoutScript(), 10.0);
  EXPECT_EQ(source.frame_count(),
            static_cast<uint64_t>(DefaultWorkoutScript().total_duration() *
                                  10.0));
  EXPECT_EQ(source.CaptureTime(0).micros(), 0);
  EXPECT_EQ(source.CaptureTime(10).millis(), 1000.0);
}

TEST(VideoSource, DeterministicPerSeed) {
  SceneOptions scene;
  SyntheticVideoSource a(DefaultWorkoutScript(), 10.0, scene, 5);
  SyntheticVideoSource b(DefaultWorkoutScript(), 10.0, scene, 5);
  const Frame fa = a.CaptureFrame(17);
  const Frame fb = b.CaptureFrame(17);
  EXPECT_DOUBLE_EQ(fa.image.MeanAbsDiff(fb.image), 0.0);
}

TEST(VideoSource, GroundTruthAnnotations) {
  SyntheticVideoSource source(DefaultWorkoutScript(), 10.0);
  // t = 8 s is inside the squat segment (starts at 3 s, 12 s long).
  const Frame frame = source.CaptureFrame(80);
  EXPECT_EQ(frame.ground_truth.GetString("activity"), "squat");
  EXPECT_GT(frame.ground_truth.GetInt("reps"), 0);
  const json::Value* pose_px = frame.ground_truth.Find("pose_px");
  ASSERT_NE(pose_px, nullptr);
  EXPECT_EQ(pose_px->AsArray().size(), 17u);
}

TEST(VideoSource, DefaultScriptsCoverTheApplications) {
  const MotionScript workout = DefaultWorkoutScript();
  EXPECT_GT(workout.total_duration(), 30.0);
  EXPECT_GT(workout.RepsUpTo(workout.total_duration()), 10);
  const MotionScript gestures = DefaultGestureScript();
  bool has_wave = false;
  bool has_clap = false;
  for (const auto& seg : gestures.segments()) {
    has_wave |= seg.label == "wave";
    has_clap |= seg.label == "clap";
  }
  EXPECT_TRUE(has_wave);
  EXPECT_TRUE(has_clap);
}

}  // namespace
}  // namespace vp::media
