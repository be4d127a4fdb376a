#include "media/renderer.hpp"

#include <cmath>

#include "media/sensor_noise.hpp"

namespace vp::media {

Point2 BodyToPixel(const Point2& body_point, const SceneOptions& options) {
  const double person_px_h = options.person_height * options.height;
  const double person_px_w = person_px_h * 0.6;
  const double foot_y = options.person_foot_y * options.height;
  const double top_y = foot_y - person_px_h;
  const double center_x = options.person_center_x * options.width;
  return Point2{center_x + (body_point.x - 0.5) * person_px_w,
                top_y + body_point.y * person_px_h};
}

Image RenderScene(const Pose& pose, const SceneOptions& options,
                  uint64_t frame_seed) {
  Image image(options.width, options.height, options.background);
  Rng rng(frame_seed ^ 0xC0FFEE123456789ULL);

  // Props (furniture / IoT devices) behind the person.
  for (const Prop& prop : options.props) {
    const int x0 = static_cast<int>(prop.x * options.width);
    const int y0 = static_cast<int>(prop.y * options.height);
    const int x1 = static_cast<int>((prop.x + prop.w) * options.width);
    const int y1 = static_cast<int>((prop.y + prop.h) * options.height);
    for (int y = y0; y <= y1; ++y) {
      for (int x = x0; x <= x1; ++x) {
        image.SetClipped(x, y, prop.color);
      }
    }
  }

  // Bones.
  const Rgb bone_color{90, 90, 96};
  for (const auto& [a, b] : SkeletonBones()) {
    if (!pose.visible[static_cast<size_t>(a)] ||
        !pose.visible[static_cast<size_t>(b)]) {
      continue;
    }
    const Point2 pa = BodyToPixel(pose[a], options);
    const Point2 pb = BodyToPixel(pose[b], options);
    image.DrawLine(static_cast<int>(std::lround(pa.x)),
                   static_cast<int>(std::lround(pa.y)),
                   static_cast<int>(std::lround(pb.x)),
                   static_cast<int>(std::lround(pb.y)),
                   options.bone_thickness, bone_color);
  }

  // Joint markers (drawn over bones; overlapping joints occlude each
  // other — the later-drawn joint wins, which is what makes e.g. a
  // clap hide a wrist from the detector).
  for (int k = 0; k < kNumKeypoints; ++k) {
    if (!pose.visible[static_cast<size_t>(k)]) continue;
    const Point2 p = BodyToPixel(pose[k], options);
    image.DrawDisk(static_cast<int>(std::lround(p.x)),
                   static_cast<int>(std::lround(p.y)), options.joint_radius,
                   KeypointColor(k));
  }

  // Sensor noise.
  if (options.noise_stddev > 0) {
    AddSensorNoise(image.data(), options.noise_stddev, rng);
  }
  return image;
}

}  // namespace vp::media
