#include "sensor/lidar.hpp"

#include <algorithm>
#include <cmath>

namespace srl {

int LidarConfig::nearest_beam(double angle) const {
  if (n_beams <= 1) return 0;
  const double inc = angle_increment();
  const int i = static_cast<int>(std::lround((angle - angle_min()) / inc));
  return std::clamp(i, 0, n_beams - 1);
}

std::vector<Vec2> scan_to_points(const LaserScan& scan,
                                 const LidarConfig& config, int stride) {
  std::vector<Vec2> pts;
  const int step = std::max(stride, 1);
  pts.reserve(scan.ranges.size() / static_cast<std::size_t>(step) + 1);
  const int n = static_cast<int>(scan.ranges.size());
  for (int i = 0; i < n; i += step) {
    const float r = scan.ranges[static_cast<std::size_t>(i)];
    // Negated so that a NaN range is dropped too.
    if (!(r >= config.min_range && r < config.max_range)) continue;
    const double a = config.beam_angle(i);
    const Vec2 in_sensor{r * std::cos(a), r * std::sin(a)};
    pts.push_back(config.mount.transform(in_sensor));
  }
  return pts;
}

std::vector<Vec2> beam_directions(const LidarConfig& config) {
  std::vector<Vec2> dirs;
  dirs.reserve(static_cast<std::size_t>(std::max(config.n_beams, 0)));
  for (int i = 0; i < config.n_beams; ++i) {
    const double a = config.beam_angle(i);
    dirs.emplace_back(std::cos(a), std::sin(a));
  }
  return dirs;
}

void deskew_scan(const LaserScan& scan, const LidarConfig& config,
                 std::span<const Vec2> directions, const Twist2& twist,
                 int stride, std::vector<Vec2>& dense,
                 std::vector<Vec2>& strided) {
  const int step = std::max(stride, 1);
  dense.clear();
  strided.clear();
  dense.reserve(scan.ranges.size());
  strided.reserve(scan.ranges.size() / static_cast<std::size_t>(step) + 1);
  const int n = static_cast<int>(scan.ranges.size());
  const double period = config.rate_hz > 0.0 ? 1.0 / config.rate_hz : 0.0;
  // Per-scan rotations: the mount's, and that of the scan-end frame each
  // beam's twist increment is composed onto.
  const PoseFrame mount{config.mount};
  const PoseFrame scan_end{Pose2{}};
  for (int i = 0; i < n; ++i) {
    const auto b = static_cast<std::size_t>(i);
    const float r = scan.ranges[b];
    // Negated so that a NaN range is dropped too.
    if (!(r >= config.min_range && r < config.max_range)) continue;
    Vec2 dir;
    if (b < directions.size()) {
      dir = directions[b];
    } else {
      const double a = config.beam_angle(i);
      dir = {std::cos(a), std::sin(a)};
    }
    const Vec2 in_sensor{r * dir.x, r * dir.y};
    const Vec2 in_body = mount.transform(in_sensor);
    // Pose of the body at beam time, relative to the scan-end body frame.
    const double tau =
        period * (static_cast<double>(i) / std::max(n - 1, 1) - 1.0);
    const Pose2 rel = scan_end * twist_increment(twist, tau);
    const Vec2 p = rel.transform(in_body);
    dense.push_back(p);
    if (i % step == 0) strided.push_back(p);
  }
}

}  // namespace srl
