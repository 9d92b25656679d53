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

std::vector<Vec2> deskew_scan(const LaserScan& scan, const LidarConfig& config,
                              const Twist2& twist, int stride) {
  std::vector<Vec2> pts;
  const int step = std::max(stride, 1);
  pts.reserve(scan.ranges.size() / static_cast<std::size_t>(step) + 1);
  const int n = static_cast<int>(scan.ranges.size());
  const double period = config.rate_hz > 0.0 ? 1.0 / config.rate_hz : 0.0;
  for (int i = 0; i < n; i += step) {
    const float r = scan.ranges[static_cast<std::size_t>(i)];
    if (!(r >= config.min_range && r < config.max_range)) continue;
    const double a = config.beam_angle(i);
    const Vec2 in_sensor{r * std::cos(a), r * std::sin(a)};
    const Vec2 in_body = config.mount.transform(in_sensor);
    // Pose of the body at beam time, relative to the scan-end body frame.
    const double tau =
        period * (static_cast<double>(i) / std::max(n - 1, 1) - 1.0);
    const Pose2 rel = integrate_twist(Pose2{}, twist, tau);
    pts.push_back(rel.transform(in_body));
  }
  return pts;
}

}  // namespace srl
