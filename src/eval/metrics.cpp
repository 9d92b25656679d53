#include "eval/metrics.hpp"

#include <cmath>

namespace srl {

ScanAlignmentScorer::ScanAlignmentScorer(const OccupancyGrid& map,
                                         double tolerance)
    : wall_distance_{shared_distance_to_occupied(map)},
      tolerance_{tolerance} {}

double ScanAlignmentScorer::score(const LaserScan& scan,
                                  const LidarConfig& config,
                                  const Pose2& estimated_body_pose,
                                  int stride) const {
  const Pose2 sensor = estimated_body_pose * config.mount;
  int valid = 0;
  int aligned = 0;
  const int n = static_cast<int>(scan.ranges.size());
  const int step = std::max(stride, 1);
  for (int i = 0; i < n; i += step) {
    const float r = scan.ranges[static_cast<std::size_t>(i)];
    if (r < config.min_range || r >= config.max_range) continue;
    ++valid;
    const double a = sensor.theta + config.beam_angle(i);
    const Vec2 endpoint{sensor.x + r * std::cos(a),
                        sensor.y + r * std::sin(a)};
    if (wall_distance_->at_world(endpoint) <= tolerance_) ++aligned;
  }
  if (valid == 0) return 0.0;
  return 100.0 * static_cast<double>(aligned) / static_cast<double>(valid);
}

}  // namespace srl
