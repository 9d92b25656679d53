#include "sensor/lidar_sim.hpp"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

namespace srl {

LidarSim::LidarSim(LidarConfig config,
                   std::shared_ptr<const RangeMethod> caster, LidarNoise noise)
    : config_{std::move(config)}, caster_{std::move(caster)}, noise_{noise} {}

LaserScan LidarSim::scan(const Pose2& body, const Twist2& twist, double t,
                         Rng& rng) const {
  LaserScan out;
  out.t = t;
  out.ranges.resize(static_cast<std::size_t>(config_.n_beams));
  const auto max_r = static_cast<float>(config_.max_range);
  const double period = config_.rate_hz > 0.0 ? 1.0 / config_.rate_hz : 0.0;
  const bool moving =
      period > 0.0 && (std::abs(twist.vx) > 1e-6 ||
                       std::abs(twist.vy) > 1e-6 || std::abs(twist.wz) > 1e-6);
  const int n = config_.n_beams;
  // Cast the whole revolution in one batch, then perturb beam by beam.
  // Casting draws nothing, so the RNG sequence is the per-beam loop's; a
  // beam that drops out is cast anyway and its range discarded.
  std::vector<Pose2> rays(out.ranges.size());
  // cos and sin of the body heading, taken once for every beam's
  // `integrate_twist(body, twist, tau)`.
  const PoseFrame frame{body};
  for (int i = 0; i < n; ++i) {
    // Beam i fired tau seconds before scan end (beam n-1 is the newest).
    Pose2 body_i = body;
    if (moving) {
      const double tau =
          period * (static_cast<double>(i) / std::max(n - 1, 1) - 1.0);
      body_i = frame * twist_increment(twist, tau);
    }
    const Pose2 sensor = config_.sensor_pose(body_i);
    rays[static_cast<std::size_t>(i)] = {sensor.x, sensor.y,
                                         sensor.theta + config_.beam_angle(i)};
  }
  caster_->ranges(rays, out.ranges);
  for (float& r : out.ranges) {
    if (rng.chance(noise_.dropout_prob)) {
      r = max_r;
    } else if (r < max_r) {
      r += static_cast<float>(rng.gaussian(noise_.sigma_range));
    }
    r = std::clamp(r, 0.0F, max_r);
  }
  return out;
}

}  // namespace srl
