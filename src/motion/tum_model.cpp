#include "motion/tum_model.hpp"

#include <algorithm>
#include <cmath>

#include "common/angles.hpp"

namespace srl {

double TumMotionModel::heading_sigma(double trans, double v) const {
  const TumModelParams& p = params_;
  // Diff-drive-like growth with distance...
  const double uncapped = p.alpha_rot_trans * std::abs(trans);
  // ...capped by what the steering geometry and grip allow over this step.
  const double cap =
      p.beta_curvature * max_curvature(p.ackermann, v) * std::abs(trans);
  return std::min(uncapped, cap) + p.sigma_floor_theta;
}

void TumMotionModel::sample_slice(const OdometryDelta& odom,
                                  const PoseSlice& slice) const {
  const TumModelParams& p = params_;
  const Pose2& d = odom.delta;
  // The prepared step: every term below depends on the odometry alone.
  const double trans = std::hypot(d.x, d.y);
  const double v = std::max(std::abs(odom.v),
                            odom.dt > 0.0 ? trans / odom.dt : 0.0);
  const double kappa = max_curvature(p.ackermann, v);

  // Longitudinal slip noise: applied along the motion direction, growing
  // with distance traveled (slip scales with commanded wheel travel).
  const double sigma_trans = p.alpha_trans * trans + p.sigma_floor_xy;

  // Heading increment: clamped to what the steering geometry and grip
  // could physically have produced over this step.
  const double envelope =
      p.envelope_margin * kappa * trans + p.sigma_floor_theta;
  const double dtheta_mean =
      std::clamp(normalize_angle(d.theta), -envelope, envelope);

  // Heading noise: turn-proportional term plus the curvature-capped
  // translation term (the TUM correction).
  const double sigma_rot =
      p.alpha_rot * std::abs(dtheta_mean) + heading_sigma(trans, v);

  // Lateral noise: bounded by the lateral offset a maximally curved path
  // would accumulate over this step (0.5 * kappa * s^2), never more than the
  // uncapped diff-drive-style lateral jitter.
  const double lat_cap = 0.5 * p.beta_curvature * kappa * trans * trans;
  const double sigma_lat =
      std::min(p.alpha_trans * trans, lat_cap) + p.sigma_floor_xy;

  const double direction = trans > 1e-6 ? std::atan2(d.y, d.x) : 0.0;

  // srl-lint: realtime
  for (std::size_t i = 0; i < slice.n; ++i) {
    Rng& rng = slice.rngs[i];
    const double trans_hat = trans + rng.gaussian(sigma_trans);
    const double dtheta_hat = dtheta_mean + rng.gaussian(sigma_rot);
    const double lat_hat = rng.gaussian(sigma_lat);
    // Advance along the arc: half the heading change before translating
    // (midpoint integration keeps the sample on the commanded arc).
    const double theta = slice.theta[i];
    const double mid_heading = theta + 0.5 * dtheta_hat + direction;
    const double cx = std::cos(mid_heading);
    const double sx = std::sin(mid_heading);
    slice.x[i] = slice.x[i] + trans_hat * cx - lat_hat * sx;
    slice.y[i] = slice.y[i] + trans_hat * sx + lat_hat * cx;
    slice.theta[i] = normalize_angle(theta + dtheta_hat);
  }
  // srl-lint: end-realtime
}

}  // namespace srl
