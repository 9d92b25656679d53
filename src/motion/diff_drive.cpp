#include "motion/diff_drive.hpp"

#include <cmath>

#include "common/angles.hpp"

namespace srl {

void DiffDriveModel::sample_slice(const OdometryDelta& odom,
                                  const PoseSlice& slice) const {
  const Pose2& d = odom.delta;
  const double trans = std::hypot(d.x, d.y);

  // Decompose into rot1 (turn toward the motion direction), trans, rot2
  // (remaining heading change). For tiny translations the direction of
  // motion is ill-defined; attribute everything to rot2 as Thrun suggests.
  double rot1 = 0.0;
  if (trans > 1e-6) rot1 = normalize_angle(std::atan2(d.y, d.x));
  const double rot2 = normalize_angle(d.theta - rot1);

  // The prepared step: the three sigmas depend on the odometry alone.
  const DiffDriveParams& p = params_;
  const double sigma_rot1 =
      std::sqrt(p.alpha1 * rot1 * rot1 + p.alpha2 * trans * trans) +
      p.sigma_floor_theta;
  const double sigma_trans =
      std::sqrt(p.alpha3 * trans * trans +
                p.alpha4 * (rot1 * rot1 + rot2 * rot2)) +
      p.sigma_floor_xy;
  const double sigma_rot2 =
      std::sqrt(p.alpha1 * rot2 * rot2 + p.alpha2 * trans * trans) +
      p.sigma_floor_theta;

  // srl-lint: realtime
  for (std::size_t i = 0; i < slice.n; ++i) {
    Rng& rng = slice.rngs[i];
    const double rot1_hat = rot1 + rng.gaussian(sigma_rot1);
    const double trans_hat = trans + rng.gaussian(sigma_trans);
    const double rot2_hat = rot2 + rng.gaussian(sigma_rot2);
    const double theta = slice.theta[i];
    const double heading = theta + rot1_hat;
    slice.x[i] = slice.x[i] + trans_hat * std::cos(heading);
    slice.y[i] = slice.y[i] + trans_hat * std::sin(heading);
    slice.theta[i] = normalize_angle(theta + rot1_hat + rot2_hat);
  }
  // srl-lint: end-realtime
}

}  // namespace srl
