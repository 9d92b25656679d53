#pragma once

/// \file tum_model.hpp
/// \brief Speed-adaptive Ackermann-constrained motion model after Stahl et
/// al., "ROS-based localization of a race vehicle at high-speed using LIDAR"
/// (E3S Web Conf. 95, 2019) — the model SynPF adopts.
///
/// Key idea: the heading (and hence lateral) uncertainty of a race car over
/// one odometry step is bounded by the *feasible curvature envelope*
/// kappa_max(v) = min(tan(delta_max)/L, a_lat/v^2). The diff-drive model's
/// heading noise (~ alpha2 * trans^2) ignores this and explodes with speed;
/// here the heading standard deviation is capped at
/// beta * kappa_max(v) * trans, so at 7 m/s on a straight the particle cloud
/// stays a tight, forward-stretched ellipse instead of a banana. At low
/// speed the cap is inactive and the model reduces to diff-drive behaviour
/// (cf. paper Fig. 1, left vs right).
///
/// Longitudinal noise is *not* capped — wheel slip corrupts the translation
/// magnitude, and the filter must keep enough longitudinal dispersion to
/// absorb it; this is exactly the robustness channel of the Table-I
/// experiment.

#include "motion/ackermann.hpp"
#include "motion/motion_model.hpp"

namespace srl {

struct TumModelParams {
  AckermannParams ackermann{};
  double alpha_trans = 0.18;        ///< trans noise per meter traveled
  double alpha_rot = 0.25;          ///< heading noise per rad turned
  double alpha_rot_trans = 0.08;    ///< uncapped heading noise per m (low v)
  double beta_curvature = 0.5;      ///< cap: fraction of kappa_max per meter
  double sigma_floor_xy = 0.012;    ///< m
  double sigma_floor_theta = 0.006; ///< rad
  /// Slack factor on the mean-heading clamp. The *mean* heading increment
  /// is clamped to the feasible-curvature envelope: steering-derived wheel
  /// odometry reports the commanded curvature, which during understeer
  /// exceeds what the tires deliver; a real Ackermann car cannot have
  /// yawed faster than kappa_max(v) * trans, so the reported excess is
  /// discarded. This is the model's physical insight applied to the
  /// increment itself, not only to its dispersion.
  double envelope_margin = 1.15;
};

class TumMotionModel final : public MotionModel {
 public:
  explicit TumMotionModel(const TumModelParams& params = {})
      : params_{params} {}

  void sample_slice(const OdometryDelta& odom,
                    const PoseSlice& slice) const override;
  std::string name() const override { return "tum"; }

  const TumModelParams& params() const { return params_; }

  /// The heading-noise standard deviation used for a step of length `trans`
  /// at speed `v` — exposed for the Fig. 1 bench and tests.
  double heading_sigma(double trans, double v) const;

 private:
  TumModelParams params_;
};

}  // namespace srl
