#pragma once

/// \file diff_drive.hpp
/// \brief Classical odometry motion model for differential-drive robots
/// (Thrun, Burgard & Fox, "Probabilistic Robotics", ch. 5.4). The increment
/// is decomposed into rotation-translation-rotation and each component is
/// perturbed with noise proportional to the motion magnitudes via the alpha
/// parameters. This is the baseline the paper criticizes: because rotation
/// noise grows with *translation* (alpha2), fast straight driving produces
/// large heading dispersion — physically impossible for an Ackermann car.

#include "motion/motion_model.hpp"

namespace srl {

struct DiffDriveParams {
  double alpha1 = 0.25;   ///< rot noise from rotation
  double alpha2 = 0.08;   ///< rot noise from translation (the culprit at speed)
  double alpha3 = 0.10;   ///< trans noise from translation
  double alpha4 = 0.05;   ///< trans noise from rotation
  double sigma_floor_xy = 0.005;     ///< m, minimum positional jitter
  double sigma_floor_theta = 0.004;  ///< rad, minimum heading jitter
};

class DiffDriveModel final : public MotionModel {
 public:
  explicit DiffDriveModel(const DiffDriveParams& params = {})
      : params_{params} {}

  void sample_slice(const OdometryDelta& odom,
                    const PoseSlice& slice) const override;
  std::string name() const override { return "diff_drive"; }

  const DiffDriveParams& params() const { return params_; }

 private:
  DiffDriveParams params_;
};

}  // namespace srl
