#pragma once

/// \file motion_model.hpp
/// \brief Probabilistic motion models for the particle filter's prediction
/// step. A motion model takes particle poses and an odometry increment and
/// draws a noisy sample of each successor pose.

#include <cstddef>
#include <string>

#include "common/rng.hpp"
#include "common/types.hpp"

namespace srl {

/// One odometry increment as consumed by the prediction step.
struct OdometryDelta {
  /// Relative motion in the previous body frame (what wheel odometry
  /// integrates between two filter updates).
  Pose2 delta;
  /// Longitudinal speed reported by the odometry source (m/s). The TUM model
  /// uses this to shape the noise; note that under wheel slip this speed is
  /// itself corrupted — exactly the paper's experimental condition.
  double v{0.0};
  /// Time span of the increment (s).
  double dt{0.0};
};

/// A slice of a structure-of-arrays particle cloud, advanced in place: slot
/// i of [0, n) holds (x[i], y[i], theta[i]) and draws from rngs[i].
struct PoseSlice {
  double* x;
  double* y;
  double* theta;
  Rng* rngs;
  std::size_t n;
};

/// Interface: stateless samplers, safe for concurrent use with distinct Rngs.
class MotionModel {
 public:
  virtual ~MotionModel() = default;

  /// Draw a successor for every slot of `slice` given odometry `odom`. The
  /// terms that depend on the odometry alone are computed once per call;
  /// each slot then draws and moves exactly as a single-pose sample() would.
  virtual void sample_slice(const OdometryDelta& odom,
                            const PoseSlice& slice) const = 0;

  /// Draw one successor pose for a particle at `pose` given odometry `odom`
  /// (sample_slice over one slot).
  Pose2 sample(const Pose2& pose, const OdometryDelta& odom, Rng& rng) const {
    Pose2 out = pose;
    sample_slice(odom, PoseSlice{&out.x, &out.y, &out.theta, &rng, 1});
    return out;
  }

  virtual std::string name() const = 0;
};

}  // namespace srl
