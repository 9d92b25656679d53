#pragma once

/// \file sensors.hpp
/// \brief Proprioceptive sensor models over the vehicle state.
///
/// `WheelOdometrySensor` is the paper's independent variable made concrete:
/// it integrates the *wheel* speed (plus the steering-derived yaw rate, as
/// the F1TENTH VESC odometry does), so any slip between wheel and ground
/// goes straight into the reported pose increments.

#include "common/rng.hpp"
#include "common/types.hpp"
#include "motion/motion_model.hpp"
#include "vehicle/vehicle_sim.hpp"

namespace srl {

struct WheelOdometryNoise {
  double speed_noise = 0.01;   ///< multiplicative std on the speed reading
  double steer_noise = 0.005;  ///< rad, additive std on the steering reading
};

/// Produces OdometryDelta increments from wheel speed + steering angle.
class WheelOdometrySensor {
 public:
  WheelOdometrySensor(AckermannParams ackermann, WheelOdometryNoise noise = {})
      : ackermann_{ackermann}, noise_{noise} {}

  /// Sample the sensors at the current state and integrate over `dt`.
  /// The returned delta is what a localizer receives — computed from
  /// wheel_speed, NOT the true body speed.
  OdometryDelta measure(const VehicleState& state, double dt, Rng& rng) const;

  const AckermannParams& ackermann() const { return ackermann_; }

 private:
  AckermannParams ackermann_;
  WheelOdometryNoise noise_;
};

}  // namespace srl
