#include "vehicle/sensors.hpp"

#include <cmath>

namespace srl {

OdometryDelta WheelOdometrySensor::measure(const VehicleState& state,
                                           double dt, Rng& rng) const {
  // Encoder speed: wheel speed with small multiplicative noise. Slip is the
  // dominant error and comes from the state itself, not from this noise.
  const double v_meas =
      state.wheel_speed * (1.0 + rng.gaussian(noise_.speed_noise));
  const double steer_meas = state.steer + rng.gaussian(noise_.steer_noise);
  // VESC-style odometry: yaw rate from the kinematic bicycle on measured
  // speed and steering. A slipping wheel corrupts both channels.
  const double yaw_rate =
      v_meas * std::tan(steer_meas) / ackermann_.wheelbase;

  OdometryDelta odom;
  odom.delta = integrate_twist(Pose2{}, Twist2{v_meas, 0.0, yaw_rate}, dt);
  odom.v = v_meas;
  odom.dt = dt;
  return odom;
}

}  // namespace srl
