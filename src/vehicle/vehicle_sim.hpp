#pragma once

/// \file vehicle_sim.hpp
/// \brief Single-track (bicycle) vehicle dynamics with a friction-circle
/// tire model and explicit longitudinal wheel slip.
///
/// This is the testbed substitution for the physical F1TENTH car (see
/// DESIGN.md). The essential fidelity requirement is the *causal chain of
/// the paper's experiment*: grip level -> wheel slip -> wheel-odometry
/// error. To that end the simulator integrates the wheel speed separately
/// from the body speed:
///
///  - the motor slews the wheel speed toward the commanded speed (a strong
///    motor spins the wheel regardless of grip, like the real VESC);
///  - the tire transmits longitudinal force proportional to slip
///    (wheel speed - body speed), saturated by the friction circle
///    mu * g * sqrt(1 - (a_lat / (mu g))^2);
///  - lateral acceleration demand beyond the circle causes understeer
///    (the achieved curvature is capped at mu*g / v^2).
///
/// Wheel odometry reads the *wheel* speed (vehicle/sensors.hpp), so taping
/// the tires (lowering mu) degrades odometry exactly as in the paper while
/// the car still completes laps at nearly the same pace.

#include "common/types.hpp"
#include "motion/ackermann.hpp"

namespace srl {

struct VehicleParams {
  AckermannParams ackermann{};
  double mass = 3.5;          ///< kg (F1TENTH-class car)
  double gravity = 9.81;      ///< m/s^2
  /// Tire-ground friction coefficient. The paper's pull test: 26 N nominal
  /// vs 19 N taped on a ~3.5 kg car -> mu 0.76 (HQ) vs 0.55 (LQ).
  double mu = 0.76;
  /// Longitudinal tire stiffness: accel transmitted per m/s of slip (1/s).
  double slip_stiffness = 18.0;
  double drag = 0.06;         ///< 1/s, speed-proportional resistive decel
  /// Motor/brake wheel-speed slew limits. Chosen between the two grip
  /// levels of the experiment (mu*g = 7.45 nominal vs 5.4 taped): nominal
  /// tires transmit full torque with little slip, taped tires spin up /
  /// lock under the same commands — the paper's odometry contrast.
  double motor_accel = 6.5;   ///< m/s^2, wheel-speed slew when accelerating
  double motor_brake = 7.5;   ///< m/s^2, wheel-speed slew when braking
  double steer_rate = 8.0;    ///< rad/s, steering servo slew
  /// Lateral slide: excess lateral demand beyond the friction circle feeds
  /// the slide velocity, which relaxes with this rate once grip returns.
  /// Steady slide = gain * excess / relax: over-driving taped tires by
  /// ~1.6 m/s^2 yields a visible ~0.5 m/s drift, as on a real 1:10 car.
  double slide_relax = 3.0;   ///< 1/s
  double slide_gain = 1.6;    ///< fraction of excess a_lat turned into slide
};

struct VehicleState {
  Pose2 pose{};            ///< body pose, world frame (ground truth)
  double v{0.0};           ///< body longitudinal speed, m/s
  double vy{0.0};          ///< body lateral (slide) velocity, m/s
  double wheel_speed{0.0}; ///< driven-wheel equivalent linear speed, m/s
  double steer{0.0};       ///< current steering angle, rad
  double yaw_rate{0.0};    ///< achieved yaw rate, rad/s
  double slip{0.0};        ///< wheel_speed - v (diagnostic)

  /// True body twist — what the LiDAR experiences during a revolution.
  Twist2 twist() const { return {v, vy, yaw_rate}; }
};

struct DriveCommand {
  double target_speed{0.0};  ///< m/s, wheel-speed setpoint
  double steer{0.0};         ///< rad, steering setpoint
};

class VehicleSim {
 public:
  explicit VehicleSim(VehicleParams params = {}, Pose2 start = {});

  /// Advance the dynamics by `dt` seconds under `cmd`. Stable for the
  /// sub-10 ms steps the experiment harness uses.
  void step(const DriveCommand& cmd, double dt);

  const VehicleState& state() const { return state_; }
  const VehicleParams& params() const { return params_; }

  /// Reset to a pose at rest.
  void reset(const Pose2& pose);

 private:
  VehicleParams params_;
  VehicleState state_;
};

}  // namespace srl
