#include "vehicle/vehicle_sim.hpp"

#include <algorithm>
#include <cmath>

#include "common/angles.hpp"
#include "common/contracts.hpp"

namespace srl {

VehicleSim::VehicleSim(VehicleParams params, Pose2 start) : params_{params} {
  reset(start);
}

void VehicleSim::reset(const Pose2& pose) {
  state_ = VehicleState{};
  state_.pose = pose;
}

void VehicleSim::step(const DriveCommand& cmd, double dt) {
  SYNPF_EXPECTS_MSG(std::isfinite(dt) && dt > 0.0,
                    "simulation step needs a positive finite dt");
  SYNPF_EXPECTS_MSG(std::isfinite(cmd.target_speed) && std::isfinite(cmd.steer),
                    "drive command must be finite");
  const VehicleParams& p = params_;
  VehicleState& s = state_;

  // Steering servo: slew-limited tracking of the commanded angle.
  const double steer_cmd =
      std::clamp(cmd.steer, -p.ackermann.max_steer, p.ackermann.max_steer);
  const double max_dsteer = p.steer_rate * dt;
  s.steer += std::clamp(steer_cmd - s.steer, -max_dsteer, max_dsteer);

  // Motor: slews the wheel speed toward the setpoint. The motor is strong
  // enough to spin/brake the wheel regardless of available grip.
  const double target =
      std::clamp(cmd.target_speed, 0.0, p.ackermann.max_speed);
  const double dv_wheel = target - s.wheel_speed;
  const double wheel_slew = dv_wheel >= 0.0 ? p.motor_accel : p.motor_brake;
  s.wheel_speed += std::clamp(dv_wheel, -wheel_slew * dt, wheel_slew * dt);

  // Lateral: the kinematic bicycle demands a_lat = v^2 * kappa; the tires
  // deliver at most mu * g. Excess demand is shed as understeer (achieved
  // curvature capped) plus a lateral slide: the car pushes wide, building a
  // body-frame lateral velocity that wheel odometry cannot see — a primary
  // odometry-degradation channel of slippery racing.
  const double kappa_cmd = std::tan(s.steer) / p.ackermann.wheelbase;
  const double mu_g = p.mu * p.gravity;
  double kappa = kappa_cmd;
  double lat_usage = 0.0;
  double slide_accel = 0.0;
  if (std::abs(s.v) > 0.2) {
    const double kappa_max = mu_g / (s.v * s.v);
    kappa = std::clamp(kappa_cmd, -kappa_max, kappa_max);
    lat_usage = std::min(1.0, std::abs(kappa) * s.v * s.v / mu_g);
    const double excess = (std::abs(kappa_cmd) - kappa_max) * s.v * s.v;
    if (excess > 0.0) {
      // Pushing wide: slide opposes the turn direction (negative vy in a
      // left turn).
      slide_accel = -p.slide_gain * excess *
                    (kappa_cmd >= 0.0 ? 1.0 : -1.0);
    }
  }
  s.yaw_rate = s.v * kappa;
  s.vy += (slide_accel - p.slide_relax * s.vy) * dt;

  // Longitudinal: tire force ~ slip, saturated by what the friction circle
  // leaves over after the lateral demand.
  s.slip = s.wheel_speed - s.v;
  const double long_budget =
      mu_g * std::sqrt(std::max(0.0, 1.0 - lat_usage * lat_usage));
  const double a_tire =
      std::clamp(p.slip_stiffness * s.slip, -long_budget, long_budget);
  const double a_body = a_tire - p.drag * s.v;
  s.v = std::max(0.0, s.v + a_body * dt);

  // Pose integration on the achieved (grip-limited) arc, including slide.
  s.pose = integrate_twist(s.pose, Twist2{s.v, s.vy, s.yaw_rate}, dt)
               .normalized();

  SYNPF_ENSURES_MSG(finite(s.pose) && std::isfinite(s.v) &&
                        std::isfinite(s.vy) && std::isfinite(s.wheel_speed) &&
                        std::isfinite(s.yaw_rate),
                    "vehicle state went non-finite during step");
}

}  // namespace srl
