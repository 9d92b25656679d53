#include "vehicle/vehicle_sim.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/angles.hpp"
#include "vehicle/sensors.hpp"

namespace srl {
namespace {

VehicleParams nominal() {
  VehicleParams p;
  p.mu = 0.76;
  return p;
}

void run(VehicleSim& sim, const DriveCommand& cmd, double seconds,
         double dt = 0.0025) {
  const int steps = static_cast<int>(seconds / dt);
  for (int i = 0; i < steps; ++i) sim.step(cmd, dt);
}

TEST(VehicleSim, AcceleratesToTargetOnGrip) {
  VehicleSim sim{nominal()};
  run(sim, DriveCommand{3.0, 0.0}, 3.0);
  EXPECT_NEAR(sim.state().v, 3.0, 0.15);
  EXPECT_NEAR(sim.state().wheel_speed, 3.0, 0.05);
  EXPECT_LT(std::abs(sim.state().slip), 0.2);
  EXPECT_GT(sim.state().pose.x, 5.0);
  EXPECT_NEAR(sim.state().pose.y, 0.0, 1e-6);
}

TEST(VehicleSim, LowGripCausesLaunchSlip) {
  VehicleParams slippery = nominal();
  slippery.mu = 0.3;  // mu*g = 2.9 < motor_accel
  VehicleSim gripy{nominal()};
  VehicleSim slidey{slippery};
  double max_slip_grip = 0.0;
  double max_slip_slide = 0.0;
  for (int i = 0; i < 800; ++i) {
    gripy.step(DriveCommand{6.0, 0.0}, 0.0025);
    slidey.step(DriveCommand{6.0, 0.0}, 0.0025);
    max_slip_grip = std::max(max_slip_grip, gripy.state().slip);
    max_slip_slide = std::max(max_slip_slide, slidey.state().slip);
  }
  EXPECT_GT(max_slip_slide, 2.0 * max_slip_grip);
}

TEST(VehicleSim, UndersteerCapsCurvature) {
  VehicleSim sim{nominal()};
  run(sim, DriveCommand{6.0, 0.0}, 3.0);  // get up to speed
  const double v = sim.state().v;
  sim.step(DriveCommand{6.0, 0.4}, 0.5);  // full steering at speed
  run(sim, DriveCommand{6.0, 0.4}, 0.5);
  const double kappa_eff = sim.state().yaw_rate / std::max(sim.state().v, 0.1);
  const double kappa_max = nominal().mu * nominal().gravity /
                           (sim.state().v * sim.state().v);
  EXPECT_LE(std::abs(kappa_eff), kappa_max * 1.05);
  const double kappa_cmd =
      std::tan(0.4) / nominal().ackermann.wheelbase;
  EXPECT_LT(std::abs(kappa_eff), kappa_cmd);
  (void)v;
}

TEST(VehicleSim, LowSpeedSteeringIsKinematic) {
  VehicleSim sim{nominal()};
  run(sim, DriveCommand{1.0, 0.2}, 4.0);
  const double expected_kappa =
      std::tan(sim.state().steer) / nominal().ackermann.wheelbase;
  EXPECT_NEAR(sim.state().yaw_rate, sim.state().v * expected_kappa, 0.02);
  EXPECT_NEAR(std::abs(sim.state().vy), 0.0, 0.02);
}

TEST(VehicleSim, SlideBuildsWhenOverdriven) {
  VehicleParams slippery = nominal();
  slippery.mu = 0.4;
  VehicleSim sim{slippery};
  run(sim, DriveCommand{5.0, 0.0}, 3.0);
  // Demand far beyond grip at speed: slide velocity must build up,
  // opposing the (left) turn.
  run(sim, DriveCommand{5.0, 0.35}, 1.0);
  EXPECT_LT(sim.state().vy, -0.05);
}

TEST(VehicleSim, SlideRelaxesAfterCorner) {
  VehicleParams slippery = nominal();
  slippery.mu = 0.4;
  VehicleSim sim{slippery};
  run(sim, DriveCommand{5.0, 0.0}, 3.0);
  run(sim, DriveCommand{5.0, 0.35}, 1.0);
  const double sliding = std::abs(sim.state().vy);
  run(sim, DriveCommand{5.0, 0.0}, 1.5);
  EXPECT_LT(std::abs(sim.state().vy), 0.2 * sliding + 0.01);
}

TEST(VehicleSim, SteeringSlewLimited) {
  VehicleSim sim{nominal()};
  sim.step(DriveCommand{0.0, 0.4}, 0.01);
  EXPECT_NEAR(sim.state().steer, nominal().steer_rate * 0.01, 1e-9);
}

TEST(VehicleSim, BrakingRespectsMotorSlew) {
  VehicleSim sim{nominal()};
  run(sim, DriveCommand{5.0, 0.0}, 3.0);
  const double w0 = sim.state().wheel_speed;
  sim.step(DriveCommand{0.0, 0.0}, 0.1);
  EXPECT_NEAR(sim.state().wheel_speed, w0 - nominal().motor_brake * 0.1,
              1e-6);
}

TEST(VehicleSim, ResetClearsState) {
  VehicleSim sim{nominal()};
  run(sim, DriveCommand{4.0, 0.1}, 2.0);
  sim.reset(Pose2{1.0, 2.0, 0.5});
  EXPECT_DOUBLE_EQ(sim.state().v, 0.0);
  EXPECT_DOUBLE_EQ(sim.state().pose.x, 1.0);
  EXPECT_DOUBLE_EQ(sim.state().steer, 0.0);
}

TEST(WheelOdometry, IntegratesWheelSpeedNotBodySpeed) {
  WheelOdometryNoise no_noise;
  no_noise.speed_noise = 0.0;
  no_noise.steer_noise = 0.0;
  const WheelOdometrySensor sensor{AckermannParams{}, no_noise};
  VehicleState state;
  state.v = 3.0;
  state.wheel_speed = 3.6;  // 20% slip
  state.steer = 0.0;
  Rng rng{1};
  const OdometryDelta d = sensor.measure(state, 0.1, rng);
  EXPECT_NEAR(d.delta.x, 0.36, 1e-9);  // wheel, not body, distance
  EXPECT_NEAR(d.v, 3.6, 1e-9);
  EXPECT_DOUBLE_EQ(d.dt, 0.1);
}

TEST(WheelOdometry, YawFromSteeringGeometry) {
  WheelOdometryNoise no_noise;
  no_noise.speed_noise = 0.0;
  no_noise.steer_noise = 0.0;
  const AckermannParams ack;
  const WheelOdometrySensor sensor{ack, no_noise};
  VehicleState state;
  state.v = 2.0;
  state.wheel_speed = 2.0;
  state.steer = 0.2;
  Rng rng{1};
  const OdometryDelta d = sensor.measure(state, 0.05, rng);
  const double expected_yaw_rate = 2.0 * std::tan(0.2) / ack.wheelbase;
  EXPECT_NEAR(d.delta.theta, expected_yaw_rate * 0.05, 1e-6);
}

TEST(WheelOdometry, MissesLateralSlide) {
  WheelOdometryNoise no_noise;
  no_noise.speed_noise = 0.0;
  no_noise.steer_noise = 0.0;
  const WheelOdometrySensor sensor{AckermannParams{}, no_noise};
  VehicleState state;
  state.v = 3.0;
  state.wheel_speed = 3.0;
  state.vy = -0.5;  // sliding sideways
  Rng rng{1};
  const OdometryDelta d = sensor.measure(state, 0.1, rng);
  EXPECT_NEAR(d.delta.y, 0.0, 1e-9);  // odometry is blind to the slide
}

}  // namespace
}  // namespace srl
