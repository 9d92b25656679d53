#include "core/synpf.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "common/angles.hpp"
#include "gridmap/track_generator.hpp"
#include "range/ray_marching.hpp"
#include "sensor/lidar_sim.hpp"

namespace srl {
namespace {

struct Fixture {
  Track track = TrackGenerator::oval(8.0, 2.5);
  std::shared_ptr<const OccupancyGrid> map =
      std::make_shared<const OccupancyGrid>(track.grid);
  LidarConfig lidar{};
  std::shared_ptr<const RangeMethod> truth =
      std::make_shared<RayMarching>(map, lidar.max_range);
  LidarSim sim{lidar, truth, LidarNoise{.sigma_range = 0.01,
                                        .dropout_prob = 0.0}};
  Rng rng{17};

  SynPf make(SynPfConfig cfg = {}) {
    cfg.filter.n_particles = 800;
    // CDDT builds fast; the LUT variant is covered separately.
    cfg.range = RangeMethodKind::kCddt;
    return SynPf{cfg, map, lidar};
  }

  Pose2 start() const {
    return Pose2{-4.0 + 0.0, -2.5, 0.0};  // on the bottom straight
  }
};

TEST(SynPf, StationaryUpdatesStayPut) {
  Fixture f;
  SynPf pf = f.make();
  const Pose2 truth = f.start();
  pf.initialize(truth);
  for (int i = 0; i < 5; ++i) {
    OdometryDelta odom;
    odom.dt = 0.025;
    pf.on_odometry(odom);
    pf.on_scan(f.sim.scan(truth, 0.025 * i, f.rng));
  }
  const Pose2 est = pf.pose();
  EXPECT_NEAR(est.x, truth.x, 0.15);
  EXPECT_NEAR(est.y, truth.y, 0.15);
  EXPECT_NEAR(angle_dist(est.theta, truth.theta), 0.0, 0.08);
}

TEST(SynPf, TracksDrivenSegment) {
  Fixture f;
  SynPf pf = f.make();
  Pose2 truth = f.start();
  pf.initialize(truth);
  const Twist2 twist{3.0, 0.0, 0.0};
  double t = 0.0;
  for (int step = 0; step < 80; ++step) {
    const double dt = 0.01;
    truth = integrate_twist(truth, twist, dt);
    t += dt;
    OdometryDelta odom;
    odom.delta = integrate_twist(Pose2{}, twist, dt);
    odom.v = twist.vx;
    odom.dt = dt;
    pf.on_odometry(odom);
    if (step % 3 == 2) {
      pf.on_scan(f.sim.scan(truth, twist, t, f.rng));
    }
  }
  const Pose2 est = pf.pose();
  EXPECT_NEAR(est.x, truth.x, 0.25);
  EXPECT_NEAR(est.y, truth.y, 0.2);
}

TEST(SynPf, SurvivesCorruptedOdometry) {
  // Over-reporting odometry (wheel slip) must not break the filter.
  Fixture f;
  SynPf pf = f.make();
  Pose2 truth = f.start();
  pf.initialize(truth);
  const Twist2 twist{3.0, 0.0, 0.0};
  double t = 0.0;
  for (int step = 0; step < 80; ++step) {
    const double dt = 0.01;
    truth = integrate_twist(truth, twist, dt);
    t += dt;
    OdometryDelta odom;
    // 25% longitudinal over-report.
    odom.delta = integrate_twist(Pose2{}, Twist2{3.75, 0.0, 0.0}, dt);
    odom.v = 3.75;
    odom.dt = dt;
    pf.on_odometry(odom);
    if (step % 3 == 2) pf.on_scan(f.sim.scan(truth, twist, t, f.rng));
  }
  const Pose2 est = pf.pose();
  EXPECT_NEAR(est.x, truth.x, 0.35);
  EXPECT_NEAR(est.y, truth.y, 0.25);
}

TEST(SynPf, PoseDeadReckonsBetweenScans) {
  Fixture f;
  SynPf pf = f.make();
  pf.initialize(f.start());
  OdometryDelta odom;
  odom.delta = Pose2{0.3, 0.0, 0.0};
  odom.v = 3.0;
  odom.dt = 0.1;
  const Pose2 before = pf.pose();
  pf.on_odometry(odom);
  const Pose2 after = pf.pose();
  EXPECT_NEAR(after.x - before.x, 0.3, 1e-9);
}

TEST(SynPf, LatencyAccounting) {
  Fixture f;
  SynPf pf = f.make();
  const Pose2 truth = f.start();
  pf.initialize(truth);
  EXPECT_DOUBLE_EQ(pf.mean_scan_update_ms(), 0.0);
  pf.on_scan(f.sim.scan(truth, 0.0, f.rng));
  EXPECT_GT(pf.mean_scan_update_ms(), 0.0);
  EXPECT_GT(pf.total_busy_s(), 0.0);
  EXPECT_EQ(pf.name(), "SynPF");
}

TEST(SynPf, AblationConfigsConstructAndRun) {
  Fixture f;
  for (const PfMotionKind motion :
       {PfMotionKind::kTum, PfMotionKind::kDiffDrive}) {
    for (const PfLayoutKind layout :
         {PfLayoutKind::kBoxed, PfLayoutKind::kUniform}) {
      SynPfConfig cfg;
      cfg.motion = motion;
      cfg.layout = layout;
      SynPf pf = f.make(cfg);
      const Pose2 truth = f.start();
      pf.initialize(truth);
      pf.on_scan(f.sim.scan(truth, 0.0, f.rng));
      EXPECT_NEAR(pf.pose().x, truth.x, 0.3);
    }
  }
}

TEST(SynPf, LutBackendWorks) {
  Fixture f;
  SynPfConfig cfg;
  cfg.range = RangeMethodKind::kLut;
  cfg.range_options.lut_theta_bins = 90;
  cfg.filter.n_particles = 600;
  SynPf pf{cfg, f.map, f.lidar};
  const Pose2 truth = f.start();
  pf.initialize(truth);
  for (int i = 0; i < 4; ++i) {
    pf.on_scan(f.sim.scan(truth, 0.025 * i, f.rng));
  }
  EXPECT_NEAR(pf.pose().x, truth.x, 0.2);
  EXPECT_NEAR(pf.pose().y, truth.y, 0.2);
}

TEST(SynPf, ReinitializeResets) {
  Fixture f;
  SynPf pf = f.make();
  pf.initialize(f.start());
  pf.on_scan(f.sim.scan(f.start(), 0.0, f.rng));
  const Pose2 elsewhere{4.0, 2.5, kPi};
  pf.initialize(elsewhere);
  EXPECT_NEAR(pf.pose().x, elsewhere.x, 1e-9);
  EXPECT_NEAR(angle_dist(pf.pose().theta, elsewhere.theta), 0.0, 1e-9);
}

}  // namespace
}  // namespace srl
