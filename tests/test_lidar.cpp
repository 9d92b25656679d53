#include "sensor/lidar_sim.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "common/angles.hpp"
#include "common/stats.hpp"
#include "gridmap/distance_transform.hpp"
#include "range/bresenham.hpp"
#include "sensor/lidar.hpp"

namespace srl {
namespace {

std::shared_ptr<const OccupancyGrid> make_room() {
  auto grid = std::make_shared<OccupancyGrid>(200, 200, 0.05, Vec2{0.0, 0.0},
                                              OccupancyGrid::kFree);
  for (int i = 0; i < 200; ++i) {
    grid->at(i, 0) = OccupancyGrid::kOccupied;
    grid->at(i, 199) = OccupancyGrid::kOccupied;
    grid->at(0, i) = OccupancyGrid::kOccupied;
    grid->at(199, i) = OccupancyGrid::kOccupied;
  }
  return grid;
}

LidarSim make_sim(std::shared_ptr<const OccupancyGrid> room,
                  LidarNoise noise) {
  LidarConfig cfg;
  auto caster = std::make_shared<BresenhamCaster>(std::move(room),
                                                  cfg.max_range);
  return LidarSim{cfg, std::move(caster), noise};
}

TEST(LidarSim, NoiselessStaticMatchesCaster) {
  auto room = make_room();
  LidarNoise noise;
  noise.sigma_range = 0.0;
  noise.dropout_prob = 0.0;
  const LidarSim sim = make_sim(room, noise);
  const BresenhamCaster exact{room, sim.config().max_range};

  Rng rng{1};
  const Pose2 body{5.0, 5.0, 0.3};
  const LaserScan scan = sim.scan(body, 1.0, rng);
  ASSERT_EQ(static_cast<int>(scan.ranges.size()), sim.config().n_beams);
  EXPECT_DOUBLE_EQ(scan.t, 1.0);
  for (int i = 0; i < sim.config().n_beams; i += 53) {
    const double a = body.theta + sim.config().beam_angle(i);
    EXPECT_FLOAT_EQ(scan.ranges[static_cast<std::size_t>(i)],
                    exact.range({body.x, body.y, a}));
  }
}

TEST(LidarSim, NoiseStatistics) {
  auto room = make_room();
  LidarNoise noise;
  noise.sigma_range = 0.05;
  noise.dropout_prob = 0.0;
  const LidarSim sim = make_sim(room, noise);
  const BresenhamCaster exact{room, sim.config().max_range};
  Rng rng{5};
  const Pose2 body{5.0, 5.0, 0.0};
  RunningStats residuals;
  for (int rep = 0; rep < 20; ++rep) {
    const LaserScan scan = sim.scan(body, 0.0, rng);
    for (int i = 0; i < sim.config().n_beams; i += 7) {
      const double a = body.theta + sim.config().beam_angle(i);
      const float ref = exact.range({body.x, body.y, a});
      if (ref >= sim.config().max_range) continue;
      residuals.add(scan.ranges[static_cast<std::size_t>(i)] - ref);
    }
  }
  EXPECT_NEAR(residuals.mean(), 0.0, 0.005);
  EXPECT_NEAR(residuals.stddev(), 0.05, 0.01);
}

TEST(LidarSim, DropoutsReturnMaxRange) {
  auto room = make_room();
  LidarNoise noise;
  noise.sigma_range = 0.0;
  noise.dropout_prob = 0.5;
  const LidarSim sim = make_sim(room, noise);
  Rng rng{7};
  const LaserScan scan = sim.scan({5.0, 5.0, 0.0}, 0.0, rng);
  int dropouts = 0;
  for (float r : scan.ranges) {
    if (r >= static_cast<float>(sim.config().max_range)) ++dropouts;
  }
  const double frac =
      static_cast<double>(dropouts) / static_cast<double>(scan.ranges.size());
  EXPECT_NEAR(frac, 0.5, 0.05);
}

TEST(LidarSim, MotionDistortionWarpsScan) {
  auto room = make_room();
  LidarNoise noise;
  noise.sigma_range = 0.0;
  noise.dropout_prob = 0.0;
  const LidarSim sim = make_sim(room, noise);
  Rng rng{9};
  const Pose2 body{5.0, 5.0, 0.0};
  const LaserScan still = sim.scan(body, Twist2{}, 0.0, rng);
  const LaserScan moving = sim.scan(body, Twist2{7.0, 0.0, 0.0}, 0.0, rng);
  // Early beams were fired from ~17 cm behind: forward-looking early beams
  // must differ; the final beam (fired at scan end) matches.
  double max_diff = 0.0;
  for (std::size_t i = 0; i < still.ranges.size(); ++i) {
    max_diff = std::max(
        max_diff, std::abs(static_cast<double>(still.ranges[i]) -
                           moving.ranges[i]));
  }
  EXPECT_GT(max_diff, 0.08);
  EXPECT_NEAR(still.ranges.back(), moving.ranges.back(), 1e-4);
}

TEST(ScanToPoints, FiltersInvalidReturns) {
  LidarConfig cfg;
  cfg.n_beams = 5;
  cfg.fov = deg2rad(90.0);
  LaserScan scan;
  scan.ranges = {1.0F, 0.01F, static_cast<float>(cfg.max_range), 2.0F, 3.0F};
  const auto pts = scan_to_points(scan, cfg);
  EXPECT_EQ(pts.size(), 3U);  // beam 1 too close, beam 2 is max range
}

TEST(ScanToPoints, DropsNanReturns) {
  LidarConfig cfg;
  cfg.n_beams = 4;
  cfg.fov = deg2rad(90.0);
  LaserScan scan;
  scan.ranges = {1.0F, std::nanf(""), 2.0F, -std::nanf("")};
  EXPECT_EQ(scan_to_points(scan, cfg).size(), 2U);
  EXPECT_EQ(deskew_scan(scan, cfg, Twist2{1.0, 0.0, 0.5}).size(), 2U);
}

TEST(ScanToPoints, GeometryCorrect) {
  LidarConfig cfg;
  cfg.n_beams = 3;
  cfg.fov = kPi;  // beams at -90, 0, +90 degrees
  LaserScan scan;
  scan.ranges = {2.0F, 3.0F, 4.0F};
  const auto pts = scan_to_points(scan, cfg);
  ASSERT_EQ(pts.size(), 3U);
  EXPECT_NEAR(pts[0].x, 0.0, 1e-6);
  EXPECT_NEAR(pts[0].y, -2.0, 1e-6);
  EXPECT_NEAR(pts[1].x, 3.0, 1e-6);
  EXPECT_NEAR(pts[2].y, 4.0, 1e-6);
}

TEST(ScanToPoints, MountOffsetApplied) {
  LidarConfig cfg;
  cfg.n_beams = 1;
  cfg.fov = 0.0;
  cfg.mount = Pose2{0.2, 0.0, 0.0};
  LaserScan scan;
  scan.ranges = {1.0F};
  const auto pts = scan_to_points(scan, cfg);
  ASSERT_EQ(pts.size(), 1U);
  EXPECT_NEAR(pts[0].x, 1.2, 1e-6);
}

TEST(Deskew, ZeroTwistMatchesScanToPoints) {
  LidarConfig cfg;
  LaserScan scan;
  scan.ranges.assign(static_cast<std::size_t>(cfg.n_beams), 4.0F);
  const auto a = scan_to_points(scan, cfg, 5);
  const auto b = deskew_scan(scan, cfg, Twist2{}, 5);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(a[i].x, b[i].x, 1e-9);
    EXPECT_NEAR(a[i].y, b[i].y, 1e-9);
  }
}

TEST(Deskew, CorrectTwistRecoversStaticGeometry) {
  // Simulate a distorted scan while translating; deskewing with the true
  // twist must reproduce the static scan's point cloud.
  auto room = make_room();
  LidarNoise noise;
  noise.sigma_range = 0.0;
  noise.dropout_prob = 0.0;
  const LidarSim sim = make_sim(room, noise);
  Rng rng{3};
  const Pose2 body{5.0, 5.0, 0.2};
  const Twist2 twist{6.0, 0.0, 2.0};
  const LaserScan still = sim.scan(body, Twist2{}, 0.0, rng);
  const LaserScan moving = sim.scan(body, twist, 0.0, rng);

  // The decisive property: deskewing with the TRUE twist places every
  // point back on a wall (in the scan-end frame), while deskewing with a
  // wrong twist (here: negated) displaces points radially off the walls.
  // Per-beam comparison to the static scan would be misleading — a moving
  // sensor legitimately hits different wall points on the same surfaces.
  (void)still;
  const DistanceField walls = distance_to_occupied(*room);
  const auto wall_distances = [&](const Twist2& used_twist) {
    const auto cloud = deskew_scan(moving, sim.config(), used_twist, 9);
    std::vector<double> ds;
    ds.reserve(cloud.size());
    for (const Vec2& p : cloud) {
      ds.push_back(walls.interpolate(body.transform(p)));
    }
    return ds;
  };
  // Tail quantiles discriminate: a wrong twist pushes some points INTO the
  // walls (distance 0, flattering the median) and others far off them.
  const std::vector<double> good = wall_distances(twist);
  const std::vector<double> bad =
      wall_distances(Twist2{-twist.vx, -twist.vy, -twist.wz});
  const std::vector<double> none = wall_distances(Twist2{});
  ASSERT_GT(good.size(), 50U);
  EXPECT_LT(percentile(good, 95.0), 0.04);  // on-wall up to quantization
  EXPECT_GT(percentile(bad, 95.0), 3.0 * percentile(good, 95.0));
  EXPECT_GT(percentile(none, 95.0), 2.0 * percentile(good, 95.0));
}

}  // namespace
}  // namespace srl
