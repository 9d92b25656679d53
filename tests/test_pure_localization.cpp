#include "slam/pure_localization.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <memory>
#include <vector>

#include "common/angles.hpp"
#include "common/timer.hpp"
#include "gridmap/track_generator.hpp"
#include "range/bresenham.hpp"
#include "sensor/lidar_sim.hpp"
#include "track/raceline.hpp"

namespace srl {
namespace {

struct LocRun {
  Track track = TrackGenerator::oval(6.0, 2.0);
  LidarConfig lidar{};
  std::shared_ptr<const OccupancyGrid> map =
      std::make_shared<const OccupancyGrid>(track.grid);
  LidarSim sim{lidar,
               std::make_shared<BresenhamCaster>(map, lidar.max_range),
               LidarNoise{.sigma_range = 0.01, .dropout_prob = 0.0}};
  Raceline line{track.centerline};
  Rng rng{23};
  Pose2 truth{};

  Pose2 start() {
    const Vec2 p = line.position(1.0);
    return Pose2{p.x, p.y, line.heading(1.0)};
  }

  /// Drive along the centerline, feeding 100 Hz odometry and 40 Hz scans.
  void drive(CartoLocalizer& loc, double distance, double v,
             double odom_speed_bias = 0.0) {
    double s = line.project({truth.x, truth.y}).s;
    double t = 0.0;
    double next_scan = 0.0;
    const double dt = 0.01;
    double traveled = 0.0;
    while (traveled < distance) {
      const double kappa = line.curvature(s);
      const Twist2 twist{v, 0.0, v * kappa};
      truth = integrate_twist(truth, twist, dt).normalized();
      s = line.wrap(s + v * dt);
      traveled += v * dt;
      t += dt;
      OdometryDelta odom;
      const double v_odom = v * (1.0 + odom_speed_bias);
      odom.delta =
          integrate_twist(Pose2{}, Twist2{v_odom, 0.0, v * kappa}, dt);
      odom.v = v_odom;
      odom.dt = dt;
      loc.on_odometry(odom);
      if (t >= next_scan) {
        next_scan += 0.025;
        loc.on_scan(sim.scan(truth, twist, t, rng));
      }
    }
  }
};

TEST(PureLocalization, StationaryHoldsPose) {
  LocRun run;
  PureLocalizationOptions opt;
  CartoLocalizer loc{opt, run.map, run.lidar};
  run.truth = run.start();
  loc.initialize(run.truth);
  for (int i = 0; i < 40; ++i) {
    OdometryDelta odom;
    odom.dt = 0.01;
    loc.on_odometry(odom);
    if (i % 3 == 0) {
      loc.on_scan(run.sim.scan(run.truth, 0.01 * i, run.rng));
    }
  }
  const Pose2 est = loc.pose();
  EXPECT_NEAR(est.x, run.truth.x, 0.1);
  EXPECT_NEAR(est.y, run.truth.y, 0.1);
  EXPECT_NEAR(angle_dist(est.theta, run.truth.theta), 0.0, 0.05);
}

TEST(PureLocalization, TracksDrivenLap) {
  LocRun run;
  PureLocalizationOptions opt;
  CartoLocalizer loc{opt, run.map, run.lidar};
  run.truth = run.start();
  loc.initialize(run.truth);
  run.drive(loc, run.line.length(), 3.0);
  const Pose2 est = loc.pose();
  EXPECT_NEAR(est.x, run.truth.x, 0.4);
  EXPECT_NEAR(est.y, run.truth.y, 0.4);
  EXPECT_GT(loc.global_fixes(), 5L);
}

TEST(PureLocalization, BiasedOdometryDegradesButSurvives) {
  LocRun run;
  PureLocalizationOptions opt;
  CartoLocalizer loc{opt, run.map, run.lidar};
  run.truth = run.start();
  loc.initialize(run.truth);
  run.drive(loc, run.line.length(), 3.0, 0.15);  // 15% over-reporting odom
  const Pose2 est = loc.pose();
  const double err = std::hypot(est.x - run.truth.x, est.y - run.truth.y);
  EXPECT_LT(err, 0.8);  // degraded, but the global fixes keep it on track
}

TEST(PureLocalization, OutputLatencyDelaysCorrections) {
  LocRun run;
  PureLocalizationOptions opt;
  opt.output_latency = 10.0;  // longer than the test: never published
  CartoLocalizer loc{opt, run.map, run.lidar};
  run.truth = run.start();
  loc.initialize(run.truth);
  // Odometry claims motion that did not happen; scans contradict it. With
  // infinite latency the published pose must follow raw odometry only.
  for (int i = 0; i < 12; ++i) {
    OdometryDelta odom;
    odom.delta = Pose2{0.05, 0.0, 0.0};
    odom.v = 5.0;
    odom.dt = 0.01;
    loc.on_odometry(odom);
    if (i % 3 == 0) loc.on_scan(run.sim.scan(run.truth, 0.01 * i, run.rng));
  }
  EXPECT_NEAR(loc.pose().x, run.truth.x + 12 * 0.05 * std::cos(run.truth.theta),
              0.1);
}

TEST(PureLocalization, RelocalizesAfterKidnap) {
  LocRun run;
  PureLocalizationOptions opt;
  opt.global_period = 8;
  CartoLocalizer loc{opt, run.map, run.lidar};
  run.truth = run.start();
  loc.initialize(run.truth);
  run.drive(loc, 4.0, 2.0);
  // Kidnap: restart the filter 0.8 m off the truth (inside the reloc
  // window) and keep driving; the wide search must re-acquire.
  loc.initialize((run.truth * Pose2{0.0, 0.6, 0.1}).normalized());
  run.drive(loc, 8.0, 2.0);
  const Pose2 est = loc.pose();
  const double err = std::hypot(est.x - run.truth.x, est.y - run.truth.y);
  EXPECT_LT(err, 0.35);
}

TEST(PureLocalization, ReportsTiming) {
  LocRun run;
  CartoLocalizer loc{PureLocalizationOptions{}, run.map, run.lidar};
  run.truth = run.start();
  loc.initialize(run.truth);
  loc.on_scan(run.sim.scan(run.truth, 0.0, run.rng));
  EXPECT_GT(loc.mean_scan_update_ms(), 0.0);
  EXPECT_EQ(loc.name(), "Cartographer");
}


TEST(PureLocalization, NanBeamsActLikeMaxRangeBeams) {
  // A NaN range used to pass the beam filter, reach the submap's line walk
  // as a cell index from an undefined cast, and stall one update for
  // seconds. Dropped like a no-return beam, it must leave the same bits.
  LocRun run;
  const PureLocalizationOptions opt;
  CartoLocalizer with_nan{opt, run.map, run.lidar};
  CartoLocalizer with_max{opt, run.map, run.lidar};
  run.truth = run.start();
  with_nan.initialize(run.truth);
  with_max.initialize(run.truth);
  const auto max_range = static_cast<float>(run.lidar.max_range);
  double slowest_s = 0.0;
  // 30 scans: local matches, submap inserts and one global correction.
  for (int k = 0; k < 30; ++k) {
    OdometryDelta odom;
    odom.dt = 0.025;
    with_nan.on_odometry(odom);
    with_max.on_odometry(odom);
    LaserScan nan_scan = run.sim.scan(run.truth, 0.025 * k, run.rng);
    LaserScan max_scan = nan_scan;
    // Every 7th beam is one the matcher's subsampled cloud keeps.
    for (std::size_t i = static_cast<std::size_t>(k % 5);
         i < nan_scan.ranges.size(); i += 35) {
      nan_scan.ranges[i] = std::numeric_limits<float>::quiet_NaN();
      max_scan.ranges[i] = max_range;
    }
    const Stopwatch watch;
    const Pose2 a = with_nan.on_scan(nan_scan);
    slowest_s = std::max(slowest_s, watch.elapsed_s());
    const Pose2 b = with_max.on_scan(max_scan);
    ASSERT_EQ(std::memcmp(&a, &b, sizeof(Pose2)), 0) << "scan " << k;
  }
  EXPECT_GT(with_nan.global_fixes(), 0L);
  // An update takes milliseconds; the stall took seconds.
  EXPECT_LT(slowest_s, 1.0);
}

}  // namespace
}  // namespace srl
