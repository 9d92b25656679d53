#include "sensor/lidar_sim.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "common/angles.hpp"
#include "common/stats.hpp"
#include "gridmap/distance_transform.hpp"
#include "range/bresenham.hpp"
#include "reference_math.hpp"
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

/// The strided cloud of the one-pass deskew.
std::vector<Vec2> deskewed(const LaserScan& scan, const LidarConfig& cfg,
                           const Twist2& twist, int stride) {
  std::vector<Vec2> dense;
  std::vector<Vec2> strided;
  deskew_scan(scan, cfg, beam_directions(cfg), twist, stride, dense, strided);
  return strided;
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
  EXPECT_EQ(deskewed(scan, cfg, Twist2{1.0, 0.0, 0.5}, 1).size(), 2U);
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
  const auto b = deskewed(scan, cfg, Twist2{}, 5);
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
    const auto cloud = deskewed(moving, sim.config(), used_twist, 9);
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


// ---------------------------------------------------------------------------
// Differential tests: the truth scan, the one-pass deskew and the mount
// helper against the per-beam loops they replace, bit for bit.
// ---------------------------------------------------------------------------

/// Exact caster that records the rays of every batch it is asked for.
class RecordingCaster final : public RangeMethod {
 public:
  RecordingCaster(std::shared_ptr<const OccupancyGrid> map, double max_range)
      : RangeMethod{map, max_range}, exact_{std::move(map), max_range} {}
  float range(const Pose2& ray) const override { return exact_.range(ray); }
  std::string name() const override { return "recording"; }
  void ranges(std::span<const Pose2> rays,
              std::span<float> out) const override {
    seen_.assign(rays.begin(), rays.end());
    RangeMethod::ranges(rays, out);
  }
  const std::vector<Pose2>& seen() const { return seen_; }

 private:
  BresenhamCaster exact_;
  mutable std::vector<Pose2> seen_;
};

/// LidarSim::scan as a per-beam loop: each beam integrates the twist and
/// composes the mount with its own trig.
LaserScan reference_scan(const LidarConfig& cfg, const RangeMethod& caster,
                         const LidarNoise& noise, const Pose2& body,
                         const Twist2& twist, double t, Rng& rng,
                         std::vector<Pose2>& rays) {
  LaserScan out;
  out.t = t;
  out.ranges.resize(static_cast<std::size_t>(cfg.n_beams));
  const auto max_r = static_cast<float>(cfg.max_range);
  const double period = cfg.rate_hz > 0.0 ? 1.0 / cfg.rate_hz : 0.0;
  const bool moving =
      period > 0.0 && (std::abs(twist.vx) > 1e-6 ||
                       std::abs(twist.vy) > 1e-6 || std::abs(twist.wz) > 1e-6);
  const int n = cfg.n_beams;
  rays.assign(out.ranges.size(), Pose2{});
  for (int i = 0; i < n; ++i) {
    Pose2 body_i = body;
    if (moving) {
      const double tau =
          period * (static_cast<double>(i) / std::max(n - 1, 1) - 1.0);
      body_i = reference::integrate_twist(body, twist, tau);
    }
    const Pose2 sensor = reference::compose(body_i, cfg.mount);
    rays[static_cast<std::size_t>(i)] = {sensor.x, sensor.y,
                                         sensor.theta + cfg.beam_angle(i)};
  }
  for (std::size_t i = 0; i < rays.size(); ++i) {
    out.ranges[i] = caster.range(rays[i]);
  }
  for (float& r : out.ranges) {
    if (rng.chance(noise.dropout_prob)) {
      r = max_r;
    } else if (r < max_r) {
      r += static_cast<float>(rng.gaussian(noise.sigma_range));
    }
    r = std::clamp(r, 0.0F, max_r);
  }
  return out;
}

std::string rng_text(const Rng& rng) {
  std::ostringstream os;
  os << rng;
  return os.str();
}

TEST(LidarSimReference, ScanMatchesPerBeamLoop) {
  auto room = make_room();
  struct Case {
    Pose2 body;
    Twist2 twist;
    Pose2 mount;
  };
  const std::vector<Case> cases = {
      {{5.0, 5.0, 0.3}, {7.0, 0.1, 0.4}, {}},        // moving
      {{5.0, 5.0, 0.3}, {}, {}},                     // static
      {{4.0, 6.0, -2.9}, {6.0, 0.2, 5e-10}, {}},     // wz below 1e-9
      {{4.0, 6.0, 3.1}, {-3.0, 0.5, -2.5}, {}},      // heading near pi
      {{5.0, 5.0, 0.3}, {7.0, 0.1, 0.4}, {0.12, -0.03, 0.05}},  // mount
      {{5.0, 5.0, 0.3}, {}, {0.12, -0.03, 0.05}},
      {{0.0, 5.0, 0.0}, {}, {}},                     // x exactly 0
      {{5.0, -0.0, -0.0}, {}, {}},                   // y -0, heading -0
      {{0.0, 0.0, -0.0}, {7.0, 0.0, 0.0}, {}},
      {{5.0, 5.0, -0.0}, {7.0, 0.0, 0.0}, {-0.0, 0.0, -0.0}},
  };
  LidarNoise noise;
  noise.dropout_prob = 0.05;
  for (std::size_t c = 0; c < cases.size(); ++c) {
    SCOPED_TRACE(c);
    LidarConfig cfg;
    cfg.mount = cases[c].mount;
    auto caster = std::make_shared<RecordingCaster>(room, cfg.max_range);
    const LidarSim sim{cfg, caster, noise};
    Rng rng{100 + c};
    Rng ref_rng{100 + c};
    std::vector<Pose2> ref_rays;
    const LaserScan got =
        sim.scan(cases[c].body, cases[c].twist, 2.0, rng);
    const LaserScan want = reference_scan(cfg, *caster, noise, cases[c].body,
                                          cases[c].twist, 2.0, ref_rng,
                                          ref_rays);
    ASSERT_EQ(caster->seen().size(), ref_rays.size());
    for (std::size_t i = 0; i < ref_rays.size(); ++i) {
      ASSERT_TRUE(reference::same_bits(caster->seen()[i], ref_rays[i]))
          << "beam " << i;
    }
    ASSERT_EQ(got.ranges.size(), want.ranges.size());
    for (std::size_t i = 0; i < want.ranges.size(); ++i) {
      ASSERT_EQ(std::bit_cast<std::uint32_t>(got.ranges[i]),
                std::bit_cast<std::uint32_t>(want.ranges[i]))
          << "beam " << i;
    }
    EXPECT_EQ(rng_text(rng), rng_text(ref_rng));
  }
}

/// deskew_scan as it was: one call per cloud, every beam's direction, mount
/// rotation and scan-end composition taken with its own trig.
std::vector<Vec2> reference_deskew(const LaserScan& scan,
                                   const LidarConfig& cfg,
                                   const Twist2& twist, int stride) {
  std::vector<Vec2> pts;
  const int step = std::max(stride, 1);
  const int n = static_cast<int>(scan.ranges.size());
  const double period = cfg.rate_hz > 0.0 ? 1.0 / cfg.rate_hz : 0.0;
  for (int i = 0; i < n; i += step) {
    const float r = scan.ranges[static_cast<std::size_t>(i)];
    if (!(r >= cfg.min_range && r < cfg.max_range)) continue;
    const double a = cfg.beam_angle(i);
    const Vec2 in_sensor{r * std::cos(a), r * std::sin(a)};
    const Vec2 in_body = reference::transform(cfg.mount, in_sensor);
    const double tau =
        period * (static_cast<double>(i) / std::max(n - 1, 1) - 1.0);
    const Pose2 rel = reference::integrate_twist(Pose2{}, twist, tau);
    pts.push_back(reference::transform(rel, in_body));
  }
  return pts;
}

void expect_same_cloud(const std::vector<Vec2>& got,
                       const std::vector<Vec2>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_TRUE(reference::same_bits(got[i], want[i])) << "point " << i;
  }
}

TEST(DeskewReference, OnePassMatchesTwoPerBeamPasses) {
  auto room = make_room();
  LidarNoise noise;
  noise.dropout_prob = 0.05;
  const LidarSim sim = make_sim(room, noise);
  Rng rng{17};
  LaserScan scan = sim.scan({5.0, 5.0, 0.4}, Twist2{6.0, 0.2, 1.5}, 0.0, rng);
  // Invalid returns: NaN, too close, max range.
  scan.ranges[3] = std::numeric_limits<float>::quiet_NaN();
  scan.ranges[14] = 0.01F;
  scan.ranges[21] = static_cast<float>(sim.config().max_range);

  const std::vector<Twist2> twists = {
      {6.0, 0.2, 1.5}, {}, {6.0, 0.2, 5e-10}, {-4.0, 0.3, -2.0}};
  const std::vector<Pose2> mounts = {{}, {0.12, -0.03, 0.05}, {-0.0, 0.0, -0.0}};
  for (const Pose2& mount : mounts) {
    LidarConfig cfg = sim.config();
    cfg.mount = mount;
    const std::vector<Vec2> dirs = beam_directions(cfg);
    for (const Twist2& twist : twists) {
      for (const int stride : {1, 7}) {
        SCOPED_TRACE(::testing::Message()
                     << "mount.x " << mount.x << " wz " << twist.wz
                     << " stride " << stride);
        std::vector<Vec2> dense;
        std::vector<Vec2> strided;
        deskew_scan(scan, cfg, dirs, twist, stride, dense, strided);
        expect_same_cloud(dense, reference_deskew(scan, cfg, twist, 1));
        expect_same_cloud(strided, reference_deskew(scan, cfg, twist, stride));
      }
    }
  }
}

TEST(DeskewReference, BeamsPastTheDirectionTableUseLibm) {
  LidarConfig cfg;
  cfg.n_beams = 5;
  cfg.fov = deg2rad(90.0);
  LaserScan scan;
  scan.ranges = {1.0F, 2.0F, 3.0F, 4.0F, 5.0F, 6.0F, 7.0F, 8.0F};
  const Twist2 twist{2.0, 0.1, 0.7};
  std::vector<Vec2> dense;
  std::vector<Vec2> strided;
  deskew_scan(scan, cfg, beam_directions(cfg), twist, 3, dense, strided);
  expect_same_cloud(dense, reference_deskew(scan, cfg, twist, 1));
  expect_same_cloud(strided, reference_deskew(scan, cfg, twist, 3));
}

TEST(SensorPoseReference, MatchesComposition) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<double> coords = {3.5,  -2.25, 0.0,  -0.0, 1e-300,
                                      -7e5, inf,   -inf, nan};
  const std::vector<double> headings = {0.0,  -0.0, 0.3,   -kPi, kPi,
                                        kTwoPi, 7.5, -40.0, inf,  nan};
  const std::vector<Pose2> mounts = {
      {}, {-0.0, 0.0, -0.0}, {0.0, -0.0, 0.0}, {0.2, 0.0, 0.0},
      {0.0, 0.0, 0.05}, {0.12, -0.03, 0.05}};
  for (const Pose2& mount : mounts) {
    LidarConfig cfg;
    cfg.mount = mount;
    for (const double x : coords) {
      for (const double y : coords) {
        for (const double theta : headings) {
          const Pose2 body{x, y, theta};
          ASSERT_TRUE(reference::same_bits(cfg.sensor_pose(body),
                                           reference::compose(body, mount)))
              << "body " << x << " " << y << " " << theta << " mount "
              << mount.x << " " << mount.y << " " << mount.theta;
        }
      }
    }
  }
}

}  // namespace
}  // namespace srl
