#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "common/angles.hpp"
#include "common/stats.hpp"
#include "motion/ackermann.hpp"
#include "motion/diff_drive.hpp"
#include "motion/tum_model.hpp"
#include "reference_math.hpp"

namespace srl {
namespace {

OdometryDelta straight(double dist, double v) {
  OdometryDelta d;
  d.delta = Pose2{dist, 0.0, 0.0};
  d.v = v;
  d.dt = v > 0.0 ? dist / v : 0.0;
  return d;
}

/// Sample `n` successors and collect dispersion statistics.
struct CloudStats {
  RunningStats along;    ///< displacement along the commanded direction
  RunningStats lateral;  ///< perpendicular displacement
  std::vector<double> headings;
};

CloudStats sample_cloud(const MotionModel& model, const OdometryDelta& odom,
                        int n, std::uint64_t seed) {
  CloudStats s;
  Rng rng{seed};
  for (int i = 0; i < n; ++i) {
    const Pose2 out = model.sample(Pose2{}, odom, rng);
    s.along.add(out.x);
    s.lateral.add(out.y);
    s.headings.push_back(out.theta);
  }
  return s;
}

TEST(Ackermann, CurvatureEnvelope) {
  const AckermannParams p;
  // Low speed: geometric steering limit.
  EXPECT_NEAR(max_curvature(p, 0.0), std::tan(p.max_steer) / p.wheelbase,
              1e-12);
  // High speed: grip limit a_lat / v^2 binds and shrinks with speed.
  const double k5 = max_curvature(p, 5.0);
  const double k7 = max_curvature(p, 7.0);
  EXPECT_NEAR(k5, p.max_lat_accel / 25.0, 1e-12);
  EXPECT_GT(k5, k7);
}

TEST(Ackermann, SteerCurvatureRoundTrip) {
  const AckermannParams p;
  for (double steer = -0.35; steer <= 0.35; steer += 0.07) {
    EXPECT_NEAR(curvature_to_steer(p, steer_to_curvature(p, steer)), steer,
                1e-9);
  }
}

TEST(DiffDrive, MeanFollowsOdometry) {
  const DiffDriveModel model;
  const auto s = sample_cloud(model, straight(0.2, 2.0), 20000, 11);
  EXPECT_NEAR(s.along.mean(), 0.2, 0.01);
  EXPECT_NEAR(s.lateral.mean(), 0.0, 0.01);
  EXPECT_NEAR(circular_mean(s.headings), 0.0, 0.01);
}

TEST(DiffDrive, DispersionGrowsWithTranslation) {
  const DiffDriveModel model;
  const auto slow = sample_cloud(model, straight(0.05, 1.0), 5000, 3);
  const auto fast = sample_cloud(model, straight(0.4, 8.0), 5000, 3);
  EXPECT_GT(fast.along.stddev(), slow.along.stddev());
  EXPECT_GT(circular_stddev(fast.headings), circular_stddev(slow.headings));
}

TEST(DiffDrive, PureRotationDecomposition) {
  const DiffDriveModel model;
  OdometryDelta turn;
  turn.delta = Pose2{0.0, 0.0, 0.5};
  turn.v = 0.0;
  turn.dt = 0.1;
  const auto s = sample_cloud(model, turn, 20000, 4);
  EXPECT_NEAR(circular_mean(s.headings), 0.5, 0.01);
  EXPECT_NEAR(s.along.mean(), 0.0, 0.01);
}

TEST(TumModel, LowSpeedMatchesDiffDriveScale) {
  // Fig. 1 left: at crawling speed the TUM model is diff-drive-like — the
  // curvature envelope is far from binding.
  const TumMotionModel tum;
  const double trans = 0.05;
  const double v = 0.5;
  const double cap = tum.params().beta_curvature *
                     max_curvature(tum.params().ackermann, v) * trans;
  const double uncapped = tum.params().alpha_rot_trans * trans;
  EXPECT_LT(uncapped, cap);  // cap inactive at low speed
}

TEST(TumModel, HighSpeedHeadingDispersionShrinks) {
  // Fig. 1 right: at 7 m/s the heading dispersion per meter must be far
  // smaller than the diff-drive equivalent.
  const TumMotionModel tum;
  const DiffDriveModel diff;
  const OdometryDelta odom = straight(0.35, 7.0);  // one 50 ms step at 7 m/s
  const auto tum_cloud = sample_cloud(tum, odom, 8000, 21);
  const auto diff_cloud = sample_cloud(diff, odom, 8000, 21);
  EXPECT_LT(circular_stddev(tum_cloud.headings),
            0.5 * circular_stddev(diff_cloud.headings));
  EXPECT_LT(tum_cloud.lateral.stddev(), diff_cloud.lateral.stddev());
}

TEST(TumModel, HeadingSigmaCapScalesWithSpeed) {
  const TumMotionModel tum;
  const double trans = 0.2;
  EXPECT_GT(tum.heading_sigma(trans, 1.0), tum.heading_sigma(trans, 7.0));
}

TEST(TumModel, ClampRejectsInfeasibleYaw) {
  // Steering-derived odometry reporting an impossible yaw for 7 m/s gets
  // clamped to the feasible envelope.
  const TumModelParams params;
  const TumMotionModel tum{params};
  OdometryDelta odom;
  odom.delta = Pose2{0.175, 0.0, 0.15};  // 0.86 rad/m at 7 m/s: infeasible
  odom.v = 7.0;
  odom.dt = 0.025;
  const auto s = sample_cloud(tum, odom, 8000, 9);
  const double envelope = params.envelope_margin *
                              max_curvature(params.ackermann, 7.0) * 0.175 +
                          params.sigma_floor_theta;
  EXPECT_LT(std::abs(circular_mean(s.headings)), envelope + 0.01);
  EXPECT_LT(std::abs(circular_mean(s.headings)), 0.15);
}

TEST(TumModel, FeasibleYawPassesThrough) {
  const TumMotionModel tum;
  OdometryDelta odom;
  odom.delta = Pose2{0.2, 0.0, 0.02};  // 0.1 rad/m at 2 m/s: feasible
  odom.v = 2.0;
  odom.dt = 0.1;
  const auto s = sample_cloud(tum, odom, 8000, 13);
  EXPECT_NEAR(circular_mean(s.headings), 0.02, 0.01);
}

TEST(TumModel, LongitudinalDispersionNotCapped) {
  // Slip robustness: longitudinal noise keeps growing with distance even at
  // high speed (the filter must absorb wheel slip).
  const TumMotionModel tum;
  const auto short_step = sample_cloud(tum, straight(0.1, 7.0), 5000, 31);
  const auto long_step = sample_cloud(tum, straight(0.4, 7.0), 5000, 31);
  EXPECT_GT(long_step.along.stddev(), 2.0 * short_step.along.stddev());
}

TEST(MotionModels, DeterministicGivenSeed) {
  const TumMotionModel tum;
  Rng a{55};
  Rng b{55};
  const OdometryDelta odom = straight(0.3, 5.0);
  for (int i = 0; i < 20; ++i) {
    const Pose2 pa = tum.sample(Pose2{1, 2, 0.3}, odom, a);
    const Pose2 pb = tum.sample(Pose2{1, 2, 0.3}, odom, b);
    EXPECT_DOUBLE_EQ(pa.x, pb.x);
    EXPECT_DOUBLE_EQ(pa.theta, pb.theta);
  }
}

/// Fig. 1 property across speeds: the ratio of TUM to diff-drive heading
/// dispersion decreases monotonically as speed rises.
class SpeedSweep : public ::testing::TestWithParam<double> {};

TEST_P(SpeedSweep, TumNeverWiderThanDiffDrive) {
  const double v = GetParam();
  const TumMotionModel tum;
  const DiffDriveModel diff;
  const OdometryDelta odom = straight(v * 0.05, v);
  const auto tc = sample_cloud(tum, odom, 4000, 71);
  const auto dc = sample_cloud(diff, odom, 4000, 71);
  EXPECT_LE(circular_stddev(tc.headings),
            circular_stddev(dc.headings) * 1.15)
      << "v = " << v;
}

INSTANTIATE_TEST_SUITE_P(Speeds, SpeedSweep,
                         ::testing::Values(0.5, 1.0, 2.0, 3.0, 5.0, 7.0));


// ---------------------------------------------------------------------------
// Differential tests: the prepared step (sample_slice, and sample() through
// it) against the single-pose bodies that took every term per particle.
// ---------------------------------------------------------------------------

Pose2 reference_tum(const TumModelParams& p, const Pose2& pose,
                    const OdometryDelta& odom, Rng& rng) {
  const Pose2& d = odom.delta;
  const double trans = std::hypot(d.x, d.y);
  const double v = std::max(std::abs(odom.v),
                            odom.dt > 0.0 ? trans / odom.dt : 0.0);
  const double sigma_trans = p.alpha_trans * trans + p.sigma_floor_xy;
  const double trans_hat = trans + rng.gaussian(sigma_trans);
  const double envelope =
      p.envelope_margin * max_curvature(p.ackermann, v) * trans +
      p.sigma_floor_theta;
  const double dtheta_mean = std::clamp(reference::normalize_angle(d.theta),
                                        -envelope, envelope);
  const double uncapped = p.alpha_rot_trans * std::abs(trans);
  const double cap =
      p.beta_curvature * max_curvature(p.ackermann, v) * std::abs(trans);
  const double heading_sigma = std::min(uncapped, cap) + p.sigma_floor_theta;
  const double sigma_rot = p.alpha_rot * std::abs(dtheta_mean) + heading_sigma;
  const double dtheta_hat = dtheta_mean + rng.gaussian(sigma_rot);
  const double lat_cap = 0.5 * p.beta_curvature *
                         max_curvature(p.ackermann, v) * trans * trans;
  const double sigma_lat =
      std::min(p.alpha_trans * trans, lat_cap) + p.sigma_floor_xy;
  const double lat_hat = rng.gaussian(sigma_lat);
  const double mid_heading = pose.theta + 0.5 * dtheta_hat +
                             (trans > 1e-6 ? std::atan2(d.y, d.x) : 0.0);
  const double cx = std::cos(mid_heading);
  const double sx = std::sin(mid_heading);
  return Pose2{pose.x + trans_hat * cx - lat_hat * sx,
               pose.y + trans_hat * sx + lat_hat * cx,
               reference::normalize_angle(pose.theta + dtheta_hat)};
}

Pose2 reference_diff_drive(const DiffDriveParams& p, const Pose2& pose,
                           const OdometryDelta& odom, Rng& rng) {
  const Pose2& d = odom.delta;
  const double trans = std::hypot(d.x, d.y);
  double rot1 = 0.0;
  if (trans > 1e-6) rot1 = reference::normalize_angle(std::atan2(d.y, d.x));
  const double rot2 = reference::normalize_angle(d.theta - rot1);
  const double rot1_hat =
      rot1 + rng.gaussian(std::sqrt(p.alpha1 * rot1 * rot1 +
                                    p.alpha2 * trans * trans) +
                          p.sigma_floor_theta);
  const double trans_hat =
      trans + rng.gaussian(std::sqrt(p.alpha3 * trans * trans +
                                     p.alpha4 * (rot1 * rot1 + rot2 * rot2)) +
                           p.sigma_floor_xy);
  const double rot2_hat =
      rot2 + rng.gaussian(std::sqrt(p.alpha1 * rot2 * rot2 +
                                    p.alpha2 * trans * trans) +
                          p.sigma_floor_theta);
  const double heading = pose.theta + rot1_hat;
  return Pose2{pose.x + trans_hat * std::cos(heading),
               pose.y + trans_hat * std::sin(heading),
               reference::normalize_angle(pose.theta + rot1_hat + rot2_hat)};
}

std::string text_of(const Rng& rng) {
  std::ostringstream os;
  os << rng;
  return os.str();
}

OdometryDelta odometry(double dx, double dy, double dtheta, double v,
                       double dt) {
  OdometryDelta o;
  o.delta = Pose2{dx, dy, dtheta};
  o.v = v;
  o.dt = dt;
  return o;
}

/// Increments covering the prepared terms' branches: trans of 0, at most
/// 1e-6 and large; v below and above 0.3 (and v from trans / dt); mean
/// headings inside and beyond the envelope and beyond pi; dt of 0.
std::vector<OdometryDelta> edge_increments() {
  return {
      odometry(0.0, 0.0, 0.0, 0.0, 0.025),
      odometry(0.0, 0.0, 0.2, 0.0, 0.0),
      odometry(5e-7, 3e-7, 0.001, 0.1, 0.025),
      odometry(1e-6, 0.0, -0.002, 0.29, 0.025),
      odometry(0.0075, 0.0002, 0.0004, 0.3, 0.025),
      odometry(0.175, 0.004, 0.003, 7.0, 0.025),
      odometry(0.175, -0.01, 0.4, 7.0, 0.025),     // beyond the envelope
      odometry(0.12, 0.03, -0.9, 0.0, 0.025),      // v from trans / dt
      odometry(0.2, 0.0, 0.05, 6.0, 0.0),          // dt of 0
      odometry(-0.15, 0.02, 3.1, 5.0, 0.025),      // reversing, near pi
      odometry(0.05, -0.05, -3.14, 2.0, 0.025),
      odometry(0.1, 0.0, 4.0, 3.0, 0.025),         // wraps past pi
      odometry(50.0, -20.0, 0.3, 60.0, 1.0),       // large
  };
}

/// Particle poses, headings on both sides of +-pi included.
std::vector<Pose2> edge_poses() {
  std::vector<Pose2> poses = {
      {0.0, 0.0, 0.0},
      {1.5, -2.0, -0.0},
      {3.0, 4.0, kPi},
      {-3.0, 4.0, -kPi},
      {2.0, 2.0, std::nextafter(kPi, 0.0)},
      {2.0, 2.0, std::nextafter(-kPi, 0.0)},
      {-7.0, 1.0, 3.1},
      {7.0, -1.0, -3.1},
  };
  Rng rng{404};
  for (int i = 0; i < 29; ++i) {
    poses.push_back({rng.uniform(-20.0, 20.0), rng.uniform(-20.0, 20.0),
                     rng.uniform(-kPi, kPi)});
  }
  return poses;
}

/// sample_slice over the whole cloud and sample() pose by pose must both
/// equal the reference body, draw for draw.
template <typename Reference>
void expect_prepared_step_exact(const MotionModel& model, Reference reference) {
  const std::vector<Pose2> poses = edge_poses();
  const Rng master{77};
  std::uint64_t call = 0;
  for (const OdometryDelta& odom : edge_increments()) {
    SCOPED_TRACE(::testing::Message()
                 << "delta " << odom.delta << " v " << odom.v << " dt "
                 << odom.dt);
    ++call;
    std::vector<Rng> batch_rngs;
    for (std::size_t i = 0; i < poses.size(); ++i) {
      batch_rngs.push_back(master.substream(call, i));
    }
    std::vector<Rng> single_rngs = batch_rngs;
    std::vector<Rng> ref_rngs = batch_rngs;
    std::vector<double> xs;
    std::vector<double> ys;
    std::vector<double> ts;
    for (const Pose2& p : poses) {
      xs.push_back(p.x);
      ys.push_back(p.y);
      ts.push_back(p.theta);
    }
    model.sample_slice(odom, PoseSlice{xs.data(), ys.data(), ts.data(),
                                       batch_rngs.data(), poses.size()});
    for (std::size_t i = 0; i < poses.size(); ++i) {
      const Pose2 want = reference(poses[i], odom, ref_rngs[i]);
      const Pose2 single = model.sample(poses[i], odom, single_rngs[i]);
      ASSERT_TRUE(reference::same_bits(Pose2{xs[i], ys[i], ts[i]}, want))
          << "slot " << i;
      ASSERT_TRUE(reference::same_bits(single, want)) << "slot " << i;
      ASSERT_EQ(text_of(batch_rngs[i]), text_of(ref_rngs[i]));
      ASSERT_EQ(text_of(single_rngs[i]), text_of(ref_rngs[i]));
    }
  }
}

TEST(PreparedStep, TumMatchesPerParticleBody) {
  TumModelParams defaults;
  TumModelParams no_floors;
  no_floors.sigma_floor_xy = 0.0;
  no_floors.sigma_floor_theta = 0.0;
  for (const TumModelParams& params : {defaults, no_floors}) {
    const TumMotionModel model{params};
    expect_prepared_step_exact(
        model, [&](const Pose2& pose, const OdometryDelta& odom, Rng& rng) {
          return reference_tum(params, pose, odom, rng);
        });
  }
}

TEST(PreparedStep, DiffDriveMatchesPerParticleBody) {
  DiffDriveParams defaults;
  DiffDriveParams no_floors;
  no_floors.sigma_floor_xy = 0.0;
  no_floors.sigma_floor_theta = 0.0;
  for (const DiffDriveParams& params : {defaults, no_floors}) {
    const DiffDriveModel model{params};
    expect_prepared_step_exact(
        model, [&](const Pose2& pose, const OdometryDelta& odom, Rng& rng) {
          return reference_diff_drive(params, pose, odom, rng);
        });
  }
}

TEST(PreparedStep, ZeroNoiseDrawsNothing) {
  // With no floors and no motion every sigma is 0: the step moves nothing
  // and leaves every stream where it was.
  TumModelParams params;
  params.sigma_floor_xy = 0.0;
  params.sigma_floor_theta = 0.0;
  const TumMotionModel model{params};
  Rng rng{9};
  const std::string before = text_of(rng);
  const Pose2 out =
      model.sample(Pose2{1.0, 2.0, 0.5}, odometry(0, 0, 0, 0, 0), rng);
  EXPECT_TRUE(reference::same_bits(out, Pose2{1.0, 2.0, 0.5}));
  EXPECT_EQ(text_of(rng), before);
}

}  // namespace
}  // namespace srl
