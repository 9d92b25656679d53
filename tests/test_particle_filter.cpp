#include "core/particle_filter.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <map>
#include <memory>
#include <tuple>

#include "common/angles.hpp"
#include "motion/tum_model.hpp"
#include "range/bresenham.hpp"
#include "range/range_method.hpp"
#include "sensor/lidar_sim.hpp"
#include "sensor/scanline_layout.hpp"

namespace srl {
namespace {

std::shared_ptr<const OccupancyGrid> make_room() {
  // 10 x 6 m room with an internal pillar to break symmetry.
  auto grid = std::make_shared<OccupancyGrid>(200, 120, 0.05, Vec2{0.0, 0.0},
                                              OccupancyGrid::kFree);
  for (int x = 0; x < 200; ++x) {
    grid->at(x, 0) = OccupancyGrid::kOccupied;
    grid->at(x, 119) = OccupancyGrid::kOccupied;
  }
  for (int y = 0; y < 120; ++y) {
    grid->at(0, y) = OccupancyGrid::kOccupied;
    grid->at(199, y) = OccupancyGrid::kOccupied;
  }
  for (int y = 40; y < 60; ++y) {
    for (int x = 60, xe = 80; x < xe; ++x) {
      grid->at(x, y) = OccupancyGrid::kOccupied;
    }
  }
  return grid;
}

ParticleFilter make_filter(std::shared_ptr<const OccupancyGrid> map,
                           int particles = 800, std::uint64_t seed = 42) {
  const LidarConfig lidar;
  ParticleFilterConfig cfg;
  cfg.n_particles = particles;
  auto caster = std::make_shared<BresenhamCaster>(map, lidar.max_range);
  auto motion = std::make_shared<TumMotionModel>();
  return ParticleFilter{cfg,
                        std::move(caster),
                        std::move(motion),
                        BeamModel{},
                        lidar,
                        uniform_layout(lidar, 40),
                        seed};
}

LaserScan observe(std::shared_ptr<const OccupancyGrid> map, const Pose2& pose,
                  Rng& rng) {
  const LidarConfig lidar;
  auto caster = std::make_shared<BresenhamCaster>(std::move(map),
                                                  lidar.max_range);
  LidarNoise noise;
  noise.sigma_range = 0.01;
  noise.dropout_prob = 0.0;
  const LidarSim sim{lidar, std::move(caster), noise};
  return sim.scan(pose, 0.0, rng);
}

TEST(ParticleFilter, InitPoseSpread) {
  auto map = make_room();
  ParticleFilter pf = make_filter(map);
  const Pose2 start{5.0, 3.0, 0.5};
  pf.init_pose(start);
  const Pose2 est = pf.estimate();
  EXPECT_NEAR(est.x, start.x, 0.05);
  EXPECT_NEAR(est.y, start.y, 0.05);
  EXPECT_NEAR(angle_dist(est.theta, start.theta), 0.0, 0.03);
  const PoseCovariance cov = pf.covariance();
  EXPECT_NEAR(std::sqrt(cov.xx), pf.config().init_sigma_xy, 0.05);
  EXPECT_GT(cov.tt, 0.0);
}

TEST(ParticleFilter, InitGlobalOnlyFreeCells) {
  auto map = make_room();
  ParticleFilter pf = make_filter(map);
  pf.init_global(*map);
  for (const Particle& p : pf.particles_snapshot()) {
    EXPECT_TRUE(map->is_free_at({p.pose.x, p.pose.y}))
        << p.pose.x << "," << p.pose.y;
  }
}

TEST(ParticleFilter, PredictMovesCloud) {
  auto map = make_room();
  ParticleFilter pf = make_filter(map);
  pf.init_pose({5.0, 3.0, 0.0});
  OdometryDelta odom;
  odom.delta = Pose2{0.5, 0.0, 0.0};
  odom.v = 2.0;
  odom.dt = 0.25;
  pf.predict(odom);
  EXPECT_NEAR(pf.estimate().x, 5.5, 0.1);
}

TEST(ParticleFilter, CorrectConcentratesNearTruth) {
  auto map = make_room();
  ParticleFilter pf = make_filter(map, 1500);
  const Pose2 truth{4.0, 2.0, 0.8};
  // Broad initialization around (but not at) the truth.
  ParticleFilterConfig cfg = pf.config();
  pf.init_pose({4.3, 2.3, 0.6});
  (void)cfg;

  Rng scan_rng{7};
  for (int i = 0; i < 6; ++i) {
    const LaserScan scan = observe(map, truth, scan_rng);
    pf.correct(scan);
  }
  const Pose2 est = pf.estimate();
  EXPECT_NEAR(est.x, truth.x, 0.12);
  EXPECT_NEAR(est.y, truth.y, 0.12);
  EXPECT_NEAR(angle_dist(est.theta, truth.theta), 0.0, 0.08);
  // The posterior tightened relative to the prior.
  const PoseCovariance cov = pf.covariance();
  EXPECT_LT(std::sqrt(cov.xx), pf.config().init_sigma_xy);
}

TEST(ParticleFilter, GlobalLocalizationConverges) {
  auto map = make_room();
  ParticleFilter pf = make_filter(map, 4000, 13);
  pf.init_global(*map);
  const Pose2 truth{7.5, 4.5, -2.0};
  Rng scan_rng{21};
  OdometryDelta odom;
  odom.delta = Pose2{0.08, 0.0, 0.03};
  odom.v = 1.0;
  odom.dt = 0.08;
  Pose2 truth_now = truth;
  for (int i = 0; i < 25; ++i) {
    const LaserScan scan = observe(map, truth_now, scan_rng);
    pf.correct(scan);
    pf.predict(odom);
    truth_now = (truth_now * odom.delta).normalized();
  }
  const LaserScan scan = observe(map, truth_now, scan_rng);
  pf.correct(scan);
  const Pose2 est = pf.estimate();
  EXPECT_NEAR(est.x, truth_now.x, 0.3);
  EXPECT_NEAR(est.y, truth_now.y, 0.3);
}

TEST(ParticleFilter, EssDropsOnConflictThenResamples) {
  auto map = make_room();
  ParticleFilter pf = make_filter(map, 500);
  pf.init_pose({5.0, 3.0, 0.0});
  const double ess0 = pf.effective_sample_size();
  EXPECT_NEAR(ess0, 500.0, 1.0);  // uniform weights
  Rng scan_rng{3};
  const LaserScan scan = observe(map, {5.0, 3.0, 0.0}, scan_rng);
  pf.correct(scan);
  // After a correction + possible resample the filter stays healthy.
  EXPECT_GT(pf.effective_sample_size(), 50.0);
  EXPECT_GE(pf.resample_count(), 0L);
}

TEST(ParticleFilter, ResamplePreservesMean) {
  auto map = make_room();
  ParticleFilter pf = make_filter(map, 3000);
  pf.init_pose({5.0, 3.0, 1.0});
  const Pose2 before = pf.estimate();
  Rng scan_rng{33};
  const LaserScan scan = observe(map, {5.0, 3.0, 1.0}, scan_rng);
  pf.correct(scan);  // likely triggers a resample
  const Pose2 after = pf.estimate();
  EXPECT_NEAR(before.x, after.x, 0.15);
  EXPECT_NEAR(before.y, after.y, 0.15);
}

TEST(ParticleFilter, WeightsNormalizedAfterCorrect) {
  auto map = make_room();
  ParticleFilter pf = make_filter(map);
  pf.init_pose({5.0, 3.0, 0.0});
  Rng scan_rng{9};
  const LaserScan scan = observe(map, {5.0, 3.0, 0.0}, scan_rng);
  pf.correct(scan);
  double sum = 0.0;
  for (const Particle& p : pf.particles_snapshot()) sum += p.weight;
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(ParticleFilter, DeterministicWithSameSeed) {
  auto map = make_room();
  ParticleFilter a = make_filter(map, 300, 99);
  ParticleFilter b = make_filter(map, 300, 99);
  a.init_pose({5.0, 3.0, 0.0});
  b.init_pose({5.0, 3.0, 0.0});
  Rng ra{1};
  Rng rb{1};
  const LaserScan sa = observe(map, {5.0, 3.0, 0.0}, ra);
  const LaserScan sb = observe(map, {5.0, 3.0, 0.0}, rb);
  a.correct(sa);
  b.correct(sb);
  const Pose2 ea = a.estimate();
  const Pose2 eb = b.estimate();
  EXPECT_DOUBLE_EQ(ea.x, eb.x);
  EXPECT_DOUBLE_EQ(ea.theta, eb.theta);
}

// ---------------------------------------------------------------------------
// Property-based resampling suite: generator-driven weight vectors (random,
// spike, equal, degenerate) pushed through set_weights + force_resample,
// asserting the low-variance-resampling invariants across many seeds:
//   * multiplicity: each source particle is drawn within +-1 of n * w_i
//     (the defining guarantee of systematic resampling),
//   * ESS monotonicity: resampling restores ESS to exactly n, never below
//     the pre-resample value,
//   * normalization post-conditions: uniform 1/n weights summing to 1.
// ---------------------------------------------------------------------------

enum class WeightMode { kRandom, kSpike, kEqual, kZeroSum, kTiny };

const char* mode_name(WeightMode m) {
  switch (m) {
    case WeightMode::kRandom: return "random";
    case WeightMode::kSpike: return "spike";
    case WeightMode::kEqual: return "equal";
    case WeightMode::kZeroSum: return "zero-sum";
    case WeightMode::kTiny: return "tiny";
  }
  return "?";
}

std::vector<double> make_weights(WeightMode mode, std::size_t n, Rng& gen) {
  std::vector<double> w(n);
  switch (mode) {
    case WeightMode::kRandom:
      for (double& x : w) x = gen.uniform(0.0, 1.0);
      break;
    case WeightMode::kSpike: {
      // One dominant particle, the rest negligible.
      for (double& x : w) x = gen.uniform(0.0, 1e-9);
      w[static_cast<std::size_t>(gen.uniform_int(
          0, static_cast<int>(n) - 1))] = 1.0;
      break;
    }
    case WeightMode::kEqual:
      for (double& x : w) x = 0.5;
      break;
    case WeightMode::kZeroSum:
      // Degenerate: total mass zero. normalize_weights() must collapse the
      // cloud back to uniform rather than divide by zero.
      for (double& x : w) x = 0.0;
      break;
    case WeightMode::kTiny:
      // Positive but denormal-adjacent mass; normalization has to survive
      // the tiny divisor without producing inf/nan.
      for (double& x : w) x = gen.uniform(0.1, 1.0) * 1e-300;
      break;
  }
  return w;
}

/// Bit-exact pose key: resampling copies poses verbatim, so the source of
/// every post-resample particle is recoverable from its bit pattern.
using PoseKey = std::tuple<std::uint64_t, std::uint64_t, std::uint64_t>;

PoseKey pose_key(const Pose2& p) {
  std::uint64_t x = 0;
  std::uint64_t y = 0;
  std::uint64_t t = 0;
  std::memcpy(&x, &p.x, sizeof(double));
  std::memcpy(&y, &p.y, sizeof(double));
  std::memcpy(&t, &p.theta, sizeof(double));
  return {x, y, t};
}

TEST(ResamplingProperties, SystematicInvariantsAcrossSeedsAndModes) {
  auto map = make_room();
  const LidarConfig lidar;
  for (const int n : {64, 300, 1000}) {
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
      for (const WeightMode mode :
           {WeightMode::kRandom, WeightMode::kSpike, WeightMode::kEqual,
            WeightMode::kZeroSum, WeightMode::kTiny}) {
        SCOPED_TRACE(::testing::Message() << "n=" << n << " seed=" << seed
                                          << " mode=" << mode_name(mode));
        ParticleFilterConfig cfg;
        cfg.n_particles = n;
        // Keep the resampled cloud at exactly n (the non-adaptive path
        // resamples to max(n_particles, kld_min_particles)).
        cfg.kld_min_particles = n;
        ParticleFilter pf{cfg,
                          std::make_shared<BresenhamCaster>(map,
                                                            lidar.max_range),
                          std::make_shared<TumMotionModel>(),
                          BeamModel{},
                          lidar,
                          uniform_layout(lidar, 40),
                          seed};
        pf.init_pose({5.0, 3.0, 0.5});

        Rng gen{seed * 7919 + static_cast<std::uint64_t>(mode) * 104729 +
                static_cast<std::uint64_t>(n)};
        pf.set_weights(make_weights(mode, static_cast<std::size_t>(n), gen));

        // Snapshot the normalized weights and source identities.
        std::map<PoseKey, std::size_t> source;
        std::vector<double> w_norm(static_cast<std::size_t>(n));
        double sum = 0.0;
        const auto cloud = pf.particles_snapshot();
        for (std::size_t i = 0; i < cloud.size(); ++i) {
          ASSERT_TRUE(std::isfinite(cloud[i].weight));
          ASSERT_GE(cloud[i].weight, 0.0);
          w_norm[i] = cloud[i].weight;
          sum += cloud[i].weight;
          ASSERT_TRUE(source.emplace(pose_key(cloud[i].pose), i).second)
              << "duplicate pose bit pattern at slot " << i;
        }
        ASSERT_NEAR(sum, 1.0, 1e-9);  // set_weights post-condition
        const double ess_pre = pf.effective_sample_size();
        ASSERT_GT(ess_pre, 0.0);
        ASSERT_LE(ess_pre, static_cast<double>(n) * (1.0 + 1e-12));
        const long resamples_before = pf.resample_count();

        pf.force_resample();

        // --- Normalization post-conditions: uniform 1/n, summing to 1.
        ASSERT_EQ(pf.current_particles(), n);
        const double uniform = 1.0 / static_cast<double>(n);
        double post_sum = 0.0;
        std::vector<std::size_t> multiplicity(static_cast<std::size_t>(n), 0);
        for (const Particle& p : pf.particles_snapshot()) {
          ASSERT_EQ(p.weight, uniform);
          post_sum += p.weight;
          const auto it = source.find(pose_key(p.pose));
          ASSERT_NE(it, source.end())
              << "resampled particle is not a copy of a source particle";
          ++multiplicity[it->second];
        }
        EXPECT_NEAR(post_sum, 1.0, 1e-9);
        EXPECT_EQ(pf.resample_count(), resamples_before + 1);

        // --- ESS monotonicity: uniform weights restore ESS to exactly n.
        const double ess_post = pf.effective_sample_size();
        EXPECT_NEAR(ess_post, static_cast<double>(n), 1e-6);
        EXPECT_GE(ess_post + 1e-9, ess_pre);

        // --- Systematic multiplicity bound: |count_i - n * w_i| <= 1.
        for (std::size_t i = 0; i < w_norm.size(); ++i) {
          const double expected = static_cast<double>(n) * w_norm[i];
          const double count = static_cast<double>(multiplicity[i]);
          EXPECT_LE(std::abs(count - expected), 1.0 + 1e-9)
              << "slot " << i << ": count " << count << " vs n*w " << expected;
        }
      }
    }
  }
}

TEST(ResamplingProperties, SpikeCollapsesToSingleAncestor) {
  auto map = make_room();
  ParticleFilter pf = make_filter(map, 500, 5);
  pf.init_pose({5.0, 3.0, 0.0});
  std::vector<double> w(500, 0.0);
  w[123] = 1.0;
  const Pose2 spike_pose = pf.cloud().pose(123);
  pf.set_weights(w);
  pf.force_resample();
  for (const Particle& p : pf.particles_snapshot()) {
    ASSERT_EQ(pose_key(p.pose), pose_key(spike_pose));
  }
  EXPECT_NEAR(pf.effective_sample_size(),
              static_cast<double>(pf.current_particles()), 1e-6);
}

TEST(ParticleFilter, CircularMeanAcrossWrap) {
  auto map = make_room();
  ParticleFilter pf = make_filter(map);
  pf.init_pose({5.0, 3.0, kPi});  // heading at the wrap
  const Pose2 est = pf.estimate();
  EXPECT_NEAR(angle_dist(est.theta, kPi), 0.0, 0.05);
}

// ---------------------------------------------------------------------------
// Governor resize orderings (PR-10 regressions): a govern_resize must leave
// the cloud and its weight scratch coherent for whatever runs next — the
// recovery layer's uniform injection and the flight recorder's top-K digest
// both consume the slabs immediately after a resize in the governed stack.
// ---------------------------------------------------------------------------

TEST(ParticleFilter, GovernResizeThenInjectUniformStaysCoherent) {
  auto map = make_room();
  for (const int target : {300, 1200}) {  // shrink and grow orderings
    ParticleFilter pf = make_filter(map);
    pf.init_pose({5.0, 3.0, 0.0});
    pf.govern_resize(target, 7);
    ASSERT_EQ(pf.current_particles(), target);

    Rng rng{99};
    // Would fire the mid-resize/size contracts on an incoherent cloud.
    pf.inject_uniform(0.5, *map, rng);
    EXPECT_EQ(pf.current_particles(), target);
    const std::vector<Particle> cloud = pf.particles_snapshot();
    const double uniform = 1.0 / static_cast<double>(target);
    int inside_free = 0;
    for (const Particle& p : cloud) {
      EXPECT_DOUBLE_EQ(p.weight, uniform);
      const GridIndex cell = map->world_to_grid({p.pose.x, p.pose.y});
      if (map->in_bounds(cell) && map->is_free(cell.ix, cell.iy)) {
        ++inside_free;
      }
    }
    // The injected half landed on free cells; the kept half started there.
    EXPECT_GT(inside_free, target / 2);
  }
}

TEST(ParticleFilter, GovernResizeThenTopParticlesDigestStaysCoherent) {
  auto map = make_room();
  for (const int target : {300, 1200}) {
    ParticleFilter pf = make_filter(map);
    pf.init_pose({5.0, 3.0, 0.0});
    pf.govern_resize(target, 3);
    ASSERT_EQ(pf.current_particles(), target);

    // Digest immediately after the resize: k capped at the new size, sorted
    // by weight descending with slot-index tie-breaks over the (uniform)
    // resized weights — i.e. the first k slots in order.
    const std::vector<Particle> digest = pf.top_particles(32);
    ASSERT_EQ(digest.size(), 32U);
    const double uniform = 1.0 / static_cast<double>(target);
    for (const Particle& p : digest) EXPECT_DOUBLE_EQ(p.weight, uniform);
    const std::vector<Particle> all = pf.particles_snapshot();
    for (std::size_t i = 0; i < digest.size(); ++i) {
      EXPECT_DOUBLE_EQ(digest[i].pose.x, all[i].pose.x) << i;
      EXPECT_DOUBLE_EQ(digest[i].pose.y, all[i].pose.y) << i;
    }
    // Oversized k clamps to the whole cloud instead of reading stale slots.
    EXPECT_EQ(pf.top_particles(static_cast<std::size_t>(target) + 64).size(),
              static_cast<std::size_t>(target));
  }
}

/// Two filters on one shared LUT, each reporting into its own registry:
/// every update adds exactly its own n x k casts to its own
/// "range.lut.queries" and nothing to the other's. (A counter handle kept
/// in the shared backend would follow whichever filter attached last.)
TEST(ParticleFilter, SharedBackendCountsQueriesPerFilter) {
  auto map = make_room();
  const LidarConfig lidar;
  RangeMethodOptions options;
  options.max_range = lidar.max_range;
  const std::shared_ptr<const RangeMethod> lut =
      shared_range_method(RangeMethodKind::kLut, map, options);
  ASSERT_EQ(lut->name(), "lut");
  constexpr int kBeams = 30;
  auto make = [&](int particles) {
    ParticleFilterConfig cfg;
    cfg.n_particles = particles;
    return ParticleFilter{cfg,
                          lut,
                          std::make_shared<TumMotionModel>(),
                          BeamModel{},
                          lidar,
                          uniform_layout(lidar, kBeams),
                          42};
  };
  ParticleFilter a = make(200);
  ParticleFilter b = make(300);
  telemetry::MetricsRegistry metrics_a;
  telemetry::MetricsRegistry metrics_b;
  a.set_telemetry(telemetry::Sink{&metrics_a});
  b.set_telemetry(telemetry::Sink{&metrics_b});
  const telemetry::Counter& queries_a = metrics_a.counter("range.lut.queries");
  const telemetry::Counter& queries_b = metrics_b.counter("range.lut.queries");

  const Pose2 truth{4.0, 2.0, 0.8};
  a.init_pose(truth);
  b.init_pose(truth);
  Rng scan_rng{7};
  const LaserScan scan = observe(map, truth, scan_rng);
  std::uint64_t want_a = 0;
  std::uint64_t want_b = 0;
  for (int i = 0; i < 3; ++i) {
    want_a += static_cast<std::uint64_t>(a.current_particles()) * kBeams;
    a.correct(scan);
    EXPECT_EQ(queries_a.value(), want_a) << "update " << i;
    EXPECT_EQ(queries_b.value(), want_b) << "update " << i;
    want_b += static_cast<std::uint64_t>(b.current_particles()) * kBeams;
    b.correct(scan);
    EXPECT_EQ(queries_a.value(), want_a) << "update " << i;
    EXPECT_EQ(queries_b.value(), want_b) << "update " << i;
  }
}

}  // namespace
}  // namespace srl
