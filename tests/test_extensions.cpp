/// Tests for the KLD-adaptive particle count extension.

#include <gtest/gtest.h>

#include <memory>

#include "common/angles.hpp"
#include "core/particle_filter.hpp"
#include "motion/tum_model.hpp"
#include "range/bresenham.hpp"
#include "sensor/lidar_sim.hpp"
#include "sensor/scanline_layout.hpp"

namespace srl {
namespace {

// ------------------------------------------------------------------- KLD --

std::shared_ptr<const OccupancyGrid> make_room() {
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
    for (int x = 60; x < 80; ++x) grid->at(x, y) = OccupancyGrid::kOccupied;
  }
  return grid;
}

ParticleFilter make_kld_filter(std::shared_ptr<const OccupancyGrid> map,
                               int max_particles, int beams = 40) {
  const LidarConfig lidar;
  ParticleFilterConfig cfg;
  cfg.n_particles = max_particles;
  cfg.kld_adaptive = true;
  cfg.kld_min_particles = 200;
  auto caster = std::make_shared<BresenhamCaster>(map, lidar.max_range);
  return ParticleFilter{cfg,
                        std::move(caster),
                        std::make_shared<TumMotionModel>(),
                        BeamModel{},
                        lidar,
                        uniform_layout(lidar, beams),
                        7};
}

LaserScan observe(std::shared_ptr<const OccupancyGrid> map, const Pose2& pose,
                  Rng& rng) {
  const LidarConfig lidar;
  auto caster =
      std::make_shared<BresenhamCaster>(std::move(map), lidar.max_range);
  LidarNoise noise;
  noise.sigma_range = 0.01;
  noise.dropout_prob = 0.0;
  const LidarSim sim{lidar, std::move(caster), noise};
  return sim.scan(pose, 0.0, rng);
}

TEST(KldAdaptive, ShrinksOnConvergedCloud) {
  auto map = make_room();
  ParticleFilter pf = make_kld_filter(map, 4000);
  const Pose2 truth{4.0, 2.0, 0.5};
  pf.init_pose(truth);
  Rng rng{3};
  for (int i = 0; i < 5; ++i) {
    pf.correct(observe(map, truth, rng));
  }
  // A tight cloud occupies a handful of bins: far fewer particles needed.
  EXPECT_LT(pf.current_particles(), 1500);
  EXPECT_GE(pf.current_particles(), 200);
  // Accuracy is retained.
  const Pose2 est = pf.estimate();
  EXPECT_NEAR(est.x, truth.x, 0.12);
  EXPECT_NEAR(est.y, truth.y, 0.12);
}

TEST(KldAdaptive, PosteriorWidthControlsCount) {
  // The cloud size after resampling must track posterior width: a weak
  // sensor (3 beams) leaves a broad, multi-modal posterior after a global
  // init; a strong one (40 beams) collapses it. (With 40 beams even a
  // global prior collapses in one update — the sensor, not the prior,
  // determines the KLD count.)
  auto map = make_room();
  Rng rng{5};

  ParticleFilter weak = make_kld_filter(map, 4000, 3);
  weak.init_global(*map);
  for (int i = 0; i < 5 && weak.resample_count() == 0; ++i) {
    weak.correct(observe(map, {7.5, 4.5, -2.0}, rng));
  }
  ASSERT_GT(weak.resample_count(), 0L);
  const int broad_count = weak.current_particles();

  ParticleFilter strong = make_kld_filter(map, 4000, 40);
  strong.init_pose({4.0, 2.0, 0.5});
  for (int i = 0; i < 5; ++i) {
    strong.correct(observe(map, {4.0, 2.0, 0.5}, rng));
  }
  ASSERT_GT(strong.resample_count(), 0L);
  const int tight_count = strong.current_particles();

  EXPECT_GT(broad_count, 2 * tight_count);
  EXPECT_GT(broad_count, 600);
}

TEST(KldAdaptive, DisabledKeepsFixedCount) {
  auto map = make_room();
  const LidarConfig lidar;
  ParticleFilterConfig cfg;
  cfg.n_particles = 1234;
  cfg.kld_adaptive = false;
  auto caster = std::make_shared<BresenhamCaster>(map, lidar.max_range);
  ParticleFilter pf{cfg,
                    std::move(caster),
                    std::make_shared<TumMotionModel>(),
                    BeamModel{},
                    lidar,
                    uniform_layout(lidar, 40),
                    7};
  pf.init_pose({4.0, 2.0, 0.0});
  Rng rng{9};
  for (int i = 0; i < 3; ++i) pf.correct(observe(map, {4.0, 2.0, 0.0}, rng));
  EXPECT_EQ(pf.current_particles(), 1234);
}

TEST(KldAdaptive, GrowsBackWhenUncertaintyRises) {
  // Weak-sensor filter: converge it near the truth, then disperse the
  // cloud with noisy predictions; the next resampling must keep more
  // particles than the converged state did.
  auto map = make_room();
  ParticleFilter pf = make_kld_filter(map, 4000, 3);
  const Pose2 truth{4.0, 2.0, 0.5};
  pf.init_pose(truth);
  Rng rng{11};
  for (int i = 0; i < 6; ++i) pf.correct(observe(map, truth, rng));
  ASSERT_GT(pf.resample_count(), 0L);
  const int converged = pf.current_particles();

  // Large-noise predictions disperse the cloud again (standing still, so
  // the truth does not move)...
  OdometryDelta odom;
  odom.delta = Pose2{0.0, 0.0, 0.0};
  odom.v = 0.0;
  odom.dt = 0.2;
  ParticleFilterConfig cfg = pf.config();
  (void)cfg;
  for (int i = 0; i < 40; ++i) pf.predict(odom);
  const long before = pf.resample_count();
  for (int i = 0; i < 5 && pf.resample_count() == before; ++i) {
    pf.correct(observe(map, truth, rng));
  }
  if (pf.resample_count() > before) {
    EXPECT_GE(pf.current_particles(), converged);
  }
}

}  // namespace
}  // namespace srl
