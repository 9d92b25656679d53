#include "sensor/beam_model.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <limits>
#include <memory>
#include <vector>

#include "core/synpf.hpp"
#include "gridmap/track_generator.hpp"
#include "range/ray_marching.hpp"
#include "sensor/lidar_sim.hpp"

namespace srl {
namespace {

TEST(BeamModel, PeaksAtExpectedRange) {
  const BeamModel model;
  const float e = 5.0F;
  const double at_peak = model.prob(e, e);
  EXPECT_GT(at_peak, model.prob(e + 1.0F, e));
  EXPECT_GT(at_peak, model.prob(e - 1.0F, e));
  EXPECT_GT(at_peak, model.prob(e + 0.5F, e));
}

TEST(BeamModel, TableMatchesExactOnGridPoints) {
  BeamModelParams params;
  const BeamModel model{params};
  for (double z = 0.0; z <= params.max_range; z += 0.5) {
    for (double e = 0.0; e <= params.max_range; e += 0.5) {
      const double exact = std::max(model.prob_exact(z, e), 1e-12);
      EXPECT_NEAR(model.log_prob(static_cast<float>(z),
                                 static_cast<float>(e)),
                  std::log(exact), 1e-9)
          << "z=" << z << " e=" << e;
    }
  }
}

TEST(BeamModel, ShortReturnsMoreLikelyThanLong) {
  // The z_short component makes measuring *short* of the expected range
  // (unexpected obstacle) more likely than measuring long.
  const BeamModel model;
  EXPECT_GT(model.prob(3.0F, 6.0F), model.prob(9.0F, 6.0F));
}

TEST(BeamModel, MaxRangeSpike) {
  const BeamModel model;
  const auto max_r = static_cast<float>(model.params().max_range);
  // A max-range reading with a short expectation: only z_max and z_rand
  // contribute, yet the probability stays clearly above the random floor.
  EXPECT_GT(model.prob(max_r, 3.0F),
            1.1 * model.params().z_rand / model.params().max_range);
}

TEST(BeamModel, NeverZero) {
  const BeamModel model;
  // The uniform floor keeps every combination strictly positive, which is
  // what keeps particle weights finite.
  EXPECT_GT(model.prob(0.0F, 12.0F), 0.0);
  EXPECT_GT(model.prob(12.0F, 0.0F), 0.0);
  EXPECT_TRUE(std::isfinite(model.log_prob(12.0F, 0.0F)));
}

TEST(BeamModel, ClampsOutOfRangeInputs) {
  const BeamModel model;
  EXPECT_DOUBLE_EQ(model.log_prob(-1.0F, 5.0F), model.log_prob(0.0F, 5.0F));
  EXPECT_DOUBLE_EQ(model.log_prob(50.0F, 5.0F), model.log_prob(12.0F, 5.0F));
}

TEST(BeamModel, NarrowSigmaSharpensPeak) {
  BeamModelParams wide;
  wide.sigma_hit = 0.3;
  BeamModelParams narrow;
  narrow.sigma_hit = 0.05;
  const BeamModel w{wide};
  const BeamModel n{narrow};
  const double ratio_w = w.prob(5.0F, 5.0F) / w.prob(5.4F, 5.0F);
  const double ratio_n = n.prob(5.0F, 5.0F) / n.prob(5.4F, 5.0F);
  EXPECT_GT(ratio_n, ratio_w);
}

TEST(BeamModel, ApproximatelyNormalized) {
  // Integral over measured z for a mid-range expectation should be near 1
  // (mixture components are individually normalized up to table effects).
  const BeamModel model;
  const double dz = 0.01;
  double integral = 0.0;
  for (double z = 0.0; z <= model.params().max_range; z += dz) {
    integral += model.prob_exact(z, 6.0) * dz;
  }
  EXPECT_NEAR(integral, 1.0, 0.15);
}

TEST(BeamModel, TableDimension) {
  BeamModelParams params;
  params.max_range = 10.0;
  params.table_resolution = 0.1;
  const BeamModel model{params};
  EXPECT_EQ(model.table_dim(), 101);
}

TEST(BeamModel, RangeBinIsDefinedForEveryFloat) {
  const BeamModel model;
  const int last = model.table_dim() - 1;
  const float inf = std::numeric_limits<float>::infinity();
  EXPECT_EQ(model.range_bin(std::numeric_limits<float>::quiet_NaN()), last);
  EXPECT_EQ(model.range_bin(-std::numeric_limits<float>::quiet_NaN()), last);
  EXPECT_EQ(model.range_bin(inf), last);
  EXPECT_EQ(model.range_bin(-inf), 0);
  EXPECT_EQ(model.range_bin(FLT_MAX), last);
  EXPECT_EQ(model.range_bin(-FLT_MAX), 0);
  EXPECT_EQ(model.range_bin(-0.0F), 0);
  EXPECT_EQ(model.range_bin(std::numeric_limits<float>::denorm_min()), 0);
  EXPECT_EQ(model.range_bin(-std::numeric_limits<float>::denorm_min()), 0);
  // Past INT_MAX once scaled, where a plain cast to int is undefined.
  EXPECT_EQ(model.range_bin(2.0e9F), last);
  EXPECT_EQ(model.range_bin(-2.0e9F), 0);
}

TEST(BeamModel, RangeBinKeepsEveryFiniteBin) {
  // The plain truncate-and-clamp, on inputs where its cast is defined.
  const BeamModel model;
  const auto plain = [&](float v) {
    const int b =
        static_cast<int>(static_cast<double>(v) * model.inv_resolution() + 0.5);
    return std::clamp(b, 0, model.table_dim() - 1);
  };
  std::vector<float> values = {0.0F, 0.025F, 0.05F, 11.975F, 12.0F,
                               12.025F, 1e3F, -1e3F, 1e7F, -1e7F};
  for (int i = -400; i <= 14000; ++i) {
    values.push_back(static_cast<float>(i) * 0.001F);
  }
  // Both float neighbours of every half-bin edge, where truncation turns.
  for (int k = -2; k <= model.table_dim() + 2; ++k) {
    const auto edge = static_cast<float>((k - 0.5) * 0.05);
    values.push_back(edge);
    values.push_back(std::nextafter(edge, -1e9F));
    values.push_back(std::nextafter(edge, 1e9F));
  }
  for (const float v : values) {
    EXPECT_EQ(model.range_bin(v), plain(v)) << v;
  }
}

TEST(BeamModel, SynPfUpdateSurvivesNonFiniteBeams) {
  // NaN and +Inf ranges ("no return") reach the weight lookup from a scan
  // unchecked; they score as max-range returns and the estimate stays
  // finite.
  const Track track = TrackGenerator::oval(8.0, 2.5);
  const auto map = std::make_shared<const OccupancyGrid>(track.grid);
  const LidarConfig lidar{};
  const LidarSim sim{lidar, std::make_shared<RayMarching>(map, lidar.max_range),
                     LidarNoise{.sigma_range = 0.01, .dropout_prob = 0.0}};
  SynPfConfig cfg;
  cfg.filter.n_particles = 400;
  cfg.range = RangeMethodKind::kCddt;
  SynPf pf{cfg, map, lidar};
  const Pose2 truth{-4.0, -2.5, 0.0};
  pf.initialize(truth);
  Rng rng{17};
  for (int i = 0; i < 3; ++i) {
    LaserScan scan = sim.scan(truth, 0.025 * i, rng);
    for (std::size_t j = 0; j < scan.ranges.size(); ++j) {
      if (j % 3 == 0) scan.ranges[j] = std::numeric_limits<float>::quiet_NaN();
      if (j % 3 == 1) scan.ranges[j] = std::numeric_limits<float>::infinity();
    }
    pf.on_scan(scan);
    const Pose2 est = pf.pose();
    ASSERT_TRUE(std::isfinite(est.x) && std::isfinite(est.y) &&
                std::isfinite(est.theta))
        << "scan " << i;
  }
  EXPECT_NEAR(pf.pose().x, truth.x, 1.0);
  EXPECT_NEAR(pf.pose().y, truth.y, 1.0);
}

}  // namespace
}  // namespace srl
