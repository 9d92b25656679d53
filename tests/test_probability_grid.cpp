#include "slam/probability_grid.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "gridmap/track_generator.hpp"

namespace srl {
namespace {

TEST(ProbabilityGrid, UnknownByDefault) {
  ProbabilityGrid g{10, 10, 0.05, Vec2{}};
  EXPECT_FALSE(g.known(3, 3));
  EXPECT_FLOAT_EQ(g.probability(3, 3), ProbabilityGrid::kUnknownMatchP);
  EXPECT_EQ(g.known_cells(), 0U);
}

TEST(ProbabilityGrid, HitRaisesMissLowers) {
  ProbabilityGrid g{10, 10, 0.05, Vec2{}};
  g.update_hit(2, 2);
  EXPECT_TRUE(g.known(2, 2));
  EXPECT_GT(g.probability(2, 2), 0.5F);
  g.update_miss(3, 3);
  EXPECT_LT(g.probability(3, 3), 0.5F);
}

TEST(ProbabilityGrid, RepeatedHitsSaturate) {
  ProbabilityGrid g{4, 4, 0.05, Vec2{}};
  for (int i = 0; i < 200; ++i) g.update_hit(1, 1);
  const float p = g.probability(1, 1);
  EXPECT_GT(p, 0.9F);
  EXPECT_LE(p, 1.0F);
  for (int i = 0; i < 400; ++i) g.update_miss(1, 1);
  EXPECT_LT(g.probability(1, 1), 0.1F);
  EXPECT_GT(g.probability(1, 1), 0.0F);
}

TEST(ProbabilityGrid, HitBeatsMissPerScan) {
  // A cell grazed and then hit within one scan nets positive evidence.
  ProbabilityGrid g{40, 3, 0.1, Vec2{}};
  const Pose2 sensor{0.05, 0.15, 0.0};
  const Vec2 hit{2.05, 0.15};
  g.insert_scan(sensor, std::vector<Vec2>{hit});
  const GridIndex h = g.world_to_grid(hit);
  EXPECT_GT(g.probability(h.ix, h.iy), 0.5F);
}

TEST(ProbabilityGrid, InsertScanTracesMisses) {
  ProbabilityGrid g{40, 3, 0.1, Vec2{}};
  const Pose2 sensor{0.05, 0.15, 0.0};
  const Vec2 hit{3.05, 0.15};
  g.insert_scan(sensor, std::vector<Vec2>{hit});
  // Cells strictly between sensor and hit are misses.
  for (double x = 0.35; x < 2.8; x += 0.3) {
    const GridIndex c = g.world_to_grid({x, 0.15});
    EXPECT_TRUE(g.known(c.ix, c.iy)) << x;
    EXPECT_LT(g.probability(c.ix, c.iy), 0.5F) << x;
  }
}

TEST(ProbabilityGrid, InterpolationSmooth) {
  ProbabilityGrid g{10, 10, 0.1, Vec2{}};
  for (int i = 0; i < 50; ++i) g.update_hit(5, 5);
  const Vec2 peak = g.grid_to_world(5, 5);
  const double at_peak = g.interpolate(peak);
  const double off = g.interpolate(peak + Vec2{0.05, 0.0});
  EXPECT_GT(at_peak, off);
  EXPECT_GT(off, g.interpolate(peak + Vec2{0.1, 0.0}) - 1e-9);
}

TEST(LikelihoodField, PeaksAtWallsDecaysAway) {
  const Track track = TrackGenerator::oval(5.0, 1.8);
  const ProbabilityGrid field =
      ProbabilityGrid::likelihood_field(track.grid, 0.2, 0.05, 0.95);
  // Find a wall cell and a corridor-center cell.
  double wall_p = 0.0;
  double free_p = 1.0;
  for (int iy = 0; iy < track.grid.height(); ++iy) {
    for (int ix = 0; ix < track.grid.width(); ++ix) {
      if (track.grid.at(ix, iy) == OccupancyGrid::kOccupied) {
        wall_p = std::max(wall_p, static_cast<double>(field.probability(ix, iy)));
      }
    }
  }
  const Vec2 center = track.centerline.front();
  free_p = field.interpolate(center);
  EXPECT_GT(wall_p, 0.9);
  EXPECT_LT(free_p, 0.2);
}

TEST(LikelihoodField, UnknownStaysLow) {
  const Track track = TrackGenerator::oval(5.0, 1.8);
  const ProbabilityGrid field =
      ProbabilityGrid::likelihood_field(track.grid, 0.2, 0.05, 0.95);
  // A far-corner cell is unknown in the track map.
  EXPECT_EQ(track.grid.at(0, 0), OccupancyGrid::kUnknown);
  EXPECT_NEAR(field.probability(0, 0), 0.05F, 1e-5);
}

TEST(ProbabilityGrid, NonFinitePointsMapOutOfBounds) {
  ProbabilityGrid g{4, 4, 0.1, Vec2{}};
  const double nan = std::nan("");
  for (const Vec2& w : {Vec2{nan, 0.2}, Vec2{0.2, nan}, Vec2{1e300, 0.2},
                        Vec2{0.2, -HUGE_VAL}}) {
    const GridIndex c = g.world_to_grid(w);
    EXPECT_FALSE(g.in_bounds(c.ix, c.iy)) << w.x << ", " << w.y;
    EXPECT_FALSE(g.in_bounds(g.axis_x(w.x).cell, g.axis_y(w.y).cell));
  }
}

TEST(ProbabilityGrid, AxisHalvesBracketTheSampleSites) {
  ProbabilityGrid g{10, 10, 0.25, Vec2{-0.5, 1.0}};
  // Cell centers are the sample sites: x = -0.375 is site 0, x = -0.25 is
  // halfway to site 1.
  EXPECT_EQ(g.axis_x(-0.375).cell, 0);
  EXPECT_EQ(g.axis_x(-0.375).frac, 0.0);
  EXPECT_EQ(g.axis_x(-0.25).cell, 0);
  EXPECT_EQ(g.axis_x(-0.25).frac, 0.5);
  EXPECT_EQ(g.axis_y(0.9).cell, -1);  // below the first site
  EXPECT_NEAR(g.axis_y(0.9).frac, 0.1, 1e-12);
  for (int i = 0; i < 30; ++i) g.update_hit(3, 4);
  const Vec2 w{-0.1234, 1.4321};
  EXPECT_EQ(g.interpolate(w), g.combine(g.axis_x(w.x), g.axis_y(w.y)));
}

TEST(ProbabilityGrid, OutOfBoundsPessimistic) {
  ProbabilityGrid g{4, 4, 0.1, Vec2{}};
  EXPECT_LT(g.probability(-1, 0), 0.2F);
  EXPECT_LT(g.interpolate({-5.0, -5.0}), 0.2);
}

}  // namespace
}  // namespace srl
