#include "slam/scan_matching.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/angles.hpp"
#include "common/simd.hpp"
#include "gridmap/track_generator.hpp"
#include "range/bresenham.hpp"
#include "sensor/lidar.hpp"
#include "sensor/lidar_sim.hpp"
#include "slam/pure_localization.hpp"

namespace srl {
namespace {

/// Fixture: likelihood field of an oval track + a noiseless scan taken at a
/// known pose, as body-frame points.
struct MatchFixture {
  Track track = TrackGenerator::oval(6.0, 2.0);
  std::shared_ptr<const OccupancyGrid> map =
      std::make_shared<const OccupancyGrid>(track.grid);
  ProbabilityGrid field = ProbabilityGrid::likelihood_field(*map, 0.15);
  LidarConfig lidar{};
  Pose2 truth{0.0, -2.0, 0.0};  // on the bottom straight... but corners
                                // visible, so the pose is observable
  std::vector<Vec2> points;

  MatchFixture() {
    auto caster = std::make_shared<BresenhamCaster>(map, lidar.max_range);
    LidarNoise noise;
    noise.sigma_range = 0.0;
    noise.dropout_prob = 0.0;
    const LidarSim sim{lidar, caster, noise};
    Rng rng{4};
    const LaserScan scan = sim.scan(truth, 0.0, rng);
    points = scan_to_points(scan, lidar, 6);
  }
};

TEST(ScorePose, HigherAtTruth) {
  MatchFixture f;
  const double at_truth = score_pose(f.field, f.truth, f.points);
  const double shifted =
      score_pose(f.field, Pose2{f.truth.x, f.truth.y + 0.4, f.truth.theta},
                 f.points);
  EXPECT_GT(at_truth, 0.5);
  EXPECT_GT(at_truth, shifted + 0.1);
}

TEST(ScorePose, EmptyPointsScoreZero) {
  MatchFixture f;
  EXPECT_DOUBLE_EQ(score_pose(f.field, f.truth, {}), 0.0);
}

TEST(Correlative, RecoversLateralOffset) {
  MatchFixture f;
  const CorrelativeScanMatcher csm{CorrelativeOptions{}};
  const Pose2 seed{f.truth.x, f.truth.y + 0.08, f.truth.theta};
  const ScanMatchResult r = csm.match(f.field, seed, f.points);
  EXPECT_TRUE(r.ok);
  EXPECT_NEAR(r.pose.y, f.truth.y, 0.04);
}

TEST(Correlative, RecoversRotationOffset) {
  MatchFixture f;
  CorrelativeOptions opt;
  opt.angular_window = 0.1;
  const CorrelativeScanMatcher csm{opt};
  const Pose2 seed{f.truth.x, f.truth.y, f.truth.theta + 0.06};
  const ScanMatchResult r = csm.match(f.field, seed, f.points);
  EXPECT_TRUE(r.ok);
  EXPECT_NEAR(angle_dist(r.pose.theta, f.truth.theta), 0.0, 0.03);
}

TEST(Correlative, TieBreaksTowardSeed) {
  // On a flat surface (uniform grid), the best candidate is the seed itself
  // rather than a window corner.
  ProbabilityGrid flat{100, 100, 0.05, Vec2{}};
  for (int y = 0; y < 100; ++y) {
    for (int x = 0; x < 100; ++x) flat.update_hit(x, y);
  }
  const CorrelativeScanMatcher csm{CorrelativeOptions{}};
  const std::vector<Vec2> pts = {{0.5, 0.0}, {0.0, 0.5}, {-0.5, 0.2}};
  const Pose2 seed{2.5, 2.5, 0.3};
  const ScanMatchResult r = csm.match(flat, seed, pts);
  EXPECT_NEAR(r.pose.x, seed.x, 1e-9);
  EXPECT_NEAR(r.pose.y, seed.y, 1e-9);
  EXPECT_NEAR(r.pose.theta, seed.theta, 1e-9);
}

TEST(Correlative, MinScoreGate) {
  MatchFixture f;
  CorrelativeOptions opt;
  opt.min_score = 0.99;  // unreachable
  const CorrelativeScanMatcher csm{opt};
  const ScanMatchResult r = csm.match(f.field, f.truth, f.points);
  EXPECT_FALSE(r.ok);
}

TEST(GaussNewton, SubCellRefinement) {
  MatchFixture f;
  GaussNewtonOptions opt;
  opt.translation_anchor = 0.1;  // nearly free: pure gradient refinement
  opt.rotation_anchor = 0.05;
  const GaussNewtonMatcher gn{opt};
  const Pose2 seed{f.truth.x + 0.04, f.truth.y - 0.05, f.truth.theta + 0.02};
  const ScanMatchResult r = gn.refine(f.field, seed, f.points);
  // The corridor constrains laterally and in heading; the longitudinal
  // direction is weakly observable on a straight, so allow more slack there.
  EXPECT_LT(std::abs(r.pose.y - f.truth.y), 0.04);
  EXPECT_LT(std::hypot(r.pose.x - f.truth.x, r.pose.y - f.truth.y), 0.09);
  EXPECT_LT(angle_dist(r.pose.theta, f.truth.theta), 0.02);
  EXPECT_GE(r.score, score_pose(f.field, seed, f.points) - 1e-6);
}

TEST(GaussNewton, StrongAnchorStaysAtSeed) {
  MatchFixture f;
  GaussNewtonOptions opt;
  opt.translation_anchor = 1e7;
  opt.rotation_anchor = 1e7;
  const GaussNewtonMatcher gn{opt};
  const Pose2 seed{f.truth.x + 0.1, f.truth.y, f.truth.theta};
  const ScanMatchResult r = gn.refine(f.field, seed, f.points);
  EXPECT_NEAR(r.pose.x, seed.x, 1e-3);
  EXPECT_NEAR(r.pose.y, seed.y, 1e-3);
}

TEST(GaussNewton, AnchorSeparateFromStart) {
  // With a flat grid, the solution must return to the ANCHOR even when the
  // iteration starts elsewhere — the degenerate-direction behavior.
  ProbabilityGrid flat{100, 100, 0.05, Vec2{}};
  for (int y = 0; y < 100; ++y) {
    for (int x = 0; x < 100; ++x) flat.update_hit(x, y);
  }
  GaussNewtonOptions opt;
  const GaussNewtonMatcher gn{opt};
  const std::vector<Vec2> pts = {{0.5, 0.0}, {0.0, 0.5}};
  const Pose2 anchor{2.5, 2.5, 0.0};
  const Pose2 start{2.6, 2.4, 0.05};
  const ScanMatchResult r = gn.refine(flat, anchor, start, pts);
  EXPECT_NEAR(r.pose.x, anchor.x, 0.01);
  EXPECT_NEAR(r.pose.y, anchor.y, 0.01);
  EXPECT_NEAR(angle_dist(r.pose.theta, anchor.theta), 0.0, 0.01);
}

TEST(GaussNewton, EmptyPointsReturnsSeed) {
  MatchFixture f;
  const GaussNewtonMatcher gn{GaussNewtonOptions{}};
  const Pose2 seed{1.0, 2.0, 0.5};
  const ScanMatchResult r = gn.refine(f.field, seed, {});
  EXPECT_NEAR(r.pose.x, seed.x, 1e-6);
}

TEST(Pipeline, CsmPlusGnBeatsEither) {
  MatchFixture f;
  const CorrelativeScanMatcher csm{CorrelativeOptions{}};
  GaussNewtonOptions gopt;
  gopt.translation_anchor = 1.0;
  gopt.rotation_anchor = 0.5;
  const GaussNewtonMatcher gn{gopt};
  const Pose2 seed{f.truth.x + 0.1, f.truth.y - 0.08, f.truth.theta + 0.04};
  const ScanMatchResult coarse = csm.match(f.field, seed, f.points);
  const ScanMatchResult fine =
      gn.refine(f.field, seed, coarse.ok ? coarse.pose : seed, f.points);
  // Lateral and heading must be pinned down; longitudinal is corridor-
  // degenerate and may keep part of the seed offset.
  EXPECT_LT(std::abs(fine.pose.y - f.truth.y), 0.05);
  EXPECT_LT(angle_dist(fine.pose.theta, f.truth.theta), 0.02);
  // GN optimizes the anchored objective, so the raw score may dip slightly
  // below the unanchored correlative optimum.
  EXPECT_GE(fine.score + 0.01, coarse.score);
}


// ---------------------------------------------------------------------------
// Differential tests: both matchers against the loops they replaced
// ---------------------------------------------------------------------------

/// The matchers as they were before the per-angle axis tables: one full
/// bilinear interpolation per (candidate, point). Test-only reference; the
/// library's scalar and AVX2 paths must reproduce it bit for bit.
namespace oracle {

/// Cells floor through `floor_to_cell`, so a point far off the grid lands on
/// its +-1e9 sentinel cell instead of an undefined int cast.
double interpolate(const ProbabilityGrid& grid, const Vec2& w) {
  if (grid.width() < 2 || grid.height() < 2) return grid.probability(0, 0);
  const double gx = (w.x - grid.origin().x) / grid.resolution() - 0.5;
  const double gy = (w.y - grid.origin().y) / grid.resolution() - 0.5;
  const int x0 = floor_to_cell(gx);
  const int y0 = floor_to_cell(gy);
  const double tx = gx - x0;
  const double ty = gy - y0;
  const double d00 = grid.probability(x0, y0);
  const double d10 = grid.probability(x0 + 1, y0);
  const double d01 = grid.probability(x0, y0 + 1);
  const double d11 = grid.probability(x0 + 1, y0 + 1);
  const double top = d00 + tx * (d10 - d00);
  const double bot = d01 + tx * (d11 - d01);
  return top + ty * (bot - top);
}

double score_pose(const ProbabilityGrid& grid, const Pose2& pose,
                  const std::vector<Vec2>& points) {
  if (points.empty()) return 0.0;
  double sum = 0.0;
  for (const Vec2& p : points) sum += interpolate(grid, pose.transform(p));
  return sum / static_cast<double>(points.size());
}

ScanMatchResult match(const CorrelativeOptions& options,
                      const ProbabilityGrid& grid, const Pose2& seed,
                      const std::vector<Vec2>& points) {
  ScanMatchResult best;
  best.pose = seed;
  best.score = -1.0;
  const int n_ang = std::max(
      1, static_cast<int>(std::round(options.angular_window /
                                     options.angular_step)));
  const int n_lin = std::max(
      1, static_cast<int>(std::round(options.linear_window /
                                     options.linear_step)));
  constexpr double kTieBreak = 2e-3;
  double best_penalized = -1.0;
  std::vector<Vec2> rotated(points.size());
  for (int ia = -n_ang; ia <= n_ang; ++ia) {
    const double theta =
        normalize_angle(seed.theta + ia * options.angular_step);
    const double c = std::cos(theta);
    const double s = std::sin(theta);
    for (std::size_t i = 0; i < points.size(); ++i) {
      rotated[i] = {c * points[i].x - s * points[i].y,
                    s * points[i].x + c * points[i].y};
    }
    const double ang_frac = static_cast<double>(ia) / std::max(n_ang, 1);
    for (int iy = -n_lin; iy <= n_lin; ++iy) {
      for (int ix = -n_lin; ix <= n_lin; ++ix) {
        const double tx = seed.x + ix * options.linear_step;
        const double ty = seed.y + iy * options.linear_step;
        double sum = 0.0;
        for (const Vec2& p : rotated) {
          sum += interpolate(grid, {tx + p.x, ty + p.y});
        }
        const double score =
            points.empty() ? 0.0 : sum / static_cast<double>(points.size());
        const double lin_frac_sq =
            (static_cast<double>(ix) * ix + static_cast<double>(iy) * iy) /
            (static_cast<double>(n_lin) * n_lin + 1e-9);
        const double penalized =
            score - kTieBreak * (lin_frac_sq + ang_frac * ang_frac);
        if (penalized > best_penalized) {
          best_penalized = penalized;
          best.score = score;
          best.pose = Pose2{tx, ty, theta};
        }
      }
    }
  }
  best.ok = best.score >= options.min_score;
  return best;
}

ScanMatchResult refine(const GaussNewtonOptions& options,
                       const ProbabilityGrid& grid, const Pose2& anchor,
                       const Pose2& start, const std::vector<Vec2>& points) {
  Pose2 est = start;
  const Pose2& seed = anchor;
  const double res = grid.resolution();
  const double inv_n =
      points.empty() ? 0.0 : 1.0 / static_cast<double>(points.size());
  for (int it = 0; it < options.max_iterations; ++it) {
    double h[3][3] = {{0.0}};
    double b[3] = {0.0, 0.0, 0.0};
    const double c = std::cos(est.theta);
    const double s = std::sin(est.theta);
    for (const Vec2& p : points) {
      const Vec2 w = est.transform(p);
      const double pc = interpolate(grid, w);
      const double gx = (interpolate(grid, {w.x + 0.5 * res, w.y}) -
                         interpolate(grid, {w.x - 0.5 * res, w.y})) /
                        res;
      const double gy = (interpolate(grid, {w.x, w.y + 0.5 * res}) -
                         interpolate(grid, {w.x, w.y - 0.5 * res})) /
                        res;
      const double dxt = -s * p.x - c * p.y;
      const double dyt = c * p.x - s * p.y;
      const double jt = gx * dxt + gy * dyt;
      const double r = 1.0 - pc;
      const double j[3] = {-gx, -gy, -jt};
      for (int a = 0; a < 3; ++a) {
        b[a] += -j[a] * r * inv_n;
        for (int bb = 0; bb < 3; ++bb) h[a][bb] += j[a] * j[bb] * inv_n;
      }
    }
    const double wt = options.translation_anchor;
    const double wr = options.rotation_anchor;
    h[0][0] += wt;
    h[1][1] += wt;
    h[2][2] += wr;
    b[0] += -wt * (est.x - seed.x);
    b[1] += -wt * (est.y - seed.y);
    b[2] += -wr * angle_diff(est.theta, seed.theta);
    for (int a = 0; a < 3; ++a) h[a][a] += options.damping;
    double m[3][4] = {{h[0][0], h[0][1], h[0][2], b[0]},
                      {h[1][0], h[1][1], h[1][2], b[1]},
                      {h[2][0], h[2][1], h[2][2], b[2]}};
    bool singular = false;
    for (int col = 0; col < 3; ++col) {
      int piv = col;
      for (int r2 = col + 1; r2 < 3; ++r2) {
        if (std::abs(m[r2][col]) > std::abs(m[piv][col])) piv = r2;
      }
      if (std::abs(m[piv][col]) < 1e-12) {
        singular = true;
        break;
      }
      std::swap(m[piv], m[col]);
      for (int r2 = 0; r2 < 3; ++r2) {
        if (r2 == col) continue;
        const double f = m[r2][col] / m[col][col];
        for (int c2 = col; c2 < 4; ++c2) m[r2][c2] -= f * m[col][c2];
      }
    }
    if (singular) break;
    const double dx = m[0][3] / m[0][0];
    const double dy = m[1][3] / m[1][1];
    const double dt = m[2][3] / m[2][2];
    est.x += dx;
    est.y += dy;
    est.theta = normalize_angle(est.theta + dt);
    if (dx * dx + dy * dy + dt * dt <
        options.converge_eps * options.converge_eps) {
      break;
    }
  }
  ScanMatchResult out;
  out.pose = est;
  out.score = score_pose(grid, est, points);
  out.ok = true;
  return out;
}

}  // namespace oracle

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

::testing::AssertionResult BitwiseEqual(const ScanMatchResult& got,
                                        const ScanMatchResult& want) {
  if (same_bits(got.pose.x, want.pose.x) &&
      same_bits(got.pose.y, want.pose.y) &&
      same_bits(got.pose.theta, want.pose.theta) &&
      same_bits(got.score, want.score) && got.ok == want.ok) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << "got (" << got.pose.x << ", " << got.pose.y << ", "
         << got.pose.theta << ") score " << got.score << " ok " << got.ok
         << ", want (" << want.pose.x << ", " << want.pose.y << ", "
         << want.pose.theta << ") score " << want.score << " ok " << want.ok;
}

/// The three correlative windows of CartoLite: local (5 x 5 translation
/// candidates), global (15 x 15) and reloc (41 x 41). On a 5 cm grid their
/// steps are 0.6, 1 and 1.2 cells, so the AVX2 rows run in passes of up to
/// 8, 7 and 6 lanes, and the last pass of a row takes what is left: 5, 1
/// and 5 lanes.
std::vector<std::pair<std::string, CorrelativeOptions>> carto_windows() {
  const PureLocalizationOptions o;
  return {{"local", o.local_csm},
          {"global", o.global_csm},
          {"reloc", o.reloc_csm}};
}

/// A live-submap-like grid: a small window of the oval, evidence from one
/// scan, most cells never touched (unknown), and scan points that reach
/// well beyond its border.
ProbabilityGrid partial_submap(const MatchFixture& f) {
  ProbabilityGrid g{90, 70, 0.05, Vec2{f.truth.x - 2.0, f.truth.y - 1.5}};
  std::vector<Vec2> hits;
  for (const Vec2& p : f.points) hits.push_back(f.truth.transform(p));
  g.insert_scan(f.truth, hits);
  return g;
}

ProbabilityGrid uniform_grid(int width, int height) {
  ProbabilityGrid g{width, height, 0.05, Vec2{}};
  for (int y = 0; y < height; ++y) {
    for (int x = 0; x < width; ++x) g.update_hit(x, y);
  }
  return g;
}

/// Every point subset the cases use: the full fixture scan, and a sparser
/// one that keeps the 41 x 41 reloc oracle cheap under the sanitizers.
std::vector<Vec2> every_nth(const std::vector<Vec2>& points, std::size_t n) {
  std::vector<Vec2> out;
  for (std::size_t i = 0; i < points.size(); i += n) out.push_back(points[i]);
  return out;
}

/// Runs each case on one SIMD backend, pinned for the test's duration.
class MatcherBackend : public ::testing::TestWithParam<simd::Backend> {
 protected:
  void SetUp() override {
    if (GetParam() == simd::Backend::kAvx2 && !simd::cpu_has_avx2()) {
      GTEST_SKIP() << "host CPU lacks AVX2; only the scalar half runs";
    }
    simd::force(GetParam());
  }
  void TearDown() override { simd::reset(); }

  /// match() on one window against the oracle.
  static void expect_match_bits(const CorrelativeOptions& options,
                                const ProbabilityGrid& grid, const Pose2& seed,
                                const std::vector<Vec2>& points,
                                const std::string& name) {
    EXPECT_TRUE(
        BitwiseEqual(CorrelativeScanMatcher{options}.match(grid, seed, points),
                     oracle::match(options, grid, seed, points)))
        << name << " window, " << points.size() << " points";
  }

  /// match() and refine() on every CartoLite window against the oracle.
  static void expect_oracle_bits(const ProbabilityGrid& grid,
                                 const Pose2& seed,
                                 const std::vector<Vec2>& points) {
    for (const auto& [name, options] : carto_windows()) {
      expect_match_bits(options, grid, seed, points, name);
    }
    const PureLocalizationOptions o;
    GaussNewtonOptions loose = o.gn;
    loose.translation_anchor = 0.2;
    loose.rotation_anchor = 0.1;
    for (const GaussNewtonOptions& gn : {o.gn, loose}) {
      const Pose2 start{seed.x + 0.03, seed.y - 0.02, seed.theta + 0.01};
      EXPECT_TRUE(BitwiseEqual(
          GaussNewtonMatcher{gn}.refine(grid, seed, start, points),
          oracle::refine(gn, grid, seed, start, points)))
          << "refine, translation anchor " << gn.translation_anchor << ", "
          << points.size() << " points";
    }
  }
};

TEST_P(MatcherBackend, LikelihoodFieldMatchesOracle) {
  const MatchFixture f;
  const std::vector<Vec2> sparse = every_nth(f.points, 3);
  expect_oracle_bits(f.field, Pose2{f.truth.x + 0.05, f.truth.y - 0.04,
                                    f.truth.theta + 0.03},
                     sparse);
}

TEST_P(MatcherBackend, UnknownCellsAndPointsBeyondTheBorder) {
  const MatchFixture f;
  const ProbabilityGrid submap = partial_submap(f);
  ASSERT_LT(submap.known_cells(),
            static_cast<std::size_t>(submap.width() * submap.height()));
  const std::vector<Vec2> sparse = every_nth(f.points, 3);
  // Seeds in the middle of the window and on its left and bottom edges, so
  // candidate rows and columns straddle the border.
  for (const Pose2& seed :
       {Pose2{f.truth.x + 0.02, f.truth.y + 0.01, f.truth.theta - 0.02},
        Pose2{f.truth.x - 2.0, f.truth.y, 0.4},
        Pose2{f.truth.x, f.truth.y - 1.5, -0.7}}) {
    expect_oracle_bits(submap, seed, sparse);
  }
}

TEST_P(MatcherBackend, SeedOutsideTheGrid) {
  const MatchFixture f;
  const std::vector<Vec2> sparse = every_nth(f.points, 3);
  const Vec2 far = f.field.origin() - Vec2{3.0, 1.0};
  expect_oracle_bits(f.field, Pose2{far.x, far.y, 1.1}, sparse);
}

TEST_P(MatcherBackend, FlatPlateauReturnsTheSeed) {
  const ProbabilityGrid flat = uniform_grid(100, 100);
  const std::vector<Vec2> pts = {{0.5, 0.0}, {0.0, 0.5}, {-0.5, 0.2}};
  const Pose2 seed{2.5, 2.5, 0.3};
  expect_oracle_bits(flat, seed, pts);
  for (const auto& [name, options] : carto_windows()) {
    const ScanMatchResult r =
        CorrelativeScanMatcher{options}.match(flat, seed, pts);
    EXPECT_TRUE(same_bits(r.pose.x, seed.x) && same_bits(r.pose.y, seed.y) &&
                same_bits(r.pose.theta, seed.theta))
        << name << " window left the seed on a flat plateau";
  }
}

TEST_P(MatcherBackend, GridOneCellWide) {
  ProbabilityGrid strip{1, 40, 0.05, Vec2{}};
  for (int y = 0; y < 40; y += 3) strip.update_hit(0, y);
  const std::vector<Vec2> pts = {{0.0, 0.3}, {0.1, -0.2}, {0.0, 0.9}};
  expect_oracle_bits(strip, Pose2{0.025, 1.0, 0.0}, pts);
}

TEST_P(MatcherBackend, EmptyPointSet) {
  const MatchFixture f;
  expect_oracle_bits(f.field, f.truth, {});
  const ScanMatchResult r =
      CorrelativeScanMatcher{CorrelativeOptions{}}.match(f.field, f.truth, {});
  EXPECT_TRUE(same_bits(r.pose.x, f.truth.x) && same_bits(r.pose.y, f.truth.y));
  EXPECT_EQ(r.score, 0.0);
}

/// A grid whose cells differ from their neighbours and from the
/// out-of-bounds value: one to three hits, a miss or no evidence at all
/// (unknown) in a fixed pattern, so that reading a wrong cell changes a sum.
ProbabilityGrid patterned_grid(int width, int height) {
  ProbabilityGrid g{width, height, 0.05, Vec2{-1.0, -0.5}};
  for (int y = 0; y < height; ++y) {
    for (int x = 0; x < width; ++x) {
      const int k = (x * 7 + y * 13) % 11;
      for (int u = 0; u < k % 4; ++u) g.update_hit(x, y);
      if (k >= 6) g.update_miss(x, y);
    }
  }
  return g;
}

/// 24 points on rings of 0.2-0.4 m around the body.
std::vector<Vec2> ring_points() {
  std::vector<Vec2> out;
  for (int j = 0; j < 24; ++j) {
    const double a = j * 2.0 * kPi / 24.0;
    const double r = 0.2 + 0.05 * (j % 5);
    out.push_back({r * std::cos(a), r * std::sin(a)});
  }
  return out;
}

// The AVX2 row pass loads a point's eight cells from each of its two grid
// rows, starting at its first lane's x cell, where that window lies inside
// the grid; elsewhere it gathers. Seeds a few cells inside the right and top
// edges put many points' windows across the right edge and their upper row
// off the grid, next to points whose windows fit.
TEST_P(MatcherBackend, WindowsCrossingTheRightAndTopEdges) {
  const ProbabilityGrid g = patterned_grid(60, 50);
  const double right = g.origin().x + g.width() * g.resolution();
  const double top = g.origin().y + g.height() * g.resolution();
  for (const Pose2& seed : {Pose2{right - 0.12, 0.6, 0.1},
                            Pose2{0.4, top - 0.07, 1.4},
                            Pose2{right - 0.3, top - 0.2, 2.3}}) {
    expect_oracle_bits(g, seed, ring_points());
  }
}

// A negative step walks the window backwards, so a pass's x cells fall from
// its first lane's and leave the window: every point gathers.
TEST_P(MatcherBackend, NegativeStep) {
  const ProbabilityGrid g = patterned_grid(60, 50);
  CorrelativeOptions backwards;
  backwards.linear_step = -0.03;
  expect_match_bits(backwards, g, Pose2{0.5, 0.7, 0.2}, ring_points(),
                    "negative step");
}

// A two-cell linear step (a loop-closure-scale search): each pass narrows
// to four lanes, whose eight cells fit the window; the windows of 7 and 11
// candidates end in passes of three.
TEST_P(MatcherBackend, LoopClosureStep) {
  const MatchFixture f;
  const std::vector<Vec2> sparse = every_nth(f.points, 3);
  CorrelativeOptions wide;
  wide.linear_step = 2.0 * f.field.resolution();
  wide.angular_window = 0.04;
  wide.angular_step = 0.02;
  const Pose2 seed{f.truth.x + 0.05, f.truth.y - 0.04, f.truth.theta + 0.03};
  for (const double window : {0.3, 0.5}) {
    wide.linear_window = window;
    expect_match_bits(wide, f.field, seed, sparse, "two-cell step");
  }
  // A step of seven cells leaves one lane per pass.
  wide.linear_step = 7.0 * f.field.resolution();
  wide.linear_window = 3.0 * wide.linear_step;
  expect_match_bits(wide, f.field, seed, sparse, "seven-cell step");
}

// Fewer than eight cells per row: no window fits, every point gathers.
TEST_P(MatcherBackend, GridNarrowerThanEightCells) {
  ProbabilityGrid narrow{6, 50, 0.05, Vec2{-0.1, -1.0}};
  for (int y = 0; y < 50; y += 2) narrow.update_hit(y % 6, y);
  for (int y = 1; y < 50; y += 5) narrow.update_miss(5 - y % 6, y);
  const std::vector<Vec2> pts = {{0.05, 0.3},  {-0.1, -0.2}, {0.12, 0.9},
                                 {0.0, -0.6},  {0.2, 0.1},   {-0.15, 0.45},
                                 {0.08, -0.9}, {0.3, 0.0},   {-0.3, 0.2}};
  expect_oracle_bits(narrow, Pose2{0.05, 0.1, 0.05}, pts);
}

// One to nine points: the four-point Gauss-Newton pass meets every
// remainder, and the table fill's last pass of every row every overhang.
TEST_P(MatcherBackend, EveryPointCountFromOneToNine) {
  const MatchFixture f;
  const std::vector<Vec2> sparse = every_nth(f.points, 7);
  ASSERT_GE(sparse.size(), 9U);
  const Pose2 seed{f.truth.x + 0.04, f.truth.y + 0.03, f.truth.theta - 0.02};
  for (std::size_t n = 1; n <= 9; ++n) {
    expect_oracle_bits(
        f.field, seed,
        std::vector<Vec2>(sparse.begin(),
                          sparse.begin() + static_cast<std::ptrdiff_t>(n)));
  }
}

// Points millions of kilometres away floor to the +-1e9 sentinel cells and
// read the out-of-bounds value, mixed with points on the grid.
TEST_P(MatcherBackend, PointsFarOutsideTheGrid) {
  const MatchFixture f;
  std::vector<Vec2> pts = every_nth(f.points, 9);
  pts.insert(pts.begin() + 2, Vec2{1e12, 3.0});
  pts.insert(pts.begin() + 5, Vec2{-4e11, -2e10});
  pts.push_back({0.5, 7e15});
  pts.push_back({-1e14, 0.0});
  expect_oracle_bits(f.field, Pose2{f.truth.x, f.truth.y, f.truth.theta + 0.02},
                     pts);
}

INSTANTIATE_TEST_SUITE_P(Backends, MatcherBackend,
                         ::testing::Values(simd::Backend::kScalar,
                                           simd::Backend::kAvx2),
                         [](const auto& info) {
                           return std::string{simd::name(info.param)};
                         });

}  // namespace
}  // namespace srl
