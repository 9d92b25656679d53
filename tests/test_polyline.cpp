#include "common/polyline.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <vector>

#include "common/angles.hpp"
#include "common/rng.hpp"

namespace srl {
namespace {

std::vector<Vec2> circle(double r, int n) {
  std::vector<Vec2> pts;
  for (int i = 0; i < n; ++i) {
    const double a = kTwoPi * i / n;
    pts.emplace_back(r * std::cos(a), r * std::sin(a));
  }
  return pts;
}

TEST(Polyline, LengthOpenAndClosed) {
  const std::vector<Vec2> square = {{0, 0}, {1, 0}, {1, 1}, {0, 1}};
  EXPECT_DOUBLE_EQ(polyline_length(square, false), 3.0);
  EXPECT_DOUBLE_EQ(polyline_length(square, true), 4.0);
  EXPECT_DOUBLE_EQ(polyline_length({}, true), 0.0);
  EXPECT_DOUBLE_EQ(polyline_length({{1, 1}}, true), 0.0);
}

TEST(Polyline, CircleLengthApproximation) {
  const auto c = circle(2.0, 256);
  EXPECT_NEAR(polyline_length(c, true), kTwoPi * 2.0, 0.01);
}

TEST(ResampleClosed, UniformSpacing) {
  const auto c = circle(1.0, 64);
  const auto r = resample_closed(c, 0.1);
  ASSERT_GE(r.size(), 3U);
  const double total = polyline_length(r, true);
  const double expected_ds = total / static_cast<double>(r.size());
  for (std::size_t i = 0; i < r.size(); ++i) {
    const double ds = distance(r[i], r[(i + 1) % r.size()]);
    EXPECT_NEAR(ds, expected_ds, 0.25 * expected_ds);
  }
}

TEST(ResampleClosed, PreservesShapeOnCircle) {
  const auto r = resample_closed(circle(3.0, 100), 0.2);
  for (const Vec2& p : r) EXPECT_NEAR(p.norm(), 3.0, 0.02);
}

TEST(ResampleClosed, RejectsSampleCountBeyondInt) {
  const std::vector<Vec2> far{{0.0, 0.0}, {1e12, 0.0}, {5e11, 4.0}};
  EXPECT_THROW((void)resample_closed(far, 0.1), std::invalid_argument);
  EXPECT_THROW((void)resample_closed(circle(1.0, 16), 1e-300),
               std::invalid_argument);
  EXPECT_THROW((void)resample_closed(circle(1.0, 16), std::nan("")),
               std::invalid_argument);
  EXPECT_EQ(resample_closed(far, 1e9).size(), 2000U);
}

TEST(ResampleOpen, EndpointsPreserved) {
  const std::vector<Vec2> line = {{0, 0}, {1, 0}, {4, 0}};
  const auto r = resample_open(line, 7);
  ASSERT_EQ(r.size(), 7U);
  EXPECT_NEAR(r.front().x, 0.0, 1e-9);
  EXPECT_NEAR(r.back().x, 4.0, 1e-9);
  for (std::size_t i = 1; i < r.size(); ++i) {
    EXPECT_NEAR(r[i].x - r[i - 1].x, 4.0 / 6.0, 1e-9);
  }
}

TEST(Chaikin, DoublesPointsAndSmooths) {
  const std::vector<Vec2> square = {{0, 0}, {4, 0}, {4, 4}, {0, 4}};
  const auto s1 = chaikin_closed(square, 1);
  EXPECT_EQ(s1.size(), 8U);
  // Smoothing reduces the maximum discrete curvature of the square corner.
  const auto k0 = curvature_closed(resample_closed(square, 0.2));
  const auto k3 = curvature_closed(resample_closed(chaikin_closed(square, 3), 0.2));
  double max0 = 0.0;
  double max3 = 0.0;
  for (double k : k0) max0 = std::max(max0, std::abs(k));
  for (double k : k3) max3 = std::max(max3, std::abs(k));
  EXPECT_LT(max3, max0);
}

TEST(Curvature, CircleHasConstantCurvature) {
  const double r = 2.5;
  const auto k = curvature_closed(circle(r, 128));
  for (double ki : k) EXPECT_NEAR(ki, 1.0 / r, 0.01);
}

TEST(Curvature, SignFollowsOrientation) {
  auto ccw = circle(1.0, 32);
  auto cw = ccw;
  std::reverse(cw.begin(), cw.end());
  EXPECT_GT(curvature_closed(ccw)[5], 0.0);
  EXPECT_LT(curvature_closed(cw)[5], 0.0);
}

TEST(Curvature, StraightSegmentsAreZero) {
  const std::vector<Vec2> rect = {{0, 0}, {1, 0}, {2, 0}, {3, 0},
                                  {3, 1}, {2, 1}, {1, 1}, {0, 1}};
  const auto k = curvature_closed(rect);
  EXPECT_NEAR(k[1], 0.0, 1e-9);  // mid-edge vertex
  EXPECT_NEAR(k[2], 0.0, 1e-9);
}

TEST(SignedArea, OrientationAndMagnitude) {
  const std::vector<Vec2> ccw = {{0, 0}, {2, 0}, {2, 3}, {0, 3}};
  EXPECT_DOUBLE_EQ(signed_area(ccw), 6.0);
  std::vector<Vec2> cw = ccw;
  std::reverse(cw.begin(), cw.end());
  EXPECT_DOUBLE_EQ(signed_area(cw), -6.0);
}

/// Property: resampling random star-shaped polygons keeps total length and
/// stays near the original shape.
class ResampleProperty : public ::testing::TestWithParam<int> {};

TEST_P(ResampleProperty, LengthPreserved) {
  Rng rng{static_cast<std::uint64_t>(GetParam())};
  std::vector<Vec2> poly;
  const int n = 12;
  for (int i = 0; i < n; ++i) {
    const double a = kTwoPi * i / n;
    const double r = rng.uniform(2.0, 4.0);
    poly.emplace_back(r * std::cos(a), r * std::sin(a));
  }
  const double len0 = polyline_length(poly, true);
  const auto r = resample_closed(poly, 0.05);
  EXPECT_NEAR(polyline_length(r, true), len0, 0.02 * len0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ResampleProperty, ::testing::Range(1, 8));

}  // namespace
}  // namespace srl
