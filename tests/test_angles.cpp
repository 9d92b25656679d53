#include "common/angles.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "common/rng.hpp"
#include "reference_math.hpp"

namespace srl {
namespace {

TEST(Angles, NormalizeIdentityInRange) {
  EXPECT_DOUBLE_EQ(normalize_angle(0.0), 0.0);
  EXPECT_DOUBLE_EQ(normalize_angle(1.0), 1.0);
  EXPECT_DOUBLE_EQ(normalize_angle(-1.0), -1.0);
  EXPECT_DOUBLE_EQ(normalize_angle(3.0), 3.0);
}

TEST(Angles, NormalizeWraps) {
  EXPECT_NEAR(normalize_angle(kTwoPi), 0.0, 1e-12);
  EXPECT_NEAR(normalize_angle(-kTwoPi), 0.0, 1e-12);
  EXPECT_NEAR(normalize_angle(kPi + 0.1), -kPi + 0.1, 1e-12);
  EXPECT_NEAR(normalize_angle(-kPi - 0.1), kPi - 0.1, 1e-12);
  EXPECT_NEAR(normalize_angle(5.0 * kTwoPi + 0.3), 0.3, 1e-9);
}

TEST(Angles, HalfOpenIntervalConvention) {
  // Result must lie in (-pi, pi]: +pi maps to itself, -pi to +pi.
  EXPECT_DOUBLE_EQ(normalize_angle(kPi), kPi);
  EXPECT_DOUBLE_EQ(normalize_angle(-kPi), kPi);
}

TEST(Angles, DiffIsShortestArc) {
  EXPECT_NEAR(angle_diff(0.1, -0.1), 0.2, 1e-12);
  EXPECT_NEAR(angle_diff(-0.1, 0.1), -0.2, 1e-12);
  // Crossing the wrap: 179 deg to -179 deg is a 2 deg move.
  EXPECT_NEAR(angle_diff(deg2rad(-179.0), deg2rad(179.0)), deg2rad(2.0),
              1e-12);
}

TEST(Angles, DistSymmetricNonNegative) {
  EXPECT_NEAR(angle_dist(deg2rad(170.0), deg2rad(-170.0)), deg2rad(20.0),
              1e-12);
  EXPECT_NEAR(angle_dist(deg2rad(-170.0), deg2rad(170.0)), deg2rad(20.0),
              1e-12);
  EXPECT_GE(angle_dist(2.1, -2.9), 0.0);
}

TEST(Angles, Deg2RadRoundTrip) {
  for (double d = -720.0; d <= 720.0; d += 37.0) {
    EXPECT_NEAR(rad2deg(deg2rad(d)), d, 1e-9);
  }
}

TEST(Angles, LerpShortestPath) {
  EXPECT_NEAR(angle_lerp(0.0, 1.0, 0.5), 0.5, 1e-12);
  // Interpolating across the wrap goes the short way.
  const double a = deg2rad(170.0);
  const double b = deg2rad(-170.0);
  EXPECT_NEAR(angle_lerp(a, b, 0.5), kPi, 1e-9);
  EXPECT_NEAR(angle_lerp(a, b, 0.0), a, 1e-12);
  EXPECT_NEAR(angle_lerp(a, b, 1.0), normalize_angle(b), 1e-9);
}

TEST(WrapInto, IdentityInRange) {
  EXPECT_DOUBLE_EQ(wrap_into(0.0, kTwoPi), 0.0);
  EXPECT_DOUBLE_EQ(wrap_into(1.5, kTwoPi), 1.5);
  EXPECT_DOUBLE_EQ(wrap_into(kTwoPi - 1e-9, kTwoPi), kTwoPi - 1e-9);
}

TEST(WrapInto, FastPathsMatchFmod) {
  // One turn below / above the range (the hot-path branches).
  EXPECT_NEAR(wrap_into(-0.3, kTwoPi), kTwoPi - 0.3, 1e-12);
  EXPECT_NEAR(wrap_into(kTwoPi + 0.3, kTwoPi), 0.3, 1e-12);
  EXPECT_NEAR(wrap_into(-kPi, kTwoPi), kPi, 1e-12);
}

TEST(WrapInto, ArbitraryMagnitudeStaysInRange) {
  // Regression: the old per-backend `while (phi < 0) phi += 2pi;` loops ran
  // O(|phi|) iterations and never terminated for non-finite input.
  for (double a : {1e9, -1e9, 7.25e15, -7.25e15, 123456.789, -123456.789}) {
    const double w = wrap_into(a, kTwoPi);
    EXPECT_GE(w, 0.0) << a;
    EXPECT_LT(w, kTwoPi) << a;
    // The mod-consistency check needs `a - w` to be representable; above
    // ~2^52 the ulp of `a` exceeds the period and the check is meaningless.
    if (std::abs(a) < 1e12) {
      EXPECT_NEAR(std::remainder(a - w, kTwoPi), 0.0, 1e-6) << a;
    }
  }
}

TEST(WrapInto, HalfTurnPeriod) {
  // CDDT folds headings into [0, pi).
  EXPECT_NEAR(wrap_into(kPi + 0.2, kPi), 0.2, 1e-12);
  EXPECT_NEAR(wrap_into(-0.2, kPi), kPi - 0.2, 1e-12);
  const double w = wrap_into(-1e7, kPi);
  EXPECT_GE(w, 0.0);
  EXPECT_LT(w, kPi);
}

TEST(WrapInto, NonFiniteWrapsToZero) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  EXPECT_DOUBLE_EQ(wrap_into(std::numeric_limits<double>::quiet_NaN(), kTwoPi),
                   0.0);
  EXPECT_DOUBLE_EQ(wrap_into(kInf, kTwoPi), 0.0);
  EXPECT_DOUBLE_EQ(wrap_into(-kInf, kTwoPi), 0.0);
}

TEST(WrapInto, NeverReturnsPeriodExactly) {
  // -eps + period rounds to exactly `period` in double; the contract is the
  // half-open interval [0, period), which downstream bin indexing relies on.
  const double w = wrap_into(-1e-18, kTwoPi);
  EXPECT_GE(w, 0.0);
  EXPECT_LT(w, kTwoPi);
}

/// Property: normalize_angle is idempotent and preserves the angle mod 2pi.
class AngleSweep : public ::testing::TestWithParam<double> {};

TEST_P(AngleSweep, NormalizePreservesValueMod2Pi) {
  const double a = GetParam();
  const double n = normalize_angle(a);
  EXPECT_GT(n, -kPi);
  EXPECT_LE(n, kPi);
  EXPECT_NEAR(std::remainder(a - n, kTwoPi), 0.0, 1e-9);
  EXPECT_NEAR(normalize_angle(n), n, 1e-12);
}

TEST_P(AngleSweep, DiffInverseOfAddition) {
  const double a = GetParam();
  const double b = 0.7;
  EXPECT_NEAR(angle_dist(normalize_angle(b + angle_diff(a, b)),
                         normalize_angle(a)),
              0.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Sweep, AngleSweep,
                         ::testing::Values(-100.0, -7.5, -3.2, -1.0, -1e-9,
                                           0.0, 1e-9, 0.5, 3.13, 3.15, 42.0,
                                           1000.0));


// normalize_angle skips its fmod below 2pi in magnitude; it must agree bit
// for bit with the form that always calls it.
TEST(NormalizeAngleReference, MatchesFmodForm) {
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> values = {
      0.0, 1e-300, std::numeric_limits<double>::denorm_min(), 1.0, 3.0 * kPi,
      4.0 * kPi, 1e6, 123456.789, 1e300, std::numeric_limits<double>::max(),
      inf, std::numeric_limits<double>::quiet_NaN()};
  for (const double edge : {kPi, kTwoPi, 0.5 * kPi}) {
    values.push_back(edge);
    values.push_back(std::nextafter(edge, 0.0));
    values.push_back(std::nextafter(edge, inf));
  }
  const std::size_t n = values.size();
  for (std::size_t i = 0; i < n; ++i) values.push_back(-values[i]);
  Rng rng{2026};
  for (int i = 0; i < 20000; ++i) values.push_back(rng.uniform(-20.0, 20.0));
  for (const double v : values) {
    EXPECT_EQ(reference::bits(normalize_angle(v)),
              reference::bits(reference::normalize_angle(v)))
        << "a = " << v;
  }
}

}  // namespace
}  // namespace srl
