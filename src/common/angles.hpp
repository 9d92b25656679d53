#pragma once

/// \file angles.hpp
/// \brief Angle normalization and arithmetic on the circle.

#include <cmath>
#include <numbers>

namespace srl {

inline constexpr double kPi = std::numbers::pi;
inline constexpr double kTwoPi = 2.0 * std::numbers::pi;

/// Wrap an angle into (-pi, pi].
inline double normalize_angle(double a) {
  // fmod is exact and returns `a` itself for |a| < 2pi, so the call is
  // skipped there; NaN and +-Inf fail the test and still take it.
  if (!(std::abs(a) < kTwoPi)) a = std::fmod(a, kTwoPi);
  if (a <= -kPi) {
    a += kTwoPi;
  } else if (a > kPi) {
    a -= kTwoPi;
  }
  return a;
}

/// Shortest signed angular difference a - b, in (-pi, pi].
inline double angle_diff(double a, double b) { return normalize_angle(a - b); }

/// Absolute shortest angular distance between two angles, in [0, pi].
inline double angle_dist(double a, double b) {
  return std::abs(angle_diff(a, b));
}

inline constexpr double deg2rad(double deg) { return deg * kPi / 180.0; }
inline constexpr double rad2deg(double rad) { return rad * 180.0 / kPi; }

/// Linear interpolation between angles along the shortest arc.
inline double angle_lerp(double a, double b, double t) {
  return normalize_angle(a + t * angle_diff(b, a));
}

/// Wrap an angle into [0, period), in bounded time for *any* input.
/// Hot-path friendly: one branch when already in range and one addition /
/// subtraction when within a turn (the common case for pose headings plus
/// beam offsets), falling back to fmod for arbitrary magnitudes. Non-finite
/// inputs wrap to 0 instead of looping forever or feeding NaN into a
/// UB float->int cast downstream.
inline double wrap_into(double a, double period) {
  if (a >= 0.0 && a < period) return a;
  if (a >= -period && a < 0.0) {
    a += period;
    // -eps + period can round up to exactly `period`.
    return a < period ? a : 0.0;
  }
  if (a >= period && a < 2.0 * period) return a - period;
  a = std::fmod(a, period);
  if (std::isnan(a)) return 0.0;
  if (a < 0.0) a += period;
  return a < period ? a : 0.0;
}

}  // namespace srl
