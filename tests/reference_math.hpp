#pragma once

/// \file reference_math.hpp
/// \brief Test-only reference forms of the geometry the closed loop runs per
/// beam and per particle, written out the long way: normalize_angle calls
/// fmod every time, and every composition and transform takes its own cos
/// and sin. The differential tests hold the library's hoisted forms to these
/// bit for bit.

#include <bit>
#include <cmath>
#include <cstdint>

#include "common/angles.hpp"
#include "common/types.hpp"

namespace srl::reference {

/// Bit pattern of a double: equal patterns are the only equality the
/// differential tests accept (it separates -0.0 from +0.0 and compares
/// NaNs).
inline std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

inline double normalize_angle(double a) {
  a = std::fmod(a, kTwoPi);
  if (a <= -kPi) {
    a += kTwoPi;
  } else if (a > kPi) {
    a -= kTwoPi;
  }
  return a;
}

inline Pose2 compose(const Pose2& a, const Pose2& o) {
  const double c = std::cos(a.theta);
  const double s = std::sin(a.theta);
  return {a.x + c * o.x - s * o.y, a.y + s * o.x + c * o.y,
          normalize_angle(a.theta + o.theta)};
}

inline Vec2 transform(const Pose2& a, const Vec2& p) {
  const double c = std::cos(a.theta);
  const double s = std::sin(a.theta);
  return {a.x + c * p.x - s * p.y, a.y + s * p.x + c * p.y};
}

inline Pose2 integrate_twist(const Pose2& pose, const Twist2& twist,
                             double dt) {
  const double wt = twist.wz * dt;
  double dx;
  double dy;
  if (std::abs(twist.wz) < 1e-9) {
    dx = twist.vx * dt - 0.5 * twist.vy * wt * dt;
    dy = twist.vy * dt + 0.5 * twist.vx * wt * dt;
  } else {
    const double s = std::sin(wt);
    const double c = std::cos(wt);
    dx = (twist.vx * s - twist.vy * (1.0 - c)) / twist.wz;
    dy = (twist.vx * (1.0 - c) + twist.vy * s) / twist.wz;
  }
  return compose(pose, Pose2{dx, dy, wt});
}

inline bool same_bits(const Pose2& a, const Pose2& b) {
  return bits(a.x) == bits(b.x) && bits(a.y) == bits(b.y) &&
         bits(a.theta) == bits(b.theta);
}

inline bool same_bits(const Vec2& a, const Vec2& b) {
  return bits(a.x) == bits(b.x) && bits(a.y) == bits(b.y);
}

}  // namespace srl::reference
