#pragma once

/// \file types.hpp
/// \brief Fundamental 2-D geometric types shared across the library:
/// vectors, SE(2) poses, and planar twists, with the usual group operations.
///
/// Conventions:
///  - world frame: x forward/east, y left/north, theta counter-clockwise
///    from +x, radians, normalized to (-pi, pi];
///  - `Pose2` is an element of SE(2); composition `a * b` applies `b` in the
///    frame of `a` (i.e. T_a * T_b);
///  - `Twist2` is a body-frame velocity (vx forward, vy lateral, wz yaw rate).

#include <cmath>
#include <iosfwd>

#include "common/angles.hpp"

namespace srl {

/// A 2-D vector / point. Plain aggregate: no invariants.
struct Vec2 {
  double x{0.0};
  double y{0.0};

  constexpr Vec2() = default;
  constexpr Vec2(double x_, double y_) : x{x_}, y{y_} {}

  constexpr Vec2 operator+(const Vec2& o) const { return {x + o.x, y + o.y}; }
  constexpr Vec2 operator-(const Vec2& o) const { return {x - o.x, y - o.y}; }
  constexpr Vec2 operator*(double s) const { return {x * s, y * s}; }
  constexpr Vec2 operator/(double s) const { return {x / s, y / s}; }
  constexpr Vec2 operator-() const { return {-x, -y}; }
  Vec2& operator+=(const Vec2& o) {
    x += o.x;
    y += o.y;
    return *this;
  }
  Vec2& operator-=(const Vec2& o) {
    x -= o.x;
    y -= o.y;
    return *this;
  }
  Vec2& operator*=(double s) {
    x *= s;
    y *= s;
    return *this;
  }

  constexpr double dot(const Vec2& o) const { return x * o.x + y * o.y; }
  /// z-component of the 3-D cross product (signed parallelogram area).
  constexpr double cross(const Vec2& o) const { return x * o.y - y * o.x; }
  double norm() const { return std::hypot(x, y); }
  constexpr double squared_norm() const { return x * x + y * y; }
  /// Unit vector in the same direction; returns {0,0} for the zero vector.
  Vec2 normalized() const {
    const double n = norm();
    return n > 0.0 ? Vec2{x / n, y / n} : Vec2{};
  }
  /// This vector rotated CCW by `angle` radians.
  Vec2 rotated(double angle) const {
    const double c = std::cos(angle);
    const double s = std::sin(angle);
    return {c * x - s * y, s * x + c * y};
  }
  /// Perpendicular vector (rotated +90 degrees).
  constexpr Vec2 perp() const { return {-y, x}; }
};

constexpr Vec2 operator*(double s, const Vec2& v) { return v * s; }

inline double distance(const Vec2& a, const Vec2& b) { return (a - b).norm(); }

/// An SE(2) pose: translation + heading.
struct Pose2 {
  double x{0.0};
  double y{0.0};
  double theta{0.0};  ///< heading, radians, CCW from +x

  constexpr Pose2() = default;
  constexpr Pose2(double x_, double y_, double theta_)
      : x{x_}, y{y_}, theta{theta_} {}
  constexpr Pose2(const Vec2& t, double theta_)
      : x{t.x}, y{t.y}, theta{theta_} {}

  constexpr Vec2 translation() const { return {x, y}; }

  /// Group composition: `this` followed by `o` expressed in `this`'s frame.
  Pose2 operator*(const Pose2& o) const;

  /// Transform a point from this pose's frame into the world frame.
  Vec2 transform(const Vec2& p) const;

  /// Transform a world point into this pose's frame.
  Vec2 inverse_transform(const Vec2& p) const {
    const double c = std::cos(theta);
    const double s = std::sin(theta);
    const double dx = p.x - x;
    const double dy = p.y - y;
    return {c * dx + s * dy, -s * dx + c * dy};
  }

  /// Group inverse: `inverse() * (*this)` is identity.
  Pose2 inverse() const {
    const double c = std::cos(theta);
    const double s = std::sin(theta);
    return {-(c * x + s * y), -(-s * x + c * y), normalize_angle(-theta)};
  }

  /// Relative pose taking `this` to `to`: `(*this) * between(to) == to`.
  Pose2 between(const Pose2& to) const { return inverse() * to; }

  /// Pose with theta wrapped into (-pi, pi].
  Pose2 normalized() const { return {x, y, normalize_angle(theta)}; }
};

/// A pose with the cosine and sine of its heading taken once. Composing
/// many operands onto one pose, or transforming many points by it, then pays
/// one cos/sin pair instead of one per call. Pose2's operator* and
/// transform() are these same expressions, so the results carry their bits.
struct PoseFrame {
  Pose2 pose;
  double c;  ///< cos(pose.theta)
  double s;  ///< sin(pose.theta)

  explicit PoseFrame(const Pose2& p)
      : pose{p}, c{std::cos(p.theta)}, s{std::sin(p.theta)} {}

  /// `pose * o`.
  Pose2 operator*(const Pose2& o) const {
    return {pose.x + c * o.x - s * o.y, pose.y + s * o.x + c * o.y,
            normalize_angle(pose.theta + o.theta)};
  }
  /// `pose.transform(p)`.
  Vec2 transform(const Vec2& p) const {
    return {pose.x + c * p.x - s * p.y, pose.y + s * p.x + c * p.y};
  }
};

inline Pose2 Pose2::operator*(const Pose2& o) const {
  return PoseFrame{*this} * o;
}
inline Vec2 Pose2::transform(const Vec2& p) const {
  return PoseFrame{*this}.transform(p);
}

/// A planar body-frame velocity.
struct Twist2 {
  double vx{0.0};  ///< longitudinal velocity, m/s (body frame, + forward)
  double vy{0.0};  ///< lateral velocity, m/s (body frame, + left)
  double wz{0.0};  ///< yaw rate, rad/s (+ CCW)

  constexpr Twist2() = default;
  constexpr Twist2(double vx_, double vy_, double wz_)
      : vx{vx_}, vy{vy_}, wz{wz_} {}

  double speed() const { return std::hypot(vx, vy); }
};

/// Exact SE(2) exponential of a body twist applied for `dt` seconds: the
/// body-frame increment {dx, dy, wz * dt}, heading not wrapped. Handles the
/// wz -> 0 limit analytically.
Pose2 twist_increment(const Twist2& twist, double dt);

/// The increment of `twist` over `dt` composed onto `pose`.
inline Pose2 integrate_twist(const Pose2& pose, const Twist2& twist,
                             double dt) {
  return pose * twist_increment(twist, dt);
}

/// Componentwise finiteness — the contract helpers used by preconditions on
/// geometry-consuming seams (range queries, motion prediction, simulation).
inline bool finite(const Vec2& v) {
  return std::isfinite(v.x) && std::isfinite(v.y);
}
inline bool finite(const Pose2& p) {
  return std::isfinite(p.x) && std::isfinite(p.y) && std::isfinite(p.theta);
}
inline bool finite(const Twist2& t) {
  return std::isfinite(t.vx) && std::isfinite(t.vy) && std::isfinite(t.wz);
}

std::ostream& operator<<(std::ostream& os, const Vec2& v);
std::ostream& operator<<(std::ostream& os, const Pose2& p);
std::ostream& operator<<(std::ostream& os, const Twist2& t);

}  // namespace srl
