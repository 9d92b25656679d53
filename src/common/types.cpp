#include "common/types.hpp"

#include <cmath>
#include <ostream>

namespace srl {

Pose2 twist_increment(const Twist2& twist, double dt) {
  const double wt = twist.wz * dt;
  double dx;
  double dy;
  if (std::abs(twist.wz) < 1e-9) {
    // Straight-line limit of the SE(2) exponential.
    dx = twist.vx * dt - 0.5 * twist.vy * wt * dt;
    dy = twist.vy * dt + 0.5 * twist.vx * wt * dt;
  } else {
    const double s = std::sin(wt);
    const double c = std::cos(wt);
    // V(wt) * [vx, vy] * dt with V the SE(2) left Jacobian.
    dx = (twist.vx * s - twist.vy * (1.0 - c)) / twist.wz;
    dy = (twist.vx * (1.0 - c) + twist.vy * s) / twist.wz;
  }
  return Pose2{dx, dy, wt};
}

std::ostream& operator<<(std::ostream& os, const Vec2& v) {
  return os << "(" << v.x << ", " << v.y << ")";
}

std::ostream& operator<<(std::ostream& os, const Pose2& p) {
  return os << "(" << p.x << ", " << p.y << "; " << p.theta << ")";
}

std::ostream& operator<<(std::ostream& os, const Twist2& t) {
  return os << "[vx=" << t.vx << ", vy=" << t.vy << ", wz=" << t.wz << "]";
}

}  // namespace srl
