#include "common/polyline.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace srl {

double polyline_length(const std::vector<Vec2>& pts, bool closed) {
  if (pts.size() < 2) return 0.0;
  double len = 0.0;
  for (std::size_t i = 0; i + 1 < pts.size(); ++i)
    len += distance(pts[i], pts[i + 1]);
  if (closed) len += distance(pts.back(), pts.front());
  return len;
}

std::vector<Vec2> resample_closed(const std::vector<Vec2>& pts, double ds) {
  if (pts.size() < 3 || ds <= 0.0) return pts;
  const double total = polyline_length(pts, /*closed=*/true);
  const double count = std::round(total / ds);
  if (!(count <= static_cast<double>(std::numeric_limits<int>::max()))) {
    throw std::invalid_argument("resample_closed: sample count beyond int");
  }
  const int n = std::max(3, static_cast<int>(count));
  const double step = total / n;

  std::vector<Vec2> out;
  out.reserve(static_cast<std::size_t>(n));
  double target = 0.0;
  double walked = 0.0;
  std::size_t seg = 0;
  Vec2 a = pts[0];
  Vec2 b = pts[1 % pts.size()];
  double seg_len = distance(a, b);
  for (int i = 0; i < n; ++i) {
    while (walked + seg_len < target && seg < pts.size()) {
      walked += seg_len;
      ++seg;
      a = pts[seg % pts.size()];
      b = pts[(seg + 1) % pts.size()];
      seg_len = distance(a, b);
    }
    const double t = seg_len > 0.0 ? (target - walked) / seg_len : 0.0;
    out.push_back(a + (b - a) * std::clamp(t, 0.0, 1.0));
    target += step;
  }
  return out;
}

std::vector<Vec2> resample_open(const std::vector<Vec2>& pts, int n) {
  if (pts.size() < 2 || n < 2) return pts;
  const double total = polyline_length(pts, /*closed=*/false);
  std::vector<Vec2> out;
  out.reserve(static_cast<std::size_t>(n));
  double walked = 0.0;
  std::size_t seg = 0;
  double seg_len = distance(pts[0], pts[1]);
  for (int i = 0; i < n; ++i) {
    const double target =
        total * static_cast<double>(i) / static_cast<double>(n - 1);
    while (walked + seg_len < target && seg + 2 < pts.size()) {
      walked += seg_len;
      ++seg;
      seg_len = distance(pts[seg], pts[seg + 1]);
    }
    const double t = seg_len > 0.0 ? (target - walked) / seg_len : 0.0;
    out.push_back(pts[seg] + (pts[seg + 1] - pts[seg]) * std::clamp(t, 0.0, 1.0));
  }
  return out;
}

std::vector<Vec2> chaikin_closed(const std::vector<Vec2>& pts, int iterations) {
  std::vector<Vec2> cur = pts;
  for (int it = 0; it < iterations && cur.size() >= 3; ++it) {
    std::vector<Vec2> next;
    next.reserve(cur.size() * 2);
    for (std::size_t i = 0; i < cur.size(); ++i) {
      const Vec2& p = cur[i];
      const Vec2& q = cur[(i + 1) % cur.size()];
      next.push_back(p * 0.75 + q * 0.25);
      next.push_back(p * 0.25 + q * 0.75);
    }
    cur = std::move(next);
  }
  return cur;
}

std::vector<double> curvature_closed(const std::vector<Vec2>& pts) {
  const std::size_t n = pts.size();
  std::vector<double> kappa(n, 0.0);
  if (n < 3) return kappa;
  for (std::size_t i = 0; i < n; ++i) {
    const Vec2& a = pts[(i + n - 1) % n];
    const Vec2& b = pts[i];
    const Vec2& c = pts[(i + 1) % n];
    const Vec2 ab = b - a;
    const Vec2 bc = c - b;
    const Vec2 ac = c - a;
    const double cross = ab.cross(bc);
    const double denom = ab.norm() * bc.norm() * ac.norm();
    kappa[i] = denom > 1e-12 ? 2.0 * cross / denom : 0.0;
  }
  return kappa;
}

double signed_area(const std::vector<Vec2>& pts) {
  double a = 0.0;
  for (std::size_t i = 0; i < pts.size(); ++i) {
    const Vec2& p = pts[i];
    const Vec2& q = pts[(i + 1) % pts.size()];
    a += p.cross(q);
  }
  return 0.5 * a;
}

}  // namespace srl
