#include "gridmap/track_generator.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

#include "common/angles.hpp"
#include "common/polyline.hpp"

namespace srl {
namespace {

[[noreturn]] void reject(const std::string& why) {
  throw std::invalid_argument("TrackGenerator::rasterize: " + why);
}

/// Rejects, naming the first bad field, what would reach undefined
/// behaviour below: `front()` of an empty centerline, or a double-to-int
/// cast of a non-finite or out-of-range cell count.
void check_input(const std::vector<Vec2>& centerline, const TrackSpec& spec) {
  if (centerline.size() < 3) reject("centerline has fewer than 3 points");
  for (const Vec2& p : centerline) {
    if (!std::isfinite(p.x) || !std::isfinite(p.y)) {
      reject("centerline has a non-finite point");
    }
  }
  const auto positive = [](double v, const char* field) {
    if (!(std::isfinite(v) && v > 0.0)) {
      reject(std::string{field} + " must be finite and positive");
    }
  };
  const auto non_negative = [](double v, const char* field) {
    if (!(std::isfinite(v) && v >= 0.0)) {
      reject(std::string{field} + " must be finite and non-negative");
    }
  };
  positive(spec.resolution, "resolution");
  positive(spec.centerline_ds, "centerline_ds");
  non_negative(spec.half_width, "half_width");
  non_negative(spec.wall_thickness, "wall_thickness");
  non_negative(spec.margin, "margin");
}

/// Cells of `resolution` needed to span `extent` meters; rejects naming
/// `field` when the count does not fit in int.
int cells_spanning(double extent, double resolution, const char* field) {
  const double n = std::ceil(extent / resolution);
  if (!(n <= static_cast<double>(std::numeric_limits<int>::max()))) {
    reject(std::string{field} + " does not fit in int");
  }
  return static_cast<int>(n);
}

/// Set to `value` every in-grid cell that a disk of radius `r` around any of
/// `centers` covers (`disk_covers_cell`), within the (2 rad + 1)^2 box around
/// the center's cell, rad = ceil(r / res) + 1.
///
/// In one row the covered cells are one run: cell centers' x grows with ix,
/// so the squared distance falls up to the first column k whose center is
/// not left of the disk's and rises from there. Left of k the covered cells
/// are a suffix, from k on a prefix, and a run that is not empty holds k - 1
/// or k. Each row keeps one run of cells this pass has already set. When it
/// holds k - 1 and k, the disk's run overlaps it, so the disk only walks out
/// from its two ends with the cover test; otherwise the disk tests k - 1 and
/// k and walks out from there. Every cell set passed the test for this disk.
void cover_disks(OccupancyGrid& grid, const std::vector<Vec2>& centers,
                 double r, std::int8_t value) {
  const int rad = static_cast<int>(std::ceil(r / grid.resolution())) + 1;
  const double r2 = r * r;
  const auto width = static_cast<std::size_t>(grid.width());
  // Per row, a run [first, second] already set; {0, -1} is none yet.
  std::vector<std::pair<int, int>> done(
      static_cast<std::size_t>(grid.height()), {0, -1});
  for (const Vec2& c : centers) {
    const GridIndex center = grid.world_to_grid(c);
    const int x0 = std::max(center.ix - rad, 0);
    const int x1 = std::min(center.ix + rad, grid.width() - 1);
    const int y0 = std::max(center.iy - rad, 0);
    const int y1 = std::min(center.iy + rad, grid.height() - 1);
    if (x0 > x1 || y0 > y1) continue;
    int k = std::clamp(center.ix, x0, x1 + 1);
    while (k > x0 && !(grid.grid_to_world(k - 1, 0).x < c.x)) --k;
    while (k <= x1 && grid.grid_to_world(k, 0).x < c.x) ++k;
    for (int iy = y0; iy <= y1; ++iy) {
      const auto covers = [&](int ix) {
        return disk_covers_cell(grid, ix, iy, c, r2);
      };
      auto& [done_lo, done_hi] = done[static_cast<std::size_t>(iy)];
      int lo = k;
      int hi = k - 1;
      if (done_lo < k && done_hi >= k) {
        lo = done_lo;
        hi = done_hi;
      } else {
        if (k > x0 && covers(k - 1)) lo = k - 1;
        if (k <= x1 && covers(k)) hi = k;
        if (lo > hi) continue;
      }
      while (lo > x0 && covers(lo - 1)) --lo;
      while (hi < x1 && covers(hi + 1)) ++hi;
      std::int8_t* row =
          grid.data().data() + static_cast<std::size_t>(iy) * width;
      const int below = std::min(hi, done_lo - 1);
      const int above = std::max(lo, done_hi + 1);
      if (lo <= below) std::fill(row + lo, row + below + 1, value);
      if (above <= hi) std::fill(row + above, row + hi + 1, value);
      if (lo <= done_hi + 1 && hi >= done_lo - 1) {
        done_lo = std::min(done_lo, lo);
        done_hi = std::max(done_hi, hi);
      } else {
        done_lo = lo;
        done_hi = hi;
      }
    }
  }
}

}  // namespace

Track TrackGenerator::rasterize(const std::vector<Vec2>& centerline,
                                const TrackSpec& spec) {
  check_input(centerline, spec);
  Track track;
  track.half_width = spec.half_width;
  track.centerline = resample_closed(centerline, spec.centerline_ds);
  // Tracks are canonically CCW so Frenet lateral deviation has a consistent
  // sign (positive toward the inside).
  if (signed_area(track.centerline) < 0.0) {
    std::reverse(track.centerline.begin(), track.centerline.end());
  }

  // Bounding box with room for corridor, wall band and margin.
  const double pad = spec.half_width + spec.wall_thickness + spec.margin;
  double min_x = centerline.front().x;
  double max_x = min_x;
  double min_y = centerline.front().y;
  double max_y = min_y;
  for (const Vec2& p : track.centerline) {
    min_x = std::min(min_x, p.x);
    max_x = std::max(max_x, p.x);
    min_y = std::min(min_y, p.y);
    max_y = std::max(max_y, p.y);
  }
  const Vec2 origin{min_x - pad, min_y - pad};
  const int w =
      cells_spanning(max_x - min_x + 2.0 * pad, spec.resolution, "width");
  const int h =
      cells_spanning(max_y - min_y + 2.0 * pad, spec.resolution, "height");
  track.grid =
      OccupancyGrid{w, h, spec.resolution, origin, OccupancyGrid::kUnknown};

  // Cover walls first (corridor + wall band), then carve the free corridor
  // out of the band. Sampling at half-resolution steps guarantees coverage.
  // The wall pass meets only unknown and wall cells, so it sets walls
  // unconditionally.
  const std::vector<Vec2> dense =
      resample_closed(track.centerline, spec.resolution * 0.5);
  cover_disks(track.grid, dense, spec.half_width + spec.wall_thickness,
              OccupancyGrid::kOccupied);
  cover_disks(track.grid, dense, spec.half_width, OccupancyGrid::kFree);
  return track;
}

Track TrackGenerator::oval(double straight_len, double radius,
                           const TrackSpec& spec) {
  std::vector<Vec2> pts;
  const double hs = 0.5 * straight_len;
  const int arc_steps = std::max(16, static_cast<int>(kPi * radius / 0.2));
  // Bottom straight, left to right, at y = -radius (CCW circuit).
  pts.emplace_back(-hs, -radius);
  pts.emplace_back(hs, -radius);
  // Right semicircle around (hs, 0) from -90 to +90 degrees.
  for (int i = 1; i < arc_steps; ++i) {
    const double a = -kPi / 2.0 + kPi * i / arc_steps;
    pts.emplace_back(hs + radius * std::cos(a), radius * std::sin(a));
  }
  // Top straight, right to left, at y = +radius.
  pts.emplace_back(hs, radius);
  pts.emplace_back(-hs, radius);
  // Left semicircle around (-hs, 0) from 90 to 270 degrees.
  for (int i = 1; i < arc_steps; ++i) {
    const double a = kPi / 2.0 + kPi * i / arc_steps;
    pts.emplace_back(-hs + radius * std::cos(a), radius * std::sin(a));
  }
  return rasterize(pts, spec);
}

Track TrackGenerator::from_waypoints(const std::vector<Vec2>& waypoints,
                                     const TrackSpec& spec,
                                     int smooth_iterations) {
  return rasterize(chaikin_closed(waypoints, smooth_iterations), spec);
}

Track TrackGenerator::rounded_rect(double length, double width,
                                   double corner_radius,
                                   const TrackSpec& spec) {
  std::vector<Vec2> pts;
  const double r = std::min({corner_radius, length / 2.0, width / 2.0});
  const double hx = length / 2.0 - r;  // straight half-extents
  const double hy = width / 2.0 - r;
  const int arc_steps = std::max(8, static_cast<int>(0.5 * kPi * r / 0.15));

  const auto arc = [&](Vec2 center, double a0) {
    for (int i = 0; i <= arc_steps; ++i) {
      const double a = a0 + 0.5 * kPi * i / arc_steps;
      pts.emplace_back(center.x + r * std::cos(a), center.y + r * std::sin(a));
    }
  };
  // CCW from the bottom straight: E, NE corner, N... (centerline box
  // length x width centered at the origin).
  pts.emplace_back(-hx, -hy - r);
  pts.emplace_back(hx, -hy - r);
  arc({hx, -hy}, -kPi / 2.0);
  pts.emplace_back(hx + r, hy);
  arc({hx, hy}, 0.0);
  pts.emplace_back(-hx, hy + r);
  arc({-hx, hy}, kPi / 2.0);
  pts.emplace_back(-hx - r, -hy);
  arc({-hx, -hy}, kPi);
  return rasterize(pts, spec);
}

Track TrackGenerator::test_track(const TrackSpec& spec) {
  return rounded_rect(16.0, 9.0, 2.6, spec);
}

Track TrackGenerator::hairpin(const TrackSpec& spec) {
  // Two long parallel straights joined by tight 180-degree turns plus a
  // mid-track pinch — stresses heading estimation at high curvature.
  const std::vector<Vec2> wps = {
      {0.0, 0.0},  {5.0, 0.0},  {10.0, 0.0},  {13.0, 0.5}, {14.5, 2.25},
      {13.0, 4.0}, {10.0, 4.5}, {5.0, 4.5},   {0.0, 4.5},  {-3.0, 5.0},
      {-4.5, 6.75}, {-3.0, 8.5}, {0.0, 9.0},  {5.0, 9.0},  {10.0, 9.0},
      {13.0, 9.5}, {14.5, 11.25}, {13.0, 13.0}, {10.0, 13.5}, {5.0, 13.5},
      {0.0, 13.5}, {-6.0, 13.0}, {-8.5, 9.0},  {-8.5, 4.5}, {-6.0, 0.5},
  };
  return from_waypoints(wps, spec, 3);
}

Track TrackGenerator::random_circuit(Rng& rng, int n_waypoints, double radius,
                                     double jitter, const TrackSpec& spec) {
  std::vector<Vec2> wps;
  const int n = std::max(5, n_waypoints);
  wps.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const double a = kTwoPi * i / n;
    const double r =
        std::max(3.0 * spec.half_width, radius + rng.uniform(-jitter, jitter));
    wps.emplace_back(r * std::cos(a), r * std::sin(a));
  }
  return from_waypoints(wps, spec, 3);
}

}  // namespace srl
