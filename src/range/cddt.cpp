#include "range/cddt.hpp"

#include <algorithm>
#include <cmath>

#include "common/angles.hpp"

namespace srl {
namespace {

/// Only blocking cells that touch free space can be the first hit of a ray
/// cast from free space; interior fill (deep unknown/occupied regions) is
/// skipped, which is the dominant memory saving on corridor maps.
bool is_surface_cell(const OccupancyGrid& grid, int ix, int iy) {
  if (!grid.blocks_ray(ix, iy)) return false;
  for (int dy = -1; dy <= 1; ++dy) {
    for (int dx = -1; dx <= 1; ++dx) {
      if (dx == 0 && dy == 0) continue;
      if (grid.is_free(ix + dx, iy + dy)) return true;
    }
  }
  return false;
}

}  // namespace

Cddt::Cddt(std::shared_ptr<const OccupancyGrid> map, double max_range,
           int theta_bins)
    : RangeMethod{std::move(map), max_range},
      band_width_{map_->resolution()} {
  const OccupancyGrid& grid = *map_;
  const int m = std::max(theta_bins, 1);

  // Collect surface cells once.
  std::vector<Vec2> surface;
  for (int iy = 0; iy < grid.height(); ++iy) {
    for (int ix = 0; ix < grid.width(); ++ix) {
      if (is_surface_cell(grid, ix, iy)) surface.push_back(grid.grid_to_world(ix, iy));
    }
  }

  // Map corners bound the v extent for every rotation.
  const Vec2 corners[4] = {
      grid.origin(),
      grid.origin() + Vec2{grid.world_width(), 0.0},
      grid.origin() + Vec2{0.0, grid.world_height()},
      grid.origin() + Vec2{grid.world_width(), grid.world_height()},
  };

  bins_.resize(static_cast<std::size_t>(m));
  for (int b = 0; b < m; ++b) {
    ThetaBin& bin = bins_[static_cast<std::size_t>(b)];
    const double theta = kPi * b / m;
    bin.angle = theta;
    bin.cos_t = std::cos(theta);
    bin.sin_t = std::sin(theta);

    double v_min = 0.0;
    double v_max = 0.0;
    for (int c = 0; c < 4; ++c) {
      const double v = -corners[c].x * bin.sin_t + corners[c].y * bin.cos_t;
      if (c == 0) {
        v_min = v_max = v;
      } else {
        v_min = std::min(v_min, v);
        v_max = std::max(v_max, v);
      }
    }
    bin.v_min = v_min;
    const auto n_bands = static_cast<std::size_t>(
                             std::floor((v_max - v_min) / band_width_)) +
                         1;
    std::vector<std::vector<float>> bands(n_bands);

    for (const Vec2& p : surface) {
      const double u = p.x * bin.cos_t + p.y * bin.sin_t;
      const double v = -p.x * bin.sin_t + p.y * bin.cos_t;
      auto band = static_cast<std::size_t>((v - bin.v_min) / band_width_);
      if (band >= bands.size()) band = bands.size() - 1;
      bands[band].push_back(static_cast<float>(u));
    }
    // Compress: sort each band and drop duplicates within half a cell,
    // then append it to the flat store.
    const float quantum = static_cast<float>(0.5 * band_width_);
    bin.band_start.reserve(n_bands + 1);
    bin.band_start.push_back(obstacles_.size());
    for (auto& band : bands) {
      std::sort(band.begin(), band.end());
      auto last = std::unique(band.begin(), band.end(),
                              [quantum](float a, float c) {
                                return c - a < quantum;
                              });
      obstacles_.insert(obstacles_.end(), band.begin(), last);
      bin.band_start.push_back(obstacles_.size());
    }
  }
  obstacles_.shrink_to_fit();
}

float Cddt::range(const Pose2& ray) const {
  SYNPF_EXPECTS_MSG(valid_ray_pose(ray), "cddt query pose not finite");
  note_query();
  const OccupancyGrid& grid = *map_;
  const GridIndex start = grid.world_to_grid({ray.x, ray.y});
  if (grid.blocks_ray(start.ix, start.iy)) return 0.0F;
  return range_line(ray.x, ray.y, ray.theta);
}

void Cddt::ranges_from(const Pose2& sensor,
                       std::span<const double> beam_angles,
                       std::span<float> out) const {
  SYNPF_EXPECTS_MSG(valid_ray_pose(sensor), "cddt query pose not finite");
  note_queries(beam_angles.size());
  const OccupancyGrid& grid = *map_;
  const GridIndex start = grid.world_to_grid({sensor.x, sensor.y});
  if (grid.blocks_ray(start.ix, start.iy)) {
    for (std::size_t j = 0; j < out.size(); ++j) out[j] = 0.0F;
    return;
  }
  for (std::size_t j = 0; j < beam_angles.size(); ++j) {
    out[j] = range_line(sensor.x, sensor.y, sensor.theta + beam_angles[j]);
  }
}

float Cddt::range_line(double x, double y, double theta) const {
  // Snap the ray's line direction to the nearest theta bin in [0, pi);
  // wrap_into stays bounded for any heading magnitude.
  const int m = static_cast<int>(bins_.size());
  const double line_angle = wrap_into(theta, kPi);
  int b = static_cast<int>(line_angle * m / kPi + 0.5);
  if (b >= m) b -= m;
  const ThetaBin& bin = bins_[static_cast<std::size_t>(b)];

  // Forward along +u if the actual ray direction agrees with the bin axis.
  // Historically this evaluated sign(cos(theta)*cos_t + sin(theta)*sin_t)
  // = sign(cos(theta - bin.angle)) with two libm calls per query. Because
  // b is the *nearest* bin line to theta (up to rounding ties), the line
  // distance |theta - bin.angle| mod pi is at most pi/2m + O(ulp), so
  // |cos(theta - bin.angle)| >= cos(pi/2m) — at least ~0.7 for m >= 2 and
  // ~0.9996 at the default m = 108. The sign therefore survives absolute
  // angle errors up to ~0.7 rad, while computing theta - bin.angle for
  // |theta| <= 1e8 is accurate to ~1e-8: the branch below is bitwise
  // equivalent to the libm form on the entire guarded domain, just
  // trig-free. Degenerate bin counts and astronomically large headings
  // (absorption could eat the margin) keep the original evaluation.
  bool forward = false;
  if (m >= 2 && std::abs(theta) <= 1e8) {
    const double d = wrap_into(theta - bin.angle, kTwoPi);
    forward = d < 0.5 * kPi || d > 1.5 * kPi;
  } else {
    const double dir_dot =
        std::cos(theta) * bin.cos_t + std::sin(theta) * bin.sin_t;
    forward = dir_dot >= 0.0;
  }

  const double u = x * bin.cos_t + y * bin.sin_t;
  const double v = -x * bin.sin_t + y * bin.cos_t;
  const double band_f = (v - bin.v_min) / band_width_;
  if (band_f < 0.0) return static_cast<float>(max_range_);
  auto band = static_cast<std::size_t>(band_f);
  if (band + 1 >= bin.band_start.size()) {
    return static_cast<float>(max_range_);
  }
  const float* first = obstacles_.data() + bin.band_start[band];
  const float* last = obstacles_.data() + bin.band_start[band + 1];

  // Half-cell slack keeps a particle standing on a wall surface from seeing
  // "through" the obstacle it is touching.
  const float slack = static_cast<float>(0.5 * band_width_);
  float r = static_cast<float>(max_range_);
  if (forward) {
    const float* it =
        std::upper_bound(first, last, static_cast<float>(u) - slack);
    if (it != last) r = *it - static_cast<float>(u);
  } else {
    const float* it =
        std::lower_bound(first, last, static_cast<float>(u) + slack);
    if (it != first) r = static_cast<float>(u) - *std::prev(it);
  }
  return std::clamp(r, 0.0F, static_cast<float>(max_range_));
}

std::size_t Cddt::total_entries() const { return obstacles_.size(); }

}  // namespace srl
