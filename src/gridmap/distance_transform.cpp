#include "gridmap/distance_transform.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "gridmap/map_assets.hpp"

namespace srl {
namespace {

// Large finite seed for non-site cells. Any real squared cell distance in a
// map is far below this, so it only survives when a row/column has no site.
constexpr double kBig = 1e12;

/// 1-D squared distance transform of sampled function f (Felzenszwalb &
/// Huttenlocher, "Distance Transforms of Sampled Functions", 2012):
/// d[q] = min_p (q - p)^2 + f[p]. `v`/`z` are scratch (size n, n+1).
void dt_1d(const std::vector<double>& f, std::vector<double>& d,
           std::vector<int>& v, std::vector<double>& z, int n) {
  int k = 0;
  v[0] = 0;
  z[0] = -kBig;
  z[1] = kBig;
  for (int q = 1; q < n; ++q) {
    double s = 0.0;
    while (true) {
      const int p = v[k];
      s = ((f[q] + static_cast<double>(q) * q) -
           (f[p] + static_cast<double>(p) * p)) /
          (2.0 * (q - p));
      if (s > z[k]) break;
      --k;
      if (k < 0) break;
    }
    ++k;
    v[k] = q;
    z[k] = (k == 0) ? -kBig : s;
    z[k + 1] = kBig;
  }
  k = 0;
  for (int q = 0; q < n; ++q) {
    while (z[k + 1] < static_cast<double>(q)) ++k;
    const int p = v[k];
    const double dq = static_cast<double>(q - p);
    d[q] = dq * dq + f[p];
  }
}

template <typename BlockPredicate>
DistanceField transform_impl(const OccupancyGrid& grid, BlockPredicate blocks) {
  const int w = grid.width();
  const int h = grid.height();
  DistanceField field{w, h, grid.resolution(), grid.origin()};
  if (w == 0 || h == 0) return field;

  std::vector<double> sq(static_cast<std::size_t>(w) * h, kBig);
  for (int iy = 0; iy < h; ++iy) {
    for (int ix = 0; ix < w; ++ix) {
      if (blocks(ix, iy)) sq[static_cast<std::size_t>(iy) * w + ix] = 0.0;
    }
  }

  const int n = std::max(w, h);
  std::vector<double> f(n);
  std::vector<double> d(n);
  std::vector<int> v(n);
  std::vector<double> z(n + 1);

  for (int ix = 0; ix < w; ++ix) {
    for (int iy = 0; iy < h; ++iy)
      f[iy] = sq[static_cast<std::size_t>(iy) * w + ix];
    dt_1d(f, d, v, z, h);
    for (int iy = 0; iy < h; ++iy)
      sq[static_cast<std::size_t>(iy) * w + ix] = d[iy];
  }
  const double diag = grid.diagonal();
  for (int iy = 0; iy < h; ++iy) {
    for (int ix = 0; ix < w; ++ix)
      f[ix] = sq[static_cast<std::size_t>(iy) * w + ix];
    dt_1d(f, d, v, z, w);
    for (int ix = 0; ix < w; ++ix) {
      // Cap at the map diagonal so maps without any blocking cell still
      // yield a finite, meaningful field.
      const double meters = std::sqrt(d[ix]) * grid.resolution();
      field.at(ix, iy) = static_cast<float>(std::min(meters, diag));
    }
  }
  return field;
}

}  // namespace

float DistanceField::interpolate(const Vec2& w) const {
  if (width_ < 2 || height_ < 2) return at_or_zero(0, 0);
  // Sample positions are cell centers.
  const double gx = (w.x - origin_.x) / resolution_ - 0.5;
  const double gy = (w.y - origin_.y) / resolution_ - 0.5;
  const int x0 = std::clamp(static_cast<int>(std::floor(gx)), 0, width_ - 2);
  const int y0 = std::clamp(static_cast<int>(std::floor(gy)), 0, height_ - 2);
  const double tx = std::clamp(gx - x0, 0.0, 1.0);
  const double ty = std::clamp(gy - y0, 0.0, 1.0);
  const double d00 = at(x0, y0);
  const double d10 = at(x0 + 1, y0);
  const double d01 = at(x0, y0 + 1);
  const double d11 = at(x0 + 1, y0 + 1);
  const double top = d00 + tx * (d10 - d00);
  const double bot = d01 + tx * (d11 - d01);
  return static_cast<float>(top + ty * (bot - top));
}

DistanceField distance_transform(const OccupancyGrid& grid) {
  return transform_impl(grid,
                        [&](int ix, int iy) { return grid.blocks_ray(ix, iy); });
}

DistanceField distance_to_occupied(const OccupancyGrid& grid) {
  return transform_impl(
      grid, [&](int ix, int iy) { return grid.is_occupied(ix, iy); });
}

std::shared_ptr<const DistanceField> shared_distance_to_occupied(
    const OccupancyGrid& grid) {
  return MapAssets::get<DistanceField>(
      grid, MapAssetKey{"distance_to_occupied", {}},
      [](const std::shared_ptr<const OccupancyGrid>& map) {
        return std::make_shared<const DistanceField>(
            distance_to_occupied(*map));
      });
}

}  // namespace srl
