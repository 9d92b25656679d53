#include "range/bresenham.hpp"

#include <cmath>
#include <limits>

namespace srl {

float BresenhamCaster::range(const Pose2& ray) const {
  SYNPF_EXPECTS_MSG(valid_ray_pose(ray), "bresenham query pose not finite");
  const OccupancyGrid& grid = *map_;
  const double res = grid.resolution();

  GridIndex cell = grid.world_to_grid({ray.x, ray.y});
  if (grid.blocks_ray(cell.ix, cell.iy)) return 0.0F;

  const double dx = std::cos(ray.theta);
  const double dy = std::sin(ray.theta);

  // Amanatides–Woo: track the parametric distance t at which the ray crosses
  // the next vertical (tmax_x) and horizontal (tmax_y) cell boundary.
  const int step_x = dx > 0.0 ? 1 : (dx < 0.0 ? -1 : 0);
  const int step_y = dy > 0.0 ? 1 : (dy < 0.0 ? -1 : 0);

  const double inf = std::numeric_limits<double>::infinity();
  const double tdelta_x = step_x != 0 ? res / std::abs(dx) : inf;
  const double tdelta_y = step_y != 0 ? res / std::abs(dy) : inf;

  // Distance to the first boundary crossing in each axis.
  const double cell_min_x = grid.origin().x + cell.ix * res;
  const double cell_min_y = grid.origin().y + cell.iy * res;
  double tmax_x;
  if (step_x > 0) {
    tmax_x = (cell_min_x + res - ray.x) / dx;
  } else if (step_x < 0) {
    tmax_x = (cell_min_x - ray.x) / dx;
  } else {
    tmax_x = inf;
  }
  double tmax_y;
  if (step_y > 0) {
    tmax_y = (cell_min_y + res - ray.y) / dy;
  } else if (step_y < 0) {
    tmax_y = (cell_min_y - ray.y) / dy;
  } else {
    tmax_y = inf;
  }

  double t = 0.0;
  while (t <= max_range_) {
    if (tmax_x < tmax_y) {
      t = tmax_x;
      tmax_x += tdelta_x;
      cell.ix += step_x;
    } else {
      t = tmax_y;
      tmax_y += tdelta_y;
      cell.iy += step_y;
    }
    if (t > max_range_) break;
    if (grid.blocks_ray(cell.ix, cell.iy)) return static_cast<float>(t);
    if (!grid.in_bounds(cell.ix, cell.iy)) break;  // left the map
  }
  return static_cast<float>(max_range_);
}

}  // namespace srl
