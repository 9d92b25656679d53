#pragma once

/// \file distance_transform.hpp
/// \brief Exact Euclidean distance transform (Felzenszwalb & Huttenlocher)
/// over occupancy grids. The resulting field gives, for every cell, the
/// distance in meters to the nearest ray-blocking cell — the core
/// acceleration structure for ray-marching range queries and for the
/// scan-alignment metric.

#include <memory>
#include <vector>

#include "gridmap/occupancy_grid.hpp"

namespace srl {

/// A dense field of distances (meters) sharing an OccupancyGrid's geometry.
class DistanceField {
 public:
  DistanceField() = default;
  DistanceField(int width, int height, double resolution, Vec2 origin)
      : width_{width},
        height_{height},
        resolution_{resolution},
        origin_{origin},
        data_(static_cast<std::size_t>(width) * height, 0.0F) {}

  int width() const { return width_; }
  int height() const { return height_; }
  double resolution() const { return resolution_; }
  const Vec2& origin() const { return origin_; }

  bool in_bounds(int ix, int iy) const {
    return ix >= 0 && iy >= 0 && ix < width_ && iy < height_;
  }

  float at(int ix, int iy) const {
    SYNPF_EXPECTS_MSG(in_bounds(ix, iy), "distance field read out of bounds");
    return data_[static_cast<std::size_t>(iy) * static_cast<std::size_t>(width_) +
                 static_cast<std::size_t>(ix)];
  }
  float& at(int ix, int iy) {
    SYNPF_EXPECTS_MSG(in_bounds(ix, iy), "distance field write out of bounds");
    return data_[static_cast<std::size_t>(iy) * static_cast<std::size_t>(width_) +
                 static_cast<std::size_t>(ix)];
  }
  /// Distance at cell, or 0 outside the map (the border blocks rays).
  float at_or_zero(int ix, int iy) const {
    return in_bounds(ix, iy) ? at(ix, iy) : 0.0F;
  }

  /// Distance at a world point (nearest cell, no interpolation). Defined for
  /// any input: far-away / non-finite points read as 0 ("border blocks"),
  /// via the same UB-safe cast as `OccupancyGrid::world_to_grid`.
  float at_world(const Vec2& w) const {
    const int ix = floor_to_cell((w.x - origin_.x) / resolution_);
    const int iy = floor_to_cell((w.y - origin_.y) / resolution_);
    return at_or_zero(ix, iy);
  }

  /// Bilinearly interpolated distance at a world point; clamps to the border.
  float interpolate(const Vec2& w) const;

  std::vector<float>& data() { return data_; }
  const std::vector<float>& data() const { return data_; }

 private:
  int width_{0};
  int height_{0};
  double resolution_{0.05};
  Vec2 origin_{};
  std::vector<float> data_;
};

/// Compute the exact Euclidean distance (meters) from every cell to the
/// nearest cell for which `blocks_ray` is true. Blocking cells get 0.
/// O(width * height) via two 1-D lower-envelope passes.
DistanceField distance_transform(const OccupancyGrid& grid);

/// Distance to the nearest *occupied* cell only (unknown treated as free);
/// used by the scan-alignment metric, which scores hits against walls.
DistanceField distance_to_occupied(const OccupancyGrid& grid);

/// `distance_to_occupied(grid)` from the process-wide MapAssets store: one
/// field per grid content, shared by the alignment scorer, the crash check
/// and the likelihood fields built on it.
std::shared_ptr<const DistanceField> shared_distance_to_occupied(
    const OccupancyGrid& grid);

}  // namespace srl
