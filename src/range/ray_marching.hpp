#pragma once

/// \file ray_marching.hpp
/// \brief Sphere-tracing ray cast over the Euclidean distance transform.
/// From the current point, the nearest obstacle is `d` meters away in *any*
/// direction, so the ray can safely advance `d` meters. Converges to the
/// obstacle surface in a handful of steps in corridor-like maps; cost is
/// O(steps) with steps ~ log of range in open space.

#include <cmath>

#include "gridmap/distance_transform.hpp"
#include "range/range_method.hpp"

namespace srl {

class RayMarching final : public RangeMethod {
 public:
  RayMarching(std::shared_ptr<const OccupancyGrid> map, double max_range)
      : RangeMethod{std::move(map), max_range},
        field_{distance_transform(*map_)},
        epsilon_{0.5 * map_->resolution()} {}

  float range(const Pose2& ray) const override;
  std::string name() const override { return "ray_marching"; }

  /// Batch cast (the simulated LiDAR's whole revolution). Under AVX2 it
  /// sphere-traces 32 rays at a time (DESIGN §15); every result is
  /// bitwise identical to range() on the same ray.
  void ranges(std::span<const Pose2> rays,
              std::span<float> out) const override;

  const DistanceField& field() const { return field_; }

 private:
  /// range() after the precondition: march from (x, y) along (dx, dy).
  float march(double x, double y, double dx, double dy) const;

  /// Bounded iterations: each step is at least epsilon once near a
  /// surface, so max_range / epsilon is a hard ceiling.
  int max_steps() const {
    return static_cast<int>(std::ceil(max_range_ / epsilon_)) + 2;
  }

  DistanceField field_;
  double epsilon_;  ///< convergence threshold, meters
};

}  // namespace srl
