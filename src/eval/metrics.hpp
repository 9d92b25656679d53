#pragma once

/// \file metrics.hpp
/// \brief The accuracy proxies of Table I.
///
///  - lap time: from the LapTimer over the true pose;
///  - lateral error: |Frenet offset| of the true pose from the race line;
///  - scan alignment: fraction of scan endpoints, re-projected from the
///    *estimated* pose, that land within a tolerance of an occupied map
///    cell ("average percentage of overlapping scans and the track
///    boundary");
///  - compute load: localizer busy time as a percentage of simulated time
///    (the htop-style single-core load proxy).

#include <memory>

#include "gridmap/distance_transform.hpp"
#include "gridmap/occupancy_grid.hpp"
#include "sensor/lidar.hpp"

namespace srl {

/// Takes the wall-distance field from the MapAssets store (one per map,
/// shared by every scorer on it); then each scan is scored in O(beams).
class ScanAlignmentScorer {
 public:
  /// `tolerance`: max distance (m) from an endpoint to a wall to count as
  /// aligned.
  ScanAlignmentScorer(const OccupancyGrid& map, double tolerance = 0.15);

  /// Percentage in [0, 100] of valid returns within tolerance of a wall
  /// when the scan is placed at `estimated_body_pose`.
  double score(const LaserScan& scan, const LidarConfig& config,
               const Pose2& estimated_body_pose, int stride = 4) const;

  double tolerance() const { return tolerance_; }
  /// Distance (m) from each cell to the nearest occupied cell.
  const DistanceField& wall_distance() const { return *wall_distance_; }

 private:
  std::shared_ptr<const DistanceField> wall_distance_;
  double tolerance_;
};

}  // namespace srl
