#pragma once

/// \file submap.hpp
/// \brief Cartographer-style submap: a probability grid in its own local
/// frame, anchored to the world by a rigid `pose`. Scans are matched and
/// inserted in local coordinates, so CartoLite's global correction moves
/// all of a submap's content rigidly by re-anchoring it, without
/// re-rendering.

#include <span>

#include "common/types.hpp"
#include "slam/probability_grid.hpp"

namespace srl {

class Submap {
 public:
  /// `pose`: world pose of the submap frame (initialized from the first
  /// scan's estimated pose). `extent`: side length in meters of the square
  /// local grid, centered on the frame origin.
  Submap(const Pose2& pose, double resolution, double extent);

  /// Insert one scan: `body_hits` are scan points in the *body* frame;
  /// `world_pose` is the body's world pose at scan time.
  void insert(const Pose2& world_pose, std::span<const Vec2> body_hits);

  const ProbabilityGrid& grid() const { return grid_; }
  const Pose2& pose() const { return pose_; }
  void set_pose(const Pose2& pose) { pose_ = pose; }

  /// World -> submap-local transform for a pose.
  Pose2 to_local(const Pose2& world) const { return pose_.inverse() * world; }
  Pose2 to_world(const Pose2& local) const { return pose_ * local; }

  int scan_count() const { return scan_count_; }

 private:
  Pose2 pose_;
  ProbabilityGrid grid_;
  int scan_count_{0};
};

}  // namespace srl
