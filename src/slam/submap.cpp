#include "slam/submap.hpp"

#include <vector>

namespace srl {

Submap::Submap(const Pose2& pose, double resolution, double extent)
    : pose_{pose},
      grid_{static_cast<int>(extent / resolution),
            static_cast<int>(extent / resolution), resolution,
            Vec2{-extent / 2.0, -extent / 2.0}} {}

void Submap::insert(const Pose2& world_pose, std::span<const Vec2> body_hits) {
  // cos and sin of the local heading, once per scan rather than per point.
  const PoseFrame local{to_local(world_pose)};
  std::vector<Vec2> hits;
  hits.reserve(body_hits.size());
  for (const Vec2& p : body_hits) hits.push_back(local.transform(p));
  grid_.insert_scan(local.pose, hits);
  ++scan_count_;
}

}  // namespace srl
