#include "slam/submap.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "common/angles.hpp"

namespace srl {
namespace {

TEST(Submap, FrameTransformsAreInverse) {
  const Pose2 frame{3.0, -1.0, 0.7};
  Submap submap{frame, 0.05, 10.0};
  const Pose2 world{4.2, 0.3, -0.4};
  const Pose2 rt = submap.to_world(submap.to_local(world));
  EXPECT_NEAR(rt.x, world.x, 1e-9);
  EXPECT_NEAR(rt.y, world.y, 1e-9);
  EXPECT_NEAR(angle_dist(rt.theta, world.theta), 0.0, 1e-9);
}

TEST(Submap, InsertPlacesHitAtCorrectLocalCell) {
  const Pose2 frame{5.0, 5.0, kPi / 2.0};  // rotated frame
  Submap submap{frame, 0.1, 8.0};
  const Pose2 body_world{5.0, 5.0, kPi / 2.0};  // at the frame origin
  // One hit 2 m ahead of the body (world +y direction).
  const std::vector<Vec2> hits = {{2.0, 0.0}};
  submap.insert(body_world, hits);
  EXPECT_EQ(submap.scan_count(), 1);
  // In the local frame the hit is at (2, 0): grid origin is (-4, -4).
  const GridIndex g = submap.grid().world_to_grid({2.0, 0.0});
  EXPECT_GT(submap.grid().probability(g.ix, g.iy), 0.5F);
}

TEST(Submap, PoseUpdateMovesContentRigidly) {
  Submap submap{Pose2{}, 0.1, 8.0};
  submap.insert(Pose2{}, std::vector<Vec2>{{1.0, 0.0}});
  // The hit is at local (1, 0). After re-anchoring the submap 1 m up, the
  // same local cell maps to world (1, 1).
  submap.set_pose(Pose2{0.0, 1.0, 0.0});
  const Pose2 world_of_hit = submap.to_world(Pose2{1.0, 0.0, 0.0});
  EXPECT_NEAR(world_of_hit.x, 1.0, 1e-9);
  EXPECT_NEAR(world_of_hit.y, 1.0, 1e-9);
}

TEST(Submap, ScanCountIncrements) {
  Submap submap{Pose2{}, 0.1, 4.0};
  for (int i = 0; i < 5; ++i) {
    submap.insert(Pose2{}, std::vector<Vec2>{{0.5, 0.0}});
  }
  EXPECT_EQ(submap.scan_count(), 5);
}

}  // namespace
}  // namespace srl
