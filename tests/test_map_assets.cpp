#include "gridmap/map_assets.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <latch>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "gridmap/distance_transform.hpp"
#include "range/range_method.hpp"
#include "slam/probability_grid.hpp"

namespace srl {
namespace {

/// A 4 x 3 m room, built from scratch on every call so two calls give two
/// grids with equal content.
std::shared_ptr<const OccupancyGrid> make_room(double resolution = 0.05,
                                               Vec2 origin = {0.0, 0.0}) {
  const int w = static_cast<int>(4.0 / resolution);
  const int h = static_cast<int>(3.0 / resolution);
  auto grid = std::make_shared<OccupancyGrid>(w, h, resolution, origin,
                                              OccupancyGrid::kFree);
  for (int x = 0; x < w; ++x) {
    grid->at(x, 0) = OccupancyGrid::kOccupied;
    grid->at(x, h - 1) = OccupancyGrid::kOccupied;
  }
  for (int y = 0; y < h; ++y) {
    grid->at(0, y) = OccupancyGrid::kOccupied;
    grid->at(w - 1, y) = OccupancyGrid::kOccupied;
  }
  return grid;
}

RangeMethodOptions lut_options(int theta_bins = 60, double max_range = 6.0) {
  RangeMethodOptions options;
  options.max_range = max_range;
  options.lut_theta_bins = theta_bins;
  options.cddt_theta_bins = theta_bins;
  return options;
}

/// A store entry whose builds the test counts.
std::shared_ptr<const int> counted(const OccupancyGrid& grid,
                                   std::atomic<int>& builds,
                                   const char* kind = "test.counted") {
  return MapAssets::get<int>(grid, MapAssetKey{kind, {}},
                             [&](const std::shared_ptr<const OccupancyGrid>&) {
                               ++builds;
                               return std::make_shared<const int>(7);
                             });
}

TEST(MapAssets, EqualContentSharesOneStructure) {
  const auto a = make_room();
  const auto b = make_room();
  ASSERT_NE(a, b);
  const auto lut_a = shared_range_method(RangeMethodKind::kLut, a,
                                         lut_options());
  const auto lut_b = shared_range_method(RangeMethodKind::kLut, b,
                                         lut_options());
  EXPECT_EQ(lut_a, lut_b);
  const auto cddt_a = shared_range_method(RangeMethodKind::kCddt, a,
                                          lut_options());
  EXPECT_EQ(cddt_a,
            shared_range_method(RangeMethodKind::kCddt, b, lut_options()));
  EXPECT_NE(static_cast<const void*>(cddt_a.get()),
            static_cast<const void*>(lut_a.get()));
  EXPECT_EQ(shared_distance_to_occupied(*a), shared_distance_to_occupied(*b));
  EXPECT_EQ(ProbabilityGrid::shared_likelihood_field(*a, 0.15),
            ProbabilityGrid::shared_likelihood_field(*b, 0.15));
}

TEST(MapAssets, AnyKeyChangeBuildsAnother) {
  const auto base = make_room();
  const auto lut = shared_range_method(RangeMethodKind::kLut, base,
                                       lut_options());

  auto one_cell = std::make_shared<OccupancyGrid>(*base);
  one_cell->at(40, 30) = OccupancyGrid::kOccupied;
  EXPECT_NE(lut, shared_range_method(RangeMethodKind::kLut, one_cell,
                                     lut_options()));
  EXPECT_NE(lut, shared_range_method(RangeMethodKind::kLut, make_room(0.1),
                                     lut_options()));
  EXPECT_NE(lut, shared_range_method(RangeMethodKind::kLut,
                                     make_room(0.05, {1.0, 0.0}),
                                     lut_options()));
  EXPECT_NE(lut, shared_range_method(RangeMethodKind::kLut, base,
                                     lut_options(60, 5.0)));
  EXPECT_NE(lut, shared_range_method(RangeMethodKind::kLut, base,
                                     lut_options(72)));
  const auto cddt = shared_range_method(RangeMethodKind::kCddt, base,
                                        lut_options());
  EXPECT_NE(cddt, shared_range_method(RangeMethodKind::kCddt, base,
                                      lut_options(72)));
  const auto field = ProbabilityGrid::shared_likelihood_field(*base, 0.15);
  EXPECT_NE(field, ProbabilityGrid::shared_likelihood_field(*base, 0.2));
  EXPECT_NE(shared_distance_to_occupied(*base),
            shared_distance_to_occupied(*one_cell));
  // The unchanged key still finds the first build.
  EXPECT_EQ(lut, shared_range_method(RangeMethodKind::kLut, make_room(),
                                     lut_options()));
}

TEST(MapAssets, SharedStructuresMatchPrivateBuilds) {
  const auto room = make_room();
  const DistanceField walls = distance_to_occupied(*room);
  EXPECT_EQ(shared_distance_to_occupied(*room)->data(), walls.data());

  const ProbabilityGrid field = ProbabilityGrid::likelihood_field(*room, 0.15);
  const auto shared = ProbabilityGrid::shared_likelihood_field(*room, 0.15);
  ASSERT_EQ(shared->width(), field.width());
  ASSERT_EQ(shared->height(), field.height());
  for (int iy = 0; iy < field.height(); ++iy) {
    for (int ix = 0; ix < field.width(); ++ix) {
      ASSERT_EQ(shared->probability(ix, iy), field.probability(ix, iy))
          << ix << "," << iy;
    }
  }

  for (const RangeMethodKind kind :
       {RangeMethodKind::kRayMarching, RangeMethodKind::kCddt,
        RangeMethodKind::kLut}) {
    const auto own = make_range_method(kind, room, lut_options());
    const auto common = shared_range_method(kind, room, lut_options());
    for (double theta = -3.1; theta < 3.2; theta += 0.37) {
      const Pose2 ray{1.3, 0.9, theta};
      ASSERT_EQ(common->range(ray), own->range(ray))
          << to_string(kind) << " theta " << theta;
    }
  }
}

TEST(MapAssets, ReleasedStructureIsFreedAndRebuilt) {
  const auto room = make_room();
  std::atomic<int> builds{0};
  std::weak_ptr<const int> watch;
  {
    const auto first = counted(*room, builds);
    const auto second = counted(*make_room(), builds);
    EXPECT_EQ(first, second);
    EXPECT_EQ(builds.load(), 1);
    watch = first;
  }
  EXPECT_TRUE(watch.expired()) << "the store must hold no strong reference";
  const auto again = counted(*room, builds);
  EXPECT_EQ(builds.load(), 2);
  EXPECT_EQ(*again, 7);
}

TEST(MapAssets, ConcurrentRequestsBuildOnce) {
  const auto room = make_room();
  constexpr int kThreads = 8;
  std::atomic<int> builds{0};
  std::vector<std::shared_ptr<const int>> got(kThreads);
  std::latch start{kThreads};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      got[static_cast<std::size_t>(t)] = MapAssets::get<int>(
          *room, MapAssetKey{"test.concurrent", {}},
          [&](const std::shared_ptr<const OccupancyGrid>&) {
            ++builds;
            // Long enough that the other requests arrive mid-build.
            std::this_thread::sleep_for(std::chrono::milliseconds(50));
            return std::make_shared<const int>(11);
          });
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(builds.load(), 1);
  for (const auto& p : got) EXPECT_EQ(p, got.front());
}

TEST(MapAssets, FailedBuildReachesRequesterAndNextRequestBuilds) {
  const auto room = make_room();
  const MapAssetKey key{"test.failing", {1.0}};
  EXPECT_THROW(MapAssets::get<int>(
                   *room, key,
                   [](const std::shared_ptr<const OccupancyGrid>&)
                       -> std::shared_ptr<const int> {
                     throw std::runtime_error{"build failed"};
                   }),
               std::runtime_error);
  std::atomic<int> builds{0};
  const auto ok = MapAssets::get<int>(
      *room, key, [&](const std::shared_ptr<const OccupancyGrid>&) {
        ++builds;
        return std::make_shared<const int>(3);
      });
  EXPECT_EQ(builds.load(), 1);
  EXPECT_EQ(*ok, 3);
}

TEST(MapAssets, BuildMayRequestAnotherKey) {
  const auto room = make_room();
  std::atomic<int> inner_builds{0};
  const auto outer = MapAssets::get<int>(
      *room, MapAssetKey{"test.outer", {}},
      [&](const std::shared_ptr<const OccupancyGrid>& grid) {
        return std::make_shared<const int>(
            *counted(*grid, inner_builds, "test.inner") + 1);
      });
  EXPECT_EQ(*outer, 8);
  EXPECT_EQ(inner_builds.load(), 1);
}

}  // namespace
}  // namespace srl
