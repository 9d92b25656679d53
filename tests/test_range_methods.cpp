#include "range/range_method.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/angles.hpp"
#include "common/contracts.hpp"
#include "common/fnv1a.hpp"
#include "common/rng.hpp"
#include "common/simd.hpp"
#include "common/stats.hpp"
#include "gridmap/track_generator.hpp"
#include "range/avx2_lanes.hpp"
#include "range/bresenham.hpp"
#include "range/cddt.hpp"
#include "range/lookup_table.hpp"
#include "range/ray_marching.hpp"

namespace srl {
namespace {

std::uint32_t bits(float v) { return std::bit_cast<std::uint32_t>(v); }
std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// A square room: free interior, one-cell walls, 10 m x 10 m at 5 cm.
std::shared_ptr<const OccupancyGrid> make_room() {
  auto grid = std::make_shared<OccupancyGrid>(200, 200, 0.05, Vec2{0.0, 0.0},
                                              OccupancyGrid::kFree);
  for (int i = 0; i < 200; ++i) {
    grid->at(i, 0) = OccupancyGrid::kOccupied;
    grid->at(i, 199) = OccupancyGrid::kOccupied;
    grid->at(0, i) = OccupancyGrid::kOccupied;
    grid->at(199, i) = OccupancyGrid::kOccupied;
  }
  return grid;
}

TEST(Bresenham, AxisAlignedExact) {
  auto room = make_room();
  const BresenhamCaster caster{room, 20.0};
  const Pose2 center{5.0, 5.0, 0.0};
  // Wall inner face at x = 9.95 (the wall cell starts there).
  EXPECT_NEAR(caster.range({5.0, 5.0, 0.0}), 4.95, 1e-6);
  EXPECT_NEAR(caster.range({5.0, 5.0, kPi}), 4.95, 1e-6);
  EXPECT_NEAR(caster.range({5.0, 5.0, kPi / 2.0}), 4.95, 1e-6);
  EXPECT_NEAR(caster.range({5.0, 5.0, -kPi / 2.0}), 4.95, 1e-6);
}

TEST(Bresenham, DiagonalExact) {
  auto room = make_room();
  const BresenhamCaster caster{room, 20.0};
  // 45 degrees from center: hits the corner region at ~4.95 * sqrt(2).
  EXPECT_NEAR(caster.range({5.0, 5.0, kPi / 4.0}), 4.95 * std::sqrt(2.0),
              0.08);
}

TEST(Bresenham, FromBlockedCellIsZero) {
  auto room = make_room();
  const BresenhamCaster caster{room, 20.0};
  EXPECT_FLOAT_EQ(caster.range({0.01, 0.01, 0.0}), 0.0F);
}

TEST(Bresenham, OutsideMapIsZero) {
  auto room = make_room();
  const BresenhamCaster caster{room, 20.0};
  EXPECT_FLOAT_EQ(caster.range({-5.0, -5.0, 0.0}), 0.0F);
}

TEST(Bresenham, MaxRangeCap) {
  auto room = make_room();
  const BresenhamCaster caster{room, 2.0};
  EXPECT_FLOAT_EQ(caster.range({5.0, 5.0, 0.0}), 2.0F);
}

TEST(RangeFactory, BuildsEveryKind) {
  auto room = make_room();
  RangeMethodOptions opt;
  opt.max_range = 12.0;
  for (const auto kind :
       {RangeMethodKind::kBresenham, RangeMethodKind::kRayMarching,
        RangeMethodKind::kCddt, RangeMethodKind::kLut}) {
    const auto method = make_range_method(kind, room, opt);
    ASSERT_NE(method, nullptr);
    EXPECT_EQ(method->name(), to_string(kind));
    EXPECT_NEAR(method->range({5.0, 5.0, 0.0}), 4.95, 0.2);
  }
}

TEST(RangeMethods, BatchMatchesScalar) {
  auto room = make_room();
  const Cddt cddt{room, 12.0};
  std::vector<Pose2> rays;
  Rng rng{5};
  for (int i = 0; i < 50; ++i) {
    rays.push_back(
        {rng.uniform(1.0, 9.0), rng.uniform(1.0, 9.0), rng.uniform(-3, 3)});
  }
  std::vector<float> out(rays.size());
  cddt.ranges(rays, out);
  for (std::size_t i = 0; i < rays.size(); ++i) {
    EXPECT_EQ(bits(out[i]), bits(cddt.range(rays[i]))) << i;
  }
}

TEST(Cddt, HasCompressedEntries) {
  auto room = make_room();
  const Cddt cddt{room, 12.0, 108};
  EXPECT_EQ(cddt.theta_bins(), 108);
  EXPECT_GT(cddt.total_entries(), 1000U);
  // Compression: entries should be far fewer than bins * all wall cells.
  EXPECT_LT(cddt.total_entries(), 108U * 800U * 2U);
}

TEST(Cddt, TestTrackTableIsPinned) {
  // The test track's table, entry for entry: its size and an FNV-1a over
  // the obstacle and offset arrays. The build sorts each band and keeps a
  // value only at least half a cell above the last kept one.
  const Track track = TrackGenerator::test_track();
  const Cddt cddt{std::make_shared<const OccupancyGrid>(track.grid), 12.0};
  EXPECT_EQ(cddt.total_entries(), 212886U);
  EXPECT_EQ(cddt.band_starts().size(), 44327U);
  std::uint64_t h = fnv1a_bytes(kFnv1aOffset, cddt.obstacles().data(),
                                cddt.obstacles().size_bytes());
  h = fnv1a_bytes(h, cddt.band_starts().data(),
                  cddt.band_starts().size_bytes());
  EXPECT_EQ(h, 0xbad163dc6200781fULL);
}

TEST(Lut, MemoryAccounting) {
  auto room = make_room();
  const RangeLut lut{room, 12.0, 60};
  // One 60-bin row of uint16 per cell inside the walls, plus the shared
  // zero row, plus a uint32 row offset for each of the 200 x 200 cells.
  EXPECT_EQ(lut.memory_bytes(),
            (198U * 198U + 1) * 60U * 2U + 200U * 200U * 4U);
}

// ---------------------------------------------------------------------------
// LUT build: every entry against the exact caster
// ---------------------------------------------------------------------------

/// Test-only oracle for the LUT build: the entry every free cell's centre
/// must hold per bin, filled one BresenhamCaster::range at a time.
/// Blocking cells hold 0.
std::vector<std::uint16_t> lut_oracle(
    const std::shared_ptr<const OccupancyGrid>& map, double max_range,
    int bins) {
  const BresenhamCaster exact{map, max_range};
  const double quantum = max_range / 65535.0;
  const auto n_bins = static_cast<std::size_t>(bins);
  std::vector<std::uint16_t> entries(map->size() * n_bins, 0);
  for (int iy = 0; iy < map->height(); ++iy) {
    for (int ix = 0; ix < map->width(); ++ix) {
      if (map->blocks_ray(ix, iy)) continue;
      const Vec2 p = map->grid_to_world(ix, iy);
      const std::size_t cell =
          static_cast<std::size_t>(iy) * map->width() + ix;
      for (int bt = 0; bt < bins; ++bt) {
        const float r = exact.range({p.x, p.y, kTwoPi * bt / bins});
        entries[cell * n_bins + bt] = static_cast<std::uint16_t>(
            std::clamp(std::lround(r / quantum), 0L, 65535L));
      }
    }
  }
  return entries;
}

/// Holds `lut` to the oracle through range(): at every free cell's centre
/// and bin heading, the oracle's entry.
void expect_lut_matches_oracle(const RangeLut& lut,
                               const std::vector<std::uint16_t>& oracle,
                               int bins, const std::string& label) {
  const OccupancyGrid& grid = lut.map();
  const double quantum = lut.max_range() / 65535.0;
  const auto n_bins = static_cast<std::size_t>(bins);
  std::size_t free_cells = 0;
  for (int iy = 0; iy < grid.height(); ++iy) {
    for (int ix = 0; ix < grid.width(); ++ix) {
      if (grid.blocks_ray(ix, iy)) continue;  // range() answers 0 unread
      ++free_cells;
      const Vec2 p = grid.grid_to_world(ix, iy);
      const std::size_t cell =
          static_cast<std::size_t>(iy) * grid.width() + ix;
      for (int bt = 0; bt < bins; ++bt) {
        const std::uint16_t q = oracle[cell * n_bins + bt];
        const float want = static_cast<float>(q * quantum);
        const float got = lut.range({p.x, p.y, kTwoPi * bt / bins});
        ASSERT_EQ(bits(got), bits(want))
            << label << ": cell (" << ix << ", " << iy << ") bin " << bt
            << ": " << got << " vs " << want;
      }
    }
  }
  EXPECT_EQ(lut.memory_bytes(),
            (free_cells + 1) * n_bins * 2U + grid.size() * 4U)
      << label;
}

/// Builds the LUT of `map` at every bin count and max range given, under
/// each SIMD backend, and holds every entry to the oracle.
void expect_lut_builds_exact(const std::string& name,
                             const std::shared_ptr<const OccupancyGrid>& map,
                             std::initializer_list<int> bin_counts,
                             std::initializer_list<double> max_ranges) {
  for (const double max_range : max_ranges) {
    for (const int bins : bin_counts) {
      const std::vector<std::uint16_t> oracle =
          lut_oracle(map, max_range, bins);
      for (const simd::Backend backend :
           {simd::Backend::kScalar, simd::Backend::kAvx2}) {
        simd::force(backend);
        const RangeLut lut{map, max_range, bins};
        simd::reset();
        expect_lut_matches_oracle(
            lut, oracle, bins,
            name + " " + std::to_string(bins) + " bins, max range " +
                std::to_string(max_range) + ", " + simd::name(backend));
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
  }
}

/// 41 x 29 cells at 5 cm whose origin is negative and off the cell lattice,
/// so `origin + ix * res` rounds per cell; scattered occupied and unknown
/// cells, and free cells on the border.
std::shared_ptr<const OccupancyGrid> make_unaligned() {
  auto grid = std::make_shared<OccupancyGrid>(
      41, 29, 0.05, Vec2{-3.1234567, -1.7654321}, OccupancyGrid::kFree);
  Rng rng{11};
  for (int iy = 0; iy < 29; ++iy) {
    for (int ix = 0; ix < 41; ++ix) {
      const double u = rng.uniform();
      if (u < 0.10) {
        grid->at(ix, iy) = OccupancyGrid::kOccupied;
      } else if (u < 0.13) {
        grid->at(ix, iy) = OccupancyGrid::kUnknown;
      }
    }
  }
  return grid;
}

/// Free up to its border except a 3 x 3 block: most rays leave the map,
/// where the first off-map cell ends them.
std::shared_ptr<const OccupancyGrid> make_open() {
  auto grid = std::make_shared<OccupancyGrid>(30, 20, 0.1, Vec2{0.5, -1.0},
                                              OccupancyGrid::kFree);
  for (int iy = 8; iy < 11; ++iy) {
    for (int ix = 12; ix < 15; ++ix) {
      grid->at(ix, iy) = OccupancyGrid::kOccupied;
    }
  }
  return grid;
}

/// One row or one column of free cells with one occupied cell.
std::shared_ptr<const OccupancyGrid> make_line(bool row) {
  auto grid = std::make_shared<OccupancyGrid>(row ? 40 : 1, row ? 1 : 40,
                                              0.05, Vec2{-0.2, 0.3},
                                              OccupancyGrid::kFree);
  if (row) {
    grid->at(25, 0) = OccupancyGrid::kOccupied;
  } else {
    grid->at(0, 25) = OccupancyGrid::kOccupied;
  }
  return grid;
}

TEST(LutBuild, SmallMapsMatchTheExactCaster) {
  // Bins 1, 7, 120 and 360: the last two put headings on multiples of 45
  // degrees, where rays pass through cell corners and the < tie rule picks
  // the path. A 0.3 m max range ends most walks on the over-range test.
  expect_lut_builds_exact("unaligned", make_unaligned(), {1, 7, 120, 360},
                          {0.3, 12.0});
  expect_lut_builds_exact("open", make_open(), {1, 7, 120, 360}, {0.3, 12.0});
  expect_lut_builds_exact("row", make_line(true), {1, 7, 120, 360},
                          {0.3, 12.0});
  expect_lut_builds_exact("column", make_line(false), {1, 7, 120, 360},
                          {0.3, 12.0});
}

TEST(LutBuild, MapWithoutFreeCellsIsTheZeroRow) {
  auto grid = std::make_shared<OccupancyGrid>(12, 9, 0.05, Vec2{0.0, 0.0},
                                              OccupancyGrid::kUnknown);
  for (int ix = 0; ix < 12; ++ix) grid->at(ix, 4) = OccupancyGrid::kOccupied;
  expect_lut_builds_exact("solid", grid, {1, 120}, {12.0});
  const RangeLut lut{grid, 12.0, 120};
  EXPECT_EQ(lut.memory_bytes(), 120U * 2U + 12U * 9U * 4U);
}

TEST(LutBuild, SlabPastTheUint32RangeThrows) {
  // 100 free cells of INT_MAX bins: the slab would need about 2^38
  // entries, and the constructor refuses before allocating it.
  auto grid = std::make_shared<const OccupancyGrid>(
      10, 10, 0.05, Vec2{0.0, 0.0}, OccupancyGrid::kFree);
  EXPECT_THROW((RangeLut{grid, 12.0, std::numeric_limits<int>::max()}),
               std::length_error);
}

TEST(LutBuild, RoomMatchesTheExactCaster) {
  // Long walks at 7 bins; the fine bin counts at the short range, which
  // keeps the oracle cheap.
  expect_lut_builds_exact("room", make_room(), {7, 120}, {0.3});
  expect_lut_builds_exact("room", make_room(), {7}, {12.0});
}

TEST(LutBuild, TestTrackMatchesTheExactCaster) {
  // The race configuration: 120 bins, 12 m.
  const Track track = TrackGenerator::test_track();
  expect_lut_builds_exact("test track",
                          std::make_shared<const OccupancyGrid>(track.grid),
                          {120}, {12.0});
}

struct MethodCase {
  RangeMethodKind kind;
  double tolerance;        ///< per-ray deviation counted as "agreeing"
  double max_outlier_frac; ///< allowed fraction of grazing-incidence outliers
};

/// Approximate backends are compared to the exact caster with quantile
/// acceptance: at grazing wall incidence a sub-milliradian angular snap
/// legitimately changes a range by meters (the same behavior rangelibc
/// documents), so a small outlier fraction is expected, but the bulk of the
/// distribution must agree tightly.
class ApproxVsExact : public ::testing::TestWithParam<MethodCase> {};

TEST_P(ApproxVsExact, AgreesWithBresenhamOnTracks) {
  const MethodCase param = GetParam();
  Rng rng{2024};
  const Track track = TrackGenerator::test_track();
  auto map = std::make_shared<const OccupancyGrid>(track.grid);
  RangeMethodOptions opt;
  opt.max_range = 12.0;
  const auto method = make_range_method(param.kind, map, opt);
  const BresenhamCaster exact{map, 12.0};

  std::vector<double> errors;
  for (int i = 0; i < 4000; ++i) {
    // Random pose on the corridor (reuse centerline + jitter).
    const auto& cl = track.centerline;
    const Vec2 base = cl[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<int>(cl.size()) - 1))];
    const Pose2 ray{base.x + rng.gaussian(0.3), base.y + rng.gaussian(0.3),
                    rng.uniform(-kPi, kPi)};
    const GridIndex g = map->world_to_grid({ray.x, ray.y});
    if (!map->in_bounds(g.ix, g.iy) || map->blocks_ray(g.ix, g.iy)) continue;
    const float ref = exact.range(ray);
    const float got = method->range(ray);
    ASSERT_TRUE(std::isfinite(got));
    EXPECT_GE(got, 0.0F);
    EXPECT_LE(got, 12.0F + 1e-4F);
    errors.push_back(std::abs(static_cast<double>(got - ref)));
  }
  ASSERT_GT(errors.size(), 2000U);

  std::size_t outliers = 0;
  for (double e : errors) {
    if (e > param.tolerance) ++outliers;
  }
  const double outlier_frac =
      static_cast<double>(outliers) / static_cast<double>(errors.size());
  EXPECT_LT(outlier_frac, param.max_outlier_frac) << method->name();
  EXPECT_LT(median(errors), 0.05) << method->name();
  EXPECT_LT(percentile(errors, 90.0), param.tolerance) << method->name();
}

INSTANTIATE_TEST_SUITE_P(
    Methods, ApproxVsExact,
    ::testing::Values(
        MethodCase{RangeMethodKind::kRayMarching, 0.15, 0.03},
        MethodCase{RangeMethodKind::kCddt, 0.30, 0.08},
        MethodCase{RangeMethodKind::kLut, 0.30, 0.08}),
    [](const ::testing::TestParamInfo<MethodCase>& info) {
      return to_string(info.param.kind);
    });

TEST(RangeMethods, BackendsAgreeOnOutOfMapAndBoundaryPoses) {
  // A query pose outside the map (or on a blocking boundary cell) is not an
  // error — a diverged particle can propose one — and every backend must
  // answer the same way: range 0. This includes far-away poses whose naive
  // world->cell cast would be UB and poses with arbitrary-magnitude headings.
  auto room = make_room();  // 10 m x 10 m, origin (0, 0)
  RangeMethodOptions opt;
  opt.max_range = 12.0;
  std::vector<std::unique_ptr<RangeMethod>> methods;
  for (const auto kind :
       {RangeMethodKind::kBresenham, RangeMethodKind::kRayMarching,
        RangeMethodKind::kCddt, RangeMethodKind::kLut}) {
    methods.push_back(make_range_method(kind, room, opt));
  }

  const Pose2 cases[] = {
      {-0.01, 5.0, 0.0},          // just past the left border
      {10.01, 5.0, kPi},          // just past the right border
      {5.0, -0.01, kPi / 2.0},    // just below
      {5.0, 10.01, -kPi / 2.0},   // just above
      {0.01, 0.01, 0.3},          // inside the map, on the boundary wall cell
      {9.99, 9.99, -2.0},         // opposite wall corner cell
      {-5.0, -5.0, 0.7},          // clearly outside
      {1e6, 1e6, 0.0},            // far outside, would overflow int cells
      {-1e9, 3.0, 1.0},           // negative-far
      {1e300, -1e300, 2.0},       // astronomically far
      {-3.0, -3.0, 1e8},          // outside with a huge heading
  };
  for (const Pose2& pose : cases) {
    for (const auto& method : methods) {
      EXPECT_EQ(method->range(pose), 0.0F)
          << method->name() << " at (" << pose.x << ", " << pose.y << ", "
          << pose.theta << ")";
    }
  }
}

TEST(RangeMethods, HugeHeadingsInMapAreDefined) {
  // In-map poses with arbitrary-magnitude headings must yield a valid range
  // from every backend (the old per-backend wrap loops were O(|theta|)).
  auto room = make_room();
  RangeMethodOptions opt;
  opt.max_range = 12.0;
  for (const auto kind :
       {RangeMethodKind::kBresenham, RangeMethodKind::kRayMarching,
        RangeMethodKind::kCddt, RangeMethodKind::kLut}) {
    const auto method = make_range_method(kind, room, opt);
    for (double theta : {1e7, -1e7, 4.0e15, -4.0e15}) {
      const float r = method->range({5.0, 5.0, theta});
      EXPECT_TRUE(std::isfinite(r)) << method->name() << " theta=" << theta;
      EXPECT_GE(r, 0.0F) << method->name() << " theta=" << theta;
      EXPECT_LE(r, 12.0F + 1e-4F) << method->name() << " theta=" << theta;
    }
  }
}

TEST(RangeMethods, ExactAngleAgreement) {
  // When the query angle is exactly on a discretization bin, CDDT and LUT
  // errors collapse to the band/cell level.
  auto room = make_room();
  const Cddt cddt{room, 12.0, 108};
  const RangeLut lut{room, 12.0, 120};
  const BresenhamCaster exact{room, 12.0};
  // theta = 0 is a bin center for both.
  for (double y = 1.0; y < 9.0; y += 0.73) {
    const Pose2 ray{2.0, y, 0.0};
    EXPECT_NEAR(cddt.range(ray), exact.range(ray), 0.1) << y;
    EXPECT_NEAR(lut.range(ray), exact.range(ray), 0.1) << y;
  }
}

TEST(RayMarching, NeverOvershootsWalls) {
  // Sphere tracing can stop early but must never report a range that puts
  // the endpoint beyond a blocking cell.
  auto room = make_room();
  const RayMarching rm{room, 12.0};
  const BresenhamCaster exact{room, 12.0};
  Rng rng{77};
  for (int i = 0; i < 500; ++i) {
    const Pose2 ray{rng.uniform(0.5, 9.5), rng.uniform(0.5, 9.5),
                    rng.uniform(-kPi, kPi)};
    const GridIndex g = room->world_to_grid({ray.x, ray.y});
    if (room->blocks_ray(g.ix, g.iy)) continue;
    EXPECT_LE(rm.range(ray), exact.range(ray) + 0.08);
  }
}

// ---------------------------------------------------------------------------
// Batch kernels against the per-ray reference, bit for bit, on both backends
// ---------------------------------------------------------------------------

/// Pins one SIMD backend for a scope; a failed ASSERT still unpins.
struct ForcedBackend {
  explicit ForcedBackend(simd::Backend backend) { simd::force(backend); }
  ~ForcedBackend() { simd::reset(); }
  ForcedBackend(const ForcedBackend&) = delete;
  ForcedBackend& operator=(const ForcedBackend&) = delete;
};

/// The backends this host runs: scalar always, AVX2 where the CPU has it.
std::vector<simd::Backend> host_backends() {
  if (simd::cpu_has_avx2()) {
    return {simd::Backend::kScalar, simd::Backend::kAvx2};
  }
  std::fprintf(stderr,
               "[range] NOTE: host CPU lacks AVX2; batch kernels checked "
               "against the scalar backend only\n");
  return {simd::Backend::kScalar};
}

/// Free 8 m x 6 m at 5 cm with a few isolated obstacle cells and a short
/// wall: almost every CDDT band is empty or holds one entry, and rays that
/// miss every obstacle end at the map border.
std::shared_ptr<const OccupancyGrid> make_sparse() {
  auto grid = std::make_shared<OccupancyGrid>(160, 120, 0.05, Vec2{-2.0, 1.0},
                                              OccupancyGrid::kFree);
  grid->at(80, 60) = OccupancyGrid::kOccupied;
  grid->at(20, 100) = OccupancyGrid::kOccupied;
  grid->at(140, 15) = OccupancyGrid::kUnknown;
  for (int i = 30; i < 36; ++i) grid->at(i, 30) = OccupancyGrid::kOccupied;
  return grid;
}

/// CDDT beam counts: empty, single, sub-group, group plus one, SynPF's
/// de-duplicated 37, the filter's 60 plus one, and the simulated LiDAR's
/// 1081 (more than one batch of sixteen groups).
constexpr std::size_t kBeamCounts[] = {0, 1, 2, 3, 5, 37, 61, 1081};

/// Ray-marching ray counts: around one group (4) and one block (32) of the
/// batch, two blocks and the simulated LiDAR's 1081.
constexpr std::size_t kRayCounts[] = {0,  1,  3,  4,  5,  31,
                                      32, 33, 63, 65, 1081};

/// A LiDAR-like fan of `n` beams over 270 degrees.
std::vector<double> fan(std::size_t n) {
  std::vector<double> angles(n);
  for (std::size_t j = 0; j < n; ++j) {
    angles[j] = n > 1 ? -0.75 * kPi + 1.5 * kPi * static_cast<double>(j) /
                                          static_cast<double>(n - 1)
                      : 0.4;
  }
  return angles;
}

/// Headings of the wrap regions: zero and its neighbours, each side of +-pi
/// and +-2pi, the (-2pi, -pi) region, and beyond +-2pi (the scalar
/// fallback), up to magnitudes where wrap_into needs fmod.
std::vector<double> wrap_headings() {
  std::vector<double> headings = {0.0, -0.0, 0.3, -0.3, 1.0e7, -1.0e7, 7.0,
                                  -7.0, 12.6, -12.6, -1.5 * kPi, 1.5 * kPi};
  for (const double edge : {kPi, kTwoPi}) {
    for (const double a : {edge, -edge}) {
      headings.push_back(a);
      headings.push_back(std::nextafter(a, 0.0));
      headings.push_back(std::nextafter(a, 2.0 * a));
    }
  }
  return headings;
}

/// Beam offsets that land a heading of 0 exactly on, and one ulp either
/// side of, every wrap boundary.
std::vector<double> boundary_angles() {
  std::vector<double> angles;
  for (const double edge : {0.0, kPi, kTwoPi, 2.0 * kTwoPi}) {
    for (const double a : {edge, -edge}) {
      angles.push_back(a);
      angles.push_back(std::nextafter(a, -1e9));
      angles.push_back(std::nextafter(a, 1e9));
    }
  }
  return angles;
}

/// Beam offsets that put a heading of 0 on the edges of the AVX2 direction
/// test for `bins` bins: the line angle where the bin rounds up to `bins`
/// and wraps to bin 0, in every wrap region of the heading, and headings a
/// hair below 0, whose wrap into [0, pi) rounds up to pi and reads +0.0.
std::vector<double> direction_angles(int bins) {
  const double edge = kPi * (bins - 0.5) / bins;
  std::vector<double> angles = {
      -1e-300,  -0x1p-60, -0x1p-53, -0x1p-52,
      -0x1p-51, -std::numeric_limits<double>::denorm_min()};
  for (const double shift : {0.0, -kPi, -kTwoPi, kPi}) {
    double a = edge + shift;
    for (int i = 0; i < 3; ++i) a = std::nextafter(a, -1e9);
    for (int i = 0; i < 7; ++i) {
      angles.push_back(a);
      a = std::nextafter(a, 1e9);
    }
  }
  return angles;
}

/// Every CDDT batch equals range() beam by beam, under the pinned backend.
void expect_cddt_batch_matches(const Cddt& cddt, const Pose2& sensor,
                               const std::vector<double>& angles) {
  std::vector<float> out(angles.size(), -1.0F);
  cddt.ranges_from(sensor, angles, out);
  for (std::size_t j = 0; j < angles.size(); ++j) {
    const float want =
        cddt.range({sensor.x, sensor.y, sensor.theta + angles[j]});
    ASSERT_EQ(bits(out[j]), bits(want))
        << "beam " << j << " of " << angles.size() << " at (" << sensor.x
        << ", " << sensor.y << ", " << sensor.theta << ") + " << angles[j]
        << ": " << out[j] << " vs " << want;
  }
}

TEST(BatchKernels, CddtRangesFromMatchesRangeBitwise) {
  const Track track = TrackGenerator::test_track();
  const auto track_map = std::make_shared<const OccupancyGrid>(track.grid);
  // Seven bins and one bin (always the scalar loop) as well as the default.
  const Cddt maps[] = {Cddt{make_room(), 12.0}, Cddt{make_sparse(), 12.0},
                       Cddt{track_map, 12.0}, Cddt{make_room(), 3.0, 7},
                       Cddt{make_room(), 12.0, 1}};
  // Free cells, an origin on a wall surface, one off the map and one in an
  // unknown cell; the last two return zeros for the whole fan.
  const Vec2 origins[] = {{5.0, 5.0},  {0.4, 9.3},  {9.96, 5.0},
                          {2.0, 4.0},  {1.55, 2.53}, {-3.0, 2.0},
                          {5.04, 1.78}, {track.centerline[10].x,
                                         track.centerline[10].y}};
  const std::vector<double> headings = wrap_headings();
  for (const simd::Backend backend : host_backends()) {
    SCOPED_TRACE(simd::name(backend));
    const ForcedBackend pin{backend};
    for (const Cddt& cddt : maps) {
      for (const Vec2& o : origins) {
        for (const double heading : headings) {
          for (const std::size_t n : kBeamCounts) {
            expect_cddt_batch_matches(cddt, {o.x, o.y, heading}, fan(n));
          }
        }
        expect_cddt_batch_matches(cddt, {o.x, o.y, 0.0}, boundary_angles());
        expect_cddt_batch_matches(cddt, {o.x, o.y, 0.0},
                                  direction_angles(cddt.theta_bins()));
      }
    }
  }
}

TEST(BatchKernels, CddtRangesFromMatchesRangeOnTrackPoses) {
  // Filter-shaped work: 60 beams from particles scattered on the corridor.
  const Track track = TrackGenerator::test_track();
  const auto map = std::make_shared<const OccupancyGrid>(track.grid);
  const Cddt cddt{map, 12.0};
  const std::vector<double> angles = fan(60);
  for (const simd::Backend backend : host_backends()) {
    SCOPED_TRACE(simd::name(backend));
    const ForcedBackend pin{backend};
    Rng rng{11};
    for (int i = 0; i < 400; ++i) {
      const Vec2 base = track.centerline[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<int>(track.centerline.size()) - 1))];
      expect_cddt_batch_matches(
          cddt,
          {base.x + rng.gaussian(0.4), base.y + rng.gaussian(0.4),
           rng.uniform(-kPi, kPi)},
          angles);
    }
  }
}

TEST(BatchKernels, CddtSearchKeyEqualToAnObstacle) {
  // A 3 cm grid with walls in columns 11 and 30. Along bin 0, from x =
  // 11 * 0.03 (in cell 10) the key u + slack equals the column-11 wall's u
  // exactly, and from x = 31 * 0.03 the key u - slack equals the column-30
  // wall's u. Looking away from those walls nothing is in the way, so the
  // ray reads max range; with upper_bound and lower_bound swapped it would
  // read the wall behind it, clamped to 0.
  auto grid = std::make_shared<OccupancyGrid>(40, 40, 0.03, Vec2{0.0, 0.0},
                                              OccupancyGrid::kFree);
  for (int iy = 0; iy < 40; ++iy) {
    grid->at(11, iy) = OccupancyGrid::kOccupied;
    grid->at(30, iy) = OccupancyGrid::kOccupied;
  }
  const Cddt cddt{grid, 12.0};
  const std::vector<double> angles = {0.0, kPi, 0.0, kPi, kPi, 0.0, kPi, 0.0};
  const Pose2 behind_wall{11 * 0.03, 0.61, 0.0};
  const Pose2 ahead_of_wall{31 * 0.03, 0.61, 0.0};
  EXPECT_EQ(cddt.range({behind_wall.x, behind_wall.y, kPi}), 12.0F);
  EXPECT_EQ(cddt.range({ahead_of_wall.x, ahead_of_wall.y, 0.0}), 12.0F);
  for (const simd::Backend backend : host_backends()) {
    SCOPED_TRACE(simd::name(backend));
    const ForcedBackend pin{backend};
    expect_cddt_batch_matches(cddt, behind_wall, angles);
    expect_cddt_batch_matches(cddt, ahead_of_wall, angles);
  }
}

TEST(BatchKernels, CddtNonFiniteBeamAnglesMatchRange) {
  // Release only: range() on a non-finite heading is a contract violation
  // in a checked build, while the batch only checks the sensor pose.
  if (contracts::enabled()) GTEST_SKIP() << "checked build";
  const Cddt cddt{make_room(), 12.0};
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> angles = fan(13);
  angles[1] = nan;
  angles[6] = inf;
  angles[11] = -inf;
  for (const simd::Backend backend : host_backends()) {
    SCOPED_TRACE(simd::name(backend));
    const ForcedBackend pin{backend};
    expect_cddt_batch_matches(cddt, {5.0, 5.0, 0.2}, angles);
  }
}

/// Every ray-marching batch equals range() ray by ray, under the pinned
/// backend.
void expect_marching_batch_matches(const RayMarching& caster,
                                   const std::vector<Pose2>& rays) {
  std::vector<float> out(rays.size(), -1.0F);
  caster.ranges(rays, out);
  for (std::size_t i = 0; i < rays.size(); ++i) {
    const float want = caster.range(rays[i]);
    ASSERT_EQ(bits(out[i]), bits(want))
        << "ray " << i << " of " << rays.size() << " at (" << rays[i].x
        << ", " << rays[i].y << ", " << rays[i].theta << "): " << out[i]
        << " vs " << want;
  }
}

/// `n` LiDAR-like rays cycling over the given origins, so one group of
/// four mixes free, blocked and off-map origins.
std::vector<Pose2> ray_fan(std::size_t n, const std::vector<Pose2>& origins) {
  const std::vector<double> angles = fan(n);
  std::vector<Pose2> rays;
  for (std::size_t i = 0; i < n; ++i) {
    const Pose2& o = origins[i % origins.size()];
    rays.push_back({o.x, o.y, o.theta + angles[i]});
  }
  return rays;
}

TEST(BatchKernels, RayMarchingRangesMatchesRangeBitwise) {
  const Track track = TrackGenerator::test_track();
  const auto track_map = std::make_shared<const OccupancyGrid>(track.grid);
  // A short max range ends rays in open space; the sparse map ends them at
  // its border, which reads as blocking.
  const RayMarching casters[] = {
      RayMarching{make_room(), 12.0}, RayMarching{make_room(), 2.5},
      RayMarching{make_sparse(), 20.0}, RayMarching{track_map, 12.0}};
  const Vec2 c = track.centerline[25];
  const std::vector<Pose2> origins = {
      {5.0, 5.0, 0.0},   {0.4, 9.3, 2.0},    {9.99, 9.99, -2.0},
      {-0.01, 5.0, 0.0}, {1e6, -1e6, 1.0},   {1e300, 2.0, 0.5},
      {c.x, c.y, 1.0e7}, {2.0, 4.0, -7.0},   {1.55, 2.53, 0.1},
      {5.04, 1.78, -2.9}, {c.x, c.y, -3.1},
  };
  for (const simd::Backend backend : host_backends()) {
    SCOPED_TRACE(simd::name(backend));
    const ForcedBackend pin{backend};
    for (const RayMarching& caster : casters) {
      for (const std::size_t n : kRayCounts) {
        expect_marching_batch_matches(caster, ray_fan(n, origins));
      }
      // One origin per call: the whole block shares its fate.
      for (const Pose2& o : origins) {
        expect_marching_batch_matches(caster, ray_fan(61, {o}));
      }
    }
  }
}

TEST(BatchKernels, RayMarchingNonFiniteHeadingsMatchRange) {
  if (contracts::enabled()) GTEST_SKIP() << "checked build";
  const RayMarching caster{make_room(), 12.0};
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<Pose2> rays = ray_fan(11, {{5.0, 5.0, 0.0}, {2.0, 7.5, 1.0}});
  rays[0].theta = nan;
  rays[4].theta = inf;
  rays[9].theta = -inf;
  for (const simd::Backend backend : host_backends()) {
    SCOPED_TRACE(simd::name(backend));
    const ForcedBackend pin{backend};
    expect_marching_batch_matches(caster, rays);
  }
}

#if defined(SRL_SIMD_X86_AVX2)
/// range_avx2::wrap_into (or its wide form) on four inputs, unpacked.
/// `odd` is the parity of the periods the wrap moved each lane by.
__attribute__((target("avx2"))) void wrap4(const double* a, double period,
                                           bool wide, double* value,
                                           double* inside, double* odd) {
  const __m256d v = _mm256_loadu_pd(a);
  const range_avx2::Wrapped4 w = wide ? range_avx2::wrap_into_wide(v, period)
                                      : range_avx2::wrap_into(v, period);
  _mm256_storeu_pd(value, w.value);
  _mm256_storeu_pd(inside, w.inside);
  _mm256_storeu_pd(odd, w.odd);
  _mm256_zeroupper();
}
#endif

TEST(BatchKernels, VectorWrapMatchesScalarWrapInto) {
#if defined(SRL_SIMD_X86_AVX2)
  if (!simd::cpu_has_avx2()) GTEST_SKIP() << "host CPU lacks AVX2";
  for (const double p : {kPi, kTwoPi}) {
    std::vector<double> inputs = {
        std::numeric_limits<double>::quiet_NaN(),
        std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity(), 0.5 * p, -0.5 * p,
        1.5 * p, -1.5 * p, 3.0 * p, -3.0 * p, 1e-300, -1e-300,
        -0x1p-53, -0x1p-51, -p - 0x1p-50};
    for (const double edge : {0.0, p, 2.0 * p}) {
      for (const double a : {edge, -edge}) {
        inputs.push_back(a);
        inputs.push_back(std::nextafter(a, -1e9));
        inputs.push_back(std::nextafter(a, 1e9));
      }
    }
    while (inputs.size() % 4 != 0) inputs.push_back(0.0);
    for (const bool wide : {false, true}) {
      for (std::size_t i = 0; i < inputs.size(); i += 4) {
        double value[4] = {};
        double inside[4] = {};
        double odd[4] = {};
        wrap4(inputs.data() + i, p, wide, value, inside, odd);
        for (std::size_t l = 0; l < 4; ++l) {
          const double a = inputs[i + l];
          const bool covered =
              wide ? a > -2.0 * p && a < 2.0 * p : a >= -p && a < 2.0 * p;
          EXPECT_EQ(bits(inside[l]) != 0, covered)
              << a << " period " << p << (wide ? " wide" : "");
          if (covered) {
            EXPECT_EQ(bits(value[l]), bits(wrap_into(a, p)))
                << std::hexfloat << a << " period " << p
                << (wide ? " wide: " : ": ") << value[l] << " vs "
                << wrap_into(a, p);
            // Periods moved, a sum that rounds up to p counting as p.
            bool odd_periods = a >= p;
            if (a < 0.0 && a >= -p) odd_periods = a + p < p;
            if (a < -p) odd_periods = !((a + p) + p < p);
            EXPECT_EQ(bits(odd[l]) != 0, odd_periods)
                << std::hexfloat << a << " period " << p
                << (wide ? " wide" : "");
          }
        }
      }
    }
  }
#else
  GTEST_SKIP() << "no AVX2 kernels in this build";
#endif
}

}  // namespace
}  // namespace srl
