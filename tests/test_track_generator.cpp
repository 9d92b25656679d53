#include "gridmap/track_generator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/fnv1a.hpp"
#include "common/json.hpp"
#include "common/polyline.hpp"
#include "eval/frontier/scenario_sampler.hpp"
#include "gridmap/distance_transform.hpp"

#ifndef SRL_TEST_DATA_DIR
#define SRL_TEST_DATA_DIR "tests/data"
#endif

namespace srl {
namespace {

const char* kGridsPath = SRL_TEST_DATA_DIR "/golden_track_grids.txt";

bool regen_requested() {
  const char* env = std::getenv("SRL_REGEN_GOLDEN");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

std::uint64_t grid_hash(const OccupancyGrid& grid) {
  return fnv1a_bytes(kFnv1aOffset, grid.data().data(), grid.data().size());
}

/// Every circuit the repo races or replays, named by its black-box recipe:
/// the named circuits, the raced oval and the largest a recipe may ask for,
/// and the three frontier classes at the search's default sampler seed;
/// then one seeded random circuit.
std::vector<std::pair<std::string, Track>> recipe_tracks() {
  std::vector<std::pair<std::string, Track>> tracks;
  tracks.emplace_back("test_track", TrackGenerator::test_track());
  tracks.emplace_back("hairpin", TrackGenerator::hairpin());
  tracks.emplace_back("oval:8,2.5", TrackGenerator::oval(8.0, 2.5));
  tracks.emplace_back("oval:50,50", TrackGenerator::oval(50.0, 50.0));
  const frontier::ScenarioSampler sampler{0xF407};
  for (int cls = 0; cls < 3; ++cls) {
    frontier::ScenarioKey key;
    key.track_class = cls;
    const frontier::SampledScenario scenario = sampler.sample(key.pack());
    tracks.emplace_back(frontier::ScenarioSampler::replay_recipe(
                            sampler.seed(), key.pack()),
                        sampler.build_track(scenario));
  }
  Rng rng{0x5EED};
  tracks.emplace_back("random_circuit:0x5eed",
                      TrackGenerator::random_circuit(rng, 10, 6.0, 1.5));
  return tracks;
}

/// One line per circuit: recipe, width, height, origin (hexfloat) and the
/// FNV-1a of the cell bytes.
std::vector<std::string> grid_lines() {
  std::vector<std::string> lines;
  for (const auto& [recipe, track] : recipe_tracks()) {
    const OccupancyGrid& g = track.grid;
    std::ostringstream os;
    os << std::hexfloat << recipe << ' ' << g.width() << ' ' << g.height()
       << ' ' << g.origin().x << ' ' << g.origin().y << ' '
       << json::format_hex64(grid_hash(g));
    lines.push_back(os.str());
  }
  return lines;
}

void expect_valid_track(const Track& track, const TrackSpec& spec) {
  ASSERT_GE(track.centerline.size(), 10U);
  // Canonical CCW orientation.
  EXPECT_GT(signed_area(track.centerline), 0.0);
  // Every centerline point sits in free space with at least ~the corridor
  // half width of clearance (minus rasterization slack).
  const DistanceField df = distance_transform(track.grid);
  for (const Vec2& p : track.centerline) {
    EXPECT_TRUE(track.grid.is_free_at(p)) << p.x << "," << p.y;
    EXPECT_GT(df.at_world(p), 0.7 * spec.half_width) << p.x << "," << p.y;
  }
  // The corridor is enclosed: walls exist.
  EXPECT_GT(track.grid.count(OccupancyGrid::kOccupied), 100U);
  EXPECT_GT(track.grid.count(OccupancyGrid::kFree), 100U);
}

/// The rasterizer's original disk stamp, kept as the reference: it tests
/// every cell of the (2 rad + 1)^2 box around the center's cell.
template <typename Pred>
void stamp_disk(OccupancyGrid& grid, const Vec2& c, double r,
                std::int8_t value, Pred pred) {
  const double res = grid.resolution();
  const GridIndex center = grid.world_to_grid(c);
  const int rad = static_cast<int>(std::ceil(r / res)) + 1;
  const double r2 = r * r;
  for (int dy = -rad; dy <= rad; ++dy) {
    for (int dx = -rad; dx <= rad; ++dx) {
      const int ix = center.ix + dx;
      const int iy = center.iy + dy;
      if (!grid.in_bounds(ix, iy)) continue;
      if (!disk_covers_cell(grid, ix, iy, c, r2)) continue;
      std::int8_t& cell = grid.at(ix, iy);
      if (pred(cell)) cell = value;
    }
  }
}

/// The grid the original two stamp passes build on `track`'s geometry.
OccupancyGrid oracle_grid(const Track& track, const TrackSpec& spec) {
  OccupancyGrid grid{track.grid.width(), track.grid.height(),
                     track.grid.resolution(), track.grid.origin(),
                     OccupancyGrid::kUnknown};
  const std::vector<Vec2> dense =
      resample_closed(track.centerline, spec.resolution * 0.5);
  const double wall_r = spec.half_width + spec.wall_thickness;
  for (const Vec2& p : dense) {
    stamp_disk(grid, p, wall_r, OccupancyGrid::kOccupied,
               [](std::int8_t v) { return v == OccupancyGrid::kUnknown; });
  }
  for (const Vec2& p : dense) {
    stamp_disk(grid, p, spec.half_width, OccupancyGrid::kFree,
               [](std::int8_t) { return true; });
  }
  return grid;
}

void expect_matches_oracle(const Track& track, const TrackSpec& spec,
                           const std::string& label) {
  const OccupancyGrid want = oracle_grid(track, spec);
  const std::vector<std::int8_t>& got = track.grid.data();
  ASSERT_EQ(got.size(), want.data().size()) << label;
  const auto [g, w] = std::mismatch(got.begin(), got.end(),
                                    want.data().begin());
  if (g == got.end()) return;
  const auto i = static_cast<int>(g - got.begin());
  ADD_FAILURE() << label << ": first differing cell (" << i % want.width()
                << ", " << i / want.width() << ") is " << int{*g}
                << ", the disk stamp gives " << int{*w};
}

TEST(TrackGenerator, OvalIsValid) {
  const TrackSpec spec;
  const Track track = TrackGenerator::oval(6.0, 2.0, spec);
  expect_valid_track(track, spec);
}

TEST(TrackGenerator, OvalCenterlineLength) {
  const Track track = TrackGenerator::oval(6.0, 2.0);
  // Stadium perimeter: 2 straights + full circle = 2*6 + 2*pi*2.
  const double expected = 12.0 + kTwoPi * 2.0;
  EXPECT_NEAR(polyline_length(track.centerline, true), expected,
              0.05 * expected);
}

TEST(TrackGenerator, RoundedRectIsValid) {
  const TrackSpec spec;
  const Track track = TrackGenerator::rounded_rect(14.0, 8.0, 2.0, spec);
  expect_valid_track(track, spec);
}

TEST(TrackGenerator, TestTrackIsValid) {
  const TrackSpec spec;
  const Track track = TrackGenerator::test_track(spec);
  expect_valid_track(track, spec);
  // The Table-I geometry: lap length around 43-47 m.
  const double len = polyline_length(track.centerline, true);
  EXPECT_GT(len, 35.0);
  EXPECT_LT(len, 55.0);
}

TEST(TrackGenerator, HairpinIsValid) {
  const TrackSpec spec;
  const Track track = TrackGenerator::hairpin(spec);
  expect_valid_track(track, spec);
}

TEST(TrackGenerator, CustomSpecRespected) {
  TrackSpec spec;
  spec.half_width = 0.8;
  spec.resolution = 0.1;
  const Track track = TrackGenerator::oval(5.0, 1.8, spec);
  EXPECT_DOUBLE_EQ(track.grid.resolution(), 0.1);
  EXPECT_DOUBLE_EQ(track.half_width, 0.8);
  expect_valid_track(track, spec);
}

TEST(TrackGenerator, CorridorWidthMatchesSpec) {
  TrackSpec spec;
  spec.half_width = 1.0;
  const Track track = TrackGenerator::oval(8.0, 2.5, spec);
  const DistanceField df = distance_transform(track.grid);
  // At centerline points along the straight, wall distance ~ half width.
  int checked = 0;
  for (const Vec2& p : track.centerline) {
    if (std::abs(p.y + 2.5) < 0.05 && std::abs(p.x) < 3.0) {
      EXPECT_NEAR(df.at_world(p), spec.half_width, 0.15);
      ++checked;
    }
  }
  EXPECT_GT(checked, 5);
}

class RandomCircuit : public ::testing::TestWithParam<int> {};

TEST_P(RandomCircuit, AlwaysValid) {
  Rng rng{static_cast<std::uint64_t>(GetParam())};
  const TrackSpec spec;
  const Track track =
      TrackGenerator::random_circuit(rng, 10, 6.0, 1.5, spec);
  expect_valid_track(track, spec);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomCircuit, ::testing::Range(1, 9));

/// Closed waypoints around a ring of `radius` with radial jitter.
std::vector<Vec2> jittered_ring(Rng& rng, int n, double radius,
                                double jitter) {
  std::vector<Vec2> pts;
  for (int i = 0; i < n; ++i) {
    const double a = kTwoPi * i / n;
    const double r = radius + rng.uniform(-jitter, jitter);
    pts.emplace_back(r * std::cos(a), r * std::sin(a));
  }
  return pts;
}

/// The span cover equals the original per-cell disk stamp byte for byte
/// over 102 seeded specs: rounded rectangles and Chaikin circuits at 0.04,
/// 0.05 and 0.1 m, random corridor, wall and margin (every fifth margin
/// zero, so disks cross the grid's edge; small circuits, so a corridor
/// often overlaps itself), then 12 corridors a few cells wide, a tiny
/// self-overlapping oval and the largest oval a black-box recipe may ask
/// for.
TEST(TrackGenerator, SpanCoverMatchesDiskStampOracle) {
  constexpr double kResolutions[] = {0.04, 0.05, 0.1};
  Rng rng{0x0AC1E};
  for (int i = 0; i < 102; ++i) {
    TrackSpec spec;
    spec.resolution = kResolutions[i % 3];
    spec.half_width = rng.uniform(0.7, 1.4);
    spec.wall_thickness = rng.uniform(0.1, 0.4);
    spec.margin = i % 5 == 0 ? 0.0 : rng.uniform(0.0, 1.0);
    const double a = rng.uniform();
    const double b = rng.uniform();
    const double c = rng.uniform();
    const Track track =
        i % 2 == 0
            ? TrackGenerator::rounded_rect(3.0 + 6.0 * a, 2.0 + 4.0 * b,
                                           0.3 + 2.2 * c, spec)
            : TrackGenerator::from_waypoints(
                  jittered_ring(rng, 5 + i % 5, 1.5 + 2.0 * a, 0.6 * b),
                  spec, 1 + i % 3);
    expect_matches_oracle(track, spec, "spec " + std::to_string(i));
  }
  // Corridors a few cells wide with no margin: runs of one or two cells,
  // some in the grid's edge columns.
  for (int i = 0; i < 12; ++i) {
    TrackSpec thin;
    thin.resolution = kResolutions[i % 3];
    thin.half_width = rng.uniform(0.0, 0.1);
    thin.wall_thickness = rng.uniform(0.0, 0.05);
    thin.margin = 0.0;
    const double a = rng.uniform();
    expect_matches_oracle(
        TrackGenerator::rounded_rect(2.0 + 4.0 * a, 2.0, 0.5, thin), thin,
        "thin spec " + std::to_string(i));
  }
  TrackSpec coarse;
  coarse.resolution = 0.1;
  expect_matches_oracle(TrackGenerator::oval(0.2, 0.3, coarse), coarse,
                        "oval:0.2,0.3 at 0.1 m");
  const TrackSpec spec;
  expect_matches_oracle(TrackGenerator::oval(0.2, 0.3, spec), spec,
                        "oval:0.2,0.3");
  expect_matches_oracle(TrackGenerator::oval(50.0, 50.0, spec), spec,
                        "oval:50,50");
}

/// `rasterize` names the field it rejects.
void expect_rejects(const std::vector<Vec2>& centerline,
                    const TrackSpec& spec, const std::string& field) {
  try {
    (void)TrackGenerator::rasterize(centerline, spec);
    ADD_FAILURE() << "accepted a bad " << field;
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string{e.what()}.find(field), std::string::npos)
        << e.what();
  }
}

const std::vector<Vec2> kTriangle{{0.0, 0.0}, {6.0, 0.0}, {3.0, 4.0}};
constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(TrackGenerator, RejectsFewerThanThreePoints) {
  expect_rejects({}, TrackSpec{}, "fewer than 3 points");
  expect_rejects({{0.0, 0.0}, {5.0, 0.0}}, TrackSpec{}, "fewer than 3 points");
}

TEST(TrackGenerator, RejectsNonFinitePoint) {
  for (const double v : {kNan, kInf, -kInf}) {
    std::vector<Vec2> pts = kTriangle;
    pts[1].x = v;
    expect_rejects(pts, TrackSpec{}, "non-finite point");
    pts = kTriangle;
    pts[2].y = v;
    expect_rejects(pts, TrackSpec{}, "non-finite point");
  }
}

TEST(TrackGenerator, RejectsResolutionNotFiniteAndPositive) {
  for (const double v : {0.0, -0.05, kNan, kInf}) {
    TrackSpec spec;
    spec.resolution = v;
    expect_rejects(kTriangle, spec, "resolution");
  }
}

TEST(TrackGenerator, RejectsCenterlineDsNotFiniteAndPositive) {
  for (const double v : {0.0, -0.1, kNan, kInf}) {
    TrackSpec spec;
    spec.centerline_ds = v;
    expect_rejects(kTriangle, spec, "centerline_ds");
  }
}

TEST(TrackGenerator, RejectsBadHalfWidth) {
  for (const double v : {-0.1, kNan, kInf}) {
    TrackSpec spec;
    spec.half_width = v;
    expect_rejects(kTriangle, spec, "half_width");
  }
}

TEST(TrackGenerator, RejectsBadWallThickness) {
  for (const double v : {-0.1, kNan, kInf}) {
    TrackSpec spec;
    spec.wall_thickness = v;
    expect_rejects(kTriangle, spec, "wall_thickness");
  }
}

TEST(TrackGenerator, RejectsBadMargin) {
  for (const double v : {-0.1, kNan, kInf}) {
    TrackSpec spec;
    spec.margin = v;
    expect_rejects(kTriangle, spec, "margin");
  }
}

TEST(TrackGenerator, RejectsGridBeyondInt) {
  TrackSpec tiny;
  tiny.resolution = 1e-300;
  expect_rejects(kTriangle, tiny, "width does not fit in int");
  TrackSpec sparse;  // keeps the centerline resample to 2,000 points
  sparse.centerline_ds = 1e9;
  expect_rejects({{0.0, 0.0}, {1e12, 0.0}, {5e11, 4.0}}, sparse,
                 "width does not fit in int");
  expect_rejects({{0.0, 0.0}, {4.0, 1e12}, {0.0, 5e11}}, sparse,
                 "height does not fit in int");
  TrackSpec wide;
  wide.margin = 1e300;
  expect_rejects(kTriangle, wide, "width does not fit in int");
}

/// The grids' exact bytes: every workload, the frontier search and every
/// black-box replay rebuild their circuit from these. Regenerate with
/// SRL_REGEN_GOLDEN=1 only after an intentional change to the rasterizer.
TEST(TrackGenerator, GridsMatchCommittedBits) {
  const std::vector<std::string> got = grid_lines();
  if (regen_requested()) {
    std::ofstream os{kGridsPath};
    ASSERT_TRUE(os.good()) << "cannot write " << kGridsPath;
    for (const std::string& line : got) os << line << '\n';
    std::printf("regenerated %s\n", kGridsPath);
    return;
  }
  std::vector<std::string> golden;
  std::ifstream is{kGridsPath};
  for (std::string line; std::getline(is, line);) golden.push_back(line);
  ASSERT_EQ(got.size(), golden.size())
      << kGridsPath << " — regenerate with SRL_REGEN_GOLDEN=1";
  for (std::size_t i = 0; i < golden.size(); ++i) {
    EXPECT_EQ(got[i], golden[i]);
  }
}

}  // namespace
}  // namespace srl
