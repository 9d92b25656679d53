#include "slam/probability_grid.hpp"

#include <algorithm>
#include <cmath>

#include "gridmap/distance_transform.hpp"
#include "gridmap/map_assets.hpp"

namespace srl {
namespace {

// Cartographer defaults: hit odds 0.55, miss odds 0.49, probability clamped.
constexpr float kHitOdds = 0.55F / 0.45F;
constexpr float kMissOdds = 0.49F / 0.51F;
constexpr float kMinP = 0.02F;
constexpr float kMaxP = 0.98F;

}  // namespace

ProbabilityGrid::ProbabilityGrid(int width, int height, double resolution,
                                 Vec2 origin)
    : width_{std::max(width, 0)},
      height_{std::max(height, 0)},
      resolution_{resolution},
      origin_{origin},
      prob_(static_cast<std::size_t>(width_) * height_, kUnknownP) {}

ProbabilityGrid ProbabilityGrid::likelihood_field(const OccupancyGrid& map,
                                                  double sigma, double p_min,
                                                  double p_max) {
  ProbabilityGrid grid{map.width(), map.height(), map.resolution(),
                       map.origin()};
  grid.out_of_bounds_p_ = static_cast<float>(p_min);
  const std::shared_ptr<const DistanceField> walls =
      shared_distance_to_occupied(map);
  const DistanceField& df = *walls;
  const double inv_two_sigma_sq = 1.0 / (2.0 * sigma * sigma);
  for (int iy = 0; iy < map.height(); ++iy) {
    for (int ix = 0; ix < map.width(); ++ix) {
      // Unknown cells outside the corridor keep p_min: the matcher should
      // never prefer placing scan hits in unobserved space.
      double p = p_min;
      if (map.at(ix, iy) != OccupancyGrid::kUnknown) {
        const double d = df.at(ix, iy);
        p = p_min + (p_max - p_min) * std::exp(-d * d * inv_two_sigma_sq);
      }
      grid.prob_[grid.cell_index(ix, iy)] = static_cast<float>(p);
    }
  }
  return grid;
}

std::shared_ptr<const ProbabilityGrid> ProbabilityGrid::shared_likelihood_field(
    const OccupancyGrid& map, double sigma, double p_min, double p_max) {
  return MapAssets::get<ProbabilityGrid>(
      map, MapAssetKey{"likelihood_field", {sigma, p_min, p_max}},
      [&](const std::shared_ptr<const OccupancyGrid>& grid) {
        return std::make_shared<const ProbabilityGrid>(
            likelihood_field(*grid, sigma, p_min, p_max));
      });
}

void ProbabilityGrid::apply_odds(int ix, int iy, float odds_factor) {
  if (!in_bounds(ix, iy)) return;
  float& p = prob_[cell_index(ix, iy)];
  if (p == kUnknownP) p = 0.5F;
  const float odds = p / (1.0F - p) * odds_factor;
  p = std::clamp(odds / (1.0F + odds), kMinP, kMaxP);
}

void ProbabilityGrid::update_hit(int ix, int iy) {
  apply_odds(ix, iy, kHitOdds);
}

void ProbabilityGrid::update_miss(int ix, int iy) {
  apply_odds(ix, iy, kMissOdds);
}

void ProbabilityGrid::insert_scan(const Pose2& sensor,
                                  std::span<const Vec2> hits) {
  const GridIndex s = world_to_grid({sensor.x, sensor.y});

  // Walk the cells between sensor and hit with a DDA in grid space; the hit
  // cell itself gets no miss.
  const auto trace_misses = [&](const Vec2& end) {
    const GridIndex e = world_to_grid(end);
    int x = s.ix;
    int y = s.iy;
    const int dx = std::abs(e.ix - s.ix);
    const int dy = std::abs(e.iy - s.iy);
    const int sx = s.ix < e.ix ? 1 : -1;
    const int sy = s.iy < e.iy ? 1 : -1;
    int err = dx - dy;
    while (x != e.ix || y != e.iy) {
      update_miss(x, y);
      const int e2 = 2 * err;
      if (e2 > -dy) {
        err -= dy;
        x += sx;
      }
      if (e2 < dx) {
        err += dx;
        y += sy;
      }
    }
  };

  for (const Vec2& h : hits) trace_misses(h);
  // Hits are applied after misses so a cell that is both grazed and hit in
  // one scan nets positive evidence.
  for (const Vec2& h : hits) {
    const GridIndex g = world_to_grid(h);
    update_hit(g.ix, g.iy);
  }
}

std::size_t ProbabilityGrid::known_cells() const {
  return static_cast<std::size_t>(
      std::count_if(prob_.begin(), prob_.end(),
                    [](float p) { return p != kUnknownP; }));
}

}  // namespace srl
