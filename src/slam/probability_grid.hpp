#pragma once

/// \file probability_grid.hpp
/// \brief Occupancy-probability grid used by CartoLite: the live submap
/// accumulates hit/miss evidence, the scan matchers read smooth
/// probabilities. Also provides a likelihood-field construction from the
/// prior occupancy map (Gaussian of the distance to the nearest wall) — the
/// smooth surface the global constraint search optimizes on, analogous to
/// Cartographer's interpolated grid costs.

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/types.hpp"
#include "gridmap/occupancy_grid.hpp"

namespace srl {

class ProbabilityGrid {
 public:
  ProbabilityGrid() = default;
  ProbabilityGrid(int width, int height, double resolution, Vec2 origin);

  /// Build a likelihood field from a finished map: cell value =
  /// p_min + (p_max - p_min) * exp(-d^2 / (2 sigma^2)) where d is the
  /// distance to the nearest occupied cell. Cells outside the mapped free
  /// space keep p_min so the matcher is repelled from unknown territory.
  /// The distances come from the shared wall field
  /// (shared_distance_to_occupied).
  static ProbabilityGrid likelihood_field(const OccupancyGrid& map,
                                          double sigma = 0.2,
                                          double p_min = 0.05,
                                          double p_max = 0.95);
  /// The same field from the process-wide MapAssets store: one build per
  /// (grid content, sigma, p_min, p_max), shared by every CartoLite and
  /// relocalization search on the map while any of them holds it.
  static std::shared_ptr<const ProbabilityGrid> shared_likelihood_field(
      const OccupancyGrid& map, double sigma = 0.2, double p_min = 0.05,
      double p_max = 0.95);

  int width() const { return width_; }
  int height() const { return height_; }
  double resolution() const { return resolution_; }
  const Vec2& origin() const { return origin_; }

  bool in_bounds(int ix, int iy) const {
    return ix >= 0 && iy >= 0 && ix < width_ && iy < height_;
  }

  /// Occupancy probability of a cell as seen by the scan matchers. Never-
  /// touched cells return a LOW value (0.1, Cartographer's convention):
  /// a matcher must prefer placing scan hits on observed structure over
  /// drifting into unexplored space. Out-of-bounds returns `p_min` used at
  /// construction. Probabilities are stored directly (not as log odds) so
  /// this is a plain load — it sits in the innermost correlative loop.
  float probability(int ix, int iy) const {
    if (!in_bounds(ix, iy)) return out_of_bounds_p_;
    const float p = prob_[cell_index(ix, iy)];
    return p == kUnknownP ? kUnknownMatchP : p;
  }

  /// Matcher score for unknown cells.
  static constexpr float kUnknownMatchP = 0.1F;
  bool known(int ix, int iy) const {
    return in_bounds(ix, iy) && prob_[cell_index(ix, iy)] != kUnknownP;
  }

  /// One axis of `interpolate`: the lower of the two sample sites (cell
  /// centers) that bracket a world coordinate, and the fraction of the way
  /// to the upper one. The correlative matcher computes each half once per
  /// candidate angle and reuses it across its whole window.
  struct AxisSample {
    int cell{0};
    double frac{0.0};
  };
  AxisSample axis_x(double wx) const {
    return axis_sample((wx - origin_.x) / resolution_ - 0.5);
  }
  AxisSample axis_y(double wy) const {
    return axis_sample((wy - origin_.y) / resolution_ - 0.5);
  }

  /// Bilinear blend of the four samples around (x, y). A grid with fewer
  /// than two samples on either axis has nothing to blend and returns cell
  /// (0, 0).
  double combine(AxisSample x, AxisSample y) const {
    if (width_ < 2 || height_ < 2) return probability(0, 0);
    const double d00 = probability(x.cell, y.cell);
    const double d10 = probability(x.cell + 1, y.cell);
    const double d01 = probability(x.cell, y.cell + 1);
    const double d11 = probability(x.cell + 1, y.cell + 1);
    const double top = d00 + x.frac * (d10 - d00);
    const double bot = d01 + x.frac * (d11 - d01);
    return top + y.frac * (bot - top);
  }

  /// Bilinearly interpolated probability at a world point (cell centers are
  /// the sample sites); clamps at the border.
  double interpolate(const Vec2& w) const {
    return combine(axis_x(w.x), axis_y(w.y));
  }

  /// Row-major cell store for vector kernels that reproduce `probability()`:
  /// `kUnknownP` marks never-updated cells.
  const float* cells() const { return prob_.data(); }
  float out_of_bounds_p() const { return out_of_bounds_p_; }
  /// Sentinel for never-updated cells (outside the valid (0,1) range).
  static constexpr float kUnknownP = -1.0F;

  /// Evidence updates (clamped log-odds, Cartographer-style hit/miss odds).
  void update_hit(int ix, int iy);
  void update_miss(int ix, int iy);

  /// Integrate one scan taken at `sensor` (world pose): each `hit` (world
  /// point) gets a hit update and the cells on the sensor->hit segment get
  /// miss updates.
  void insert_scan(const Pose2& sensor, std::span<const Vec2> hits);

  /// Non-finite and far-off points map to an out-of-bounds sentinel cell
  /// (`floor_to_cell`) instead of an undefined double-to-int cast.
  GridIndex world_to_grid(const Vec2& w) const {
    return {floor_to_cell((w.x - origin_.x) / resolution_),
            floor_to_cell((w.y - origin_.y) / resolution_)};
  }
  Vec2 grid_to_world(int ix, int iy) const {
    return {origin_.x + (ix + 0.5) * resolution_,
            origin_.y + (iy + 0.5) * resolution_};
  }

  std::size_t known_cells() const;

 private:
  static AxisSample axis_sample(double g) {
    const int cell = floor_to_cell(g);
    return {cell, g - cell};
  }
  std::size_t cell_index(int ix, int iy) const {
    return static_cast<std::size_t>(iy) * width_ + ix;
  }
  void apply_odds(int ix, int iy, float odds_factor);

  int width_{0};
  int height_{0};
  double resolution_{0.05};
  Vec2 origin_{};
  float out_of_bounds_p_{0.05F};
  std::vector<float> prob_;
};

}  // namespace srl
