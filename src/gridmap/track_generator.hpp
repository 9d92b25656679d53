#pragma once

/// \file track_generator.hpp
/// \brief Synthetic race-track generation.
///
/// The paper evaluates on a physical corridor-like test track; we substitute
/// parametric closed circuits rasterized to occupancy grids: free corridor,
/// occupied wall band, unknown beyond. Each track carries its centerline so
/// the race line, lap timing, and lateral-deviation metrics are well defined.

#include <vector>

#include "common/rng.hpp"
#include "gridmap/occupancy_grid.hpp"

namespace srl {

/// A generated circuit: map + geometry metadata.
struct Track {
  OccupancyGrid grid;
  std::vector<Vec2> centerline;  ///< closed, uniformly resampled, CCW
  double half_width{1.1};        ///< corridor half width, m
};

/// Geometric/rasterization parameters common to all generated tracks.
struct TrackSpec {
  double half_width = 1.1;      ///< m; F1TENTH corridors are ~2.2 m wide
  double resolution = 0.05;     ///< m per cell
  double wall_thickness = 0.20; ///< m of occupied band outside the corridor
  double margin = 0.5;          ///< m of unknown padding to the map border
  double centerline_ds = 0.10;  ///< m between resampled centerline points
};

/// The rasterizer's cover test: whether the disk of squared radius `r2`
/// around `c` covers the center of cell (ix, iy). In one row it holds on one
/// run of cells (DESIGN.md §15); tests call it to evaluate the identical
/// floating-point expression.
inline bool disk_covers_cell(const OccupancyGrid& grid, int ix, int iy,
                             const Vec2& c, double r2) {
  return !((grid.grid_to_world(ix, iy) - c).squared_norm() > r2);
}

/// Factory for canonical circuits.
class TrackGenerator {
 public:
  /// Stadium oval: two straights of `straight_len` joined by semicircles of
  /// `radius` (centerline radius), centered at the origin, CCW.
  static Track oval(double straight_len, double radius,
                    const TrackSpec& spec = {});

  /// Build a track from closed waypoints (smoothed with Chaikin corner
  /// cutting before rasterization). Waypoints are the desired centerline.
  static Track from_waypoints(const std::vector<Vec2>& waypoints,
                              const TrackSpec& spec = {},
                              int smooth_iterations = 3);

  /// Rounded-rectangle circuit: straights of `length` x `width` (centerline
  /// box) joined by quarter-circle corners of `corner_radius`, CCW.
  static Track rounded_rect(double length, double width, double corner_radius,
                            const TrackSpec& spec = {});

  /// The default "test track" of the Table-I experiment: a 16 x 9 m
  /// rounded-rectangle club circuit with 2.6 m corners. The geometry is
  /// chosen so the speed profile's corner demand (a_lat 7.0 m/s^2) sits
  /// just inside nominal grip (mu 0.76 -> 7.45 m/s^2) and well beyond
  /// taped-tire grip (mu 0.55 -> 5.4 m/s^2) — the paper's "same speed
  /// scaling, different grip" regime.
  static Track test_track(const TrackSpec& spec = {});

  /// A hairpin-heavy circuit that stresses high-curvature localization.
  static Track hairpin(const TrackSpec& spec = {});

  /// Random smooth circuit: n waypoints on a radius-R circle with radial
  /// jitter, Chaikin-smoothed. Useful for property tests and sweeps.
  static Track random_circuit(Rng& rng, int n_waypoints, double radius,
                              double jitter, const TrackSpec& spec = {});

  /// Rasterize a closed centerline into an occupancy grid per `spec`:
  /// free where a disk of `half_width` around a centerline sample covers a
  /// cell's center, else occupied where a disk of `half_width +
  /// wall_thickness` does, else unknown. Exposed so tests can validate the
  /// rasterization independently. Throws std::invalid_argument, naming the
  /// field, for fewer than 3 points, a non-finite point, a resolution or
  /// `centerline_ds` that is not finite and positive, a negative or
  /// non-finite half width, wall thickness or margin, and a grid width or
  /// height beyond `int`.
  static Track rasterize(const std::vector<Vec2>& centerline,
                         const TrackSpec& spec);
};

}  // namespace srl
