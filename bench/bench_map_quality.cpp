/// \file bench_map_quality.cpp
/// \brief Map-quality sensitivity (DESIGN.md experiment A4, an extension
/// beyond the paper): both localizers race against progressively degraded
/// localization maps (synthetic SLAM-map raggedness and warp from
/// gridmap/map_degrade.hpp) while the LiDAR observes the true world.
///
/// This probes an architectural difference: the beam-model particle filter
/// scores exact expected ranges (feels every cell of map error), while the
/// likelihood-field matcher blurs over raggedness by construction.

#include <iostream>
#include <memory>
#include <vector>

#include "bench_util.hpp"
#include "eval/table.hpp"
#include "gridmap/map_degrade.hpp"

int main() {
  using namespace srl;
  using namespace srl::benchutil;

  const int laps = bench_laps(2);
  const Track track = TrackGenerator::test_track();

  struct Level {
    std::string name;
    double erode_dilate;
    double warp;
  };
  std::vector<Level> levels = {{"perfect", 0.0, 0.0},
                               {"light", 0.08, 0.01},
                               {"medium", 0.15, 0.02},
                               {"heavy", 0.30, 0.035}};
  if (fast_mode()) levels = {{"perfect", 0.0, 0.0}, {"medium", 0.15, 0.02}};

  std::cout << "bench_map_quality (" << laps
            << " laps per cell, nominal grip)\n";

  TextTable table{{"map", "Carto err [cm]", "SynPF err [cm]",
                   "Carto RMSE [cm]", "SynPF RMSE [cm]", "Carto align",
                   "SynPF align"}};

  for (const Level& level : levels) {
    MapDegradeParams params;
    params.erode_prob = level.erode_dilate;
    params.dilate_prob = level.erode_dilate;
    params.warp_amplitude = level.warp;
    Rng rng{99};
    auto map = std::make_shared<const OccupancyGrid>(
        level.erode_dilate > 0.0 || level.warp > 0.0
            ? degrade_map(track.grid, rng, params)
            : track.grid);

    std::cout << "  " << level.name << " ..." << std::flush;
    const ExperimentResult rc =
        run_cell(cell_recipe("CartoLite", 0.76, laps), track, map).result;
    const ExperimentResult rs =
        run_cell(cell_recipe("SynPF", 0.76, laps), track, map).result;
    std::cout << " done\n";

    table.add_row({level.name, TextTable::num(rc.lateral_mean_cm, 2),
                   TextTable::num(rs.lateral_mean_cm, 2),
                   TextTable::num(rc.pose_rmse_m * 100.0, 2),
                   TextTable::num(rs.pose_rmse_m * 100.0, 2),
                   TextTable::num(rc.scan_alignment, 1),
                   TextTable::num(rs.scan_alignment, 1)});
  }
  std::cout << "\n" << table.render();
  return 0;
}
