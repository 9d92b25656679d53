/// \file bench_ablations.cpp
/// \brief Design-choice ablations for SynPF (DESIGN.md experiment A1 plus
/// the motion-model ablation of A3):
///
///  1. **Scanline layout** (Sec. II): boxed vs uniform at equal beam count.
///     Reports (a) a geometric down-track information statistic — how far
///     ahead the selected beams see from a corridor pose — and (b) the
///     closed-loop localization accuracy of each layout.
///  2. **Motion model** (Sec. II / Fig. 1): the full SynPF (TUM model) vs
///     the same filter with the classical diff-drive model, under both
///     grip regimes. This isolates how much of SynPF's LQ robustness comes
///     from the speed-adaptive motion model.

#include <iostream>
#include <memory>

#include "bench_util.hpp"
#include "common/stats.hpp"
#include "eval/table.hpp"
#include "range/ray_marching.hpp"
#include "sensor/scanline_layout.hpp"

int main() {
  using namespace srl;
  using namespace srl::benchutil;

  const int laps = bench_laps(3);
  const Track track = TrackGenerator::test_track();
  auto map = std::make_shared<const OccupancyGrid>(track.grid);
  const LidarConfig lidar{};

  std::cout << "bench_ablations (" << laps << " laps per cell)\n\n";

  // ---- 1a. Geometric down-track information of the layouts. ----
  {
    const RayMarching caster{map, lidar.max_range};
    const auto& cl = track.centerline;
    TextTable table{{"layout", "beams", "mean range [m]",
                     "beams >= 6 m [%]", "fwd cone +/-30deg [%]"}};
    for (const bool boxed : {false, true}) {
      for (const int count : {30, 60}) {
        const std::vector<int> idx =
            boxed ? boxed_layout(lidar, count, 3.0)
                  : uniform_layout(lidar, count);
        RunningStats range_stats;
        int far = 0;
        int fwd = 0;
        int total = 0;
        for (std::size_t ci = 0; ci < cl.size(); ci += 10) {
          const std::size_t cn = (ci + 1) % cl.size();
          const double heading =
              std::atan2(cl[cn].y - cl[ci].y, cl[cn].x - cl[ci].x);
          for (const int b : idx) {
            const double a = heading + lidar.beam_angle(b);
            const float r = caster.range({cl[ci].x, cl[ci].y, a});
            range_stats.add(r);
            if (r >= 6.0F) ++far;
            if (std::abs(lidar.beam_angle(b)) <= deg2rad(30.0)) ++fwd;
            ++total;
          }
        }
        const std::string name = boxed ? "boxed" : "uniform";
        table.add_row(
            {name, std::to_string(idx.size()),
             TextTable::num(range_stats.mean(), 2),
             TextTable::num(100.0 * far / total, 1),
             TextTable::num(100.0 * fwd / total, 1)});
      }
    }
    std::cout << "Down-track information (paper Sec. II: boxed layout points "
                 "further ahead):\n"
              << table.render() << "\n";
  }

  // ---- 1b + 2. Closed-loop ablation grid. ----
  TextTable table{{"variant", "odom", "Err mu [cm]", "PoseRMSE [cm]",
                   "Hdg RMSE [mrad]", "ScanAlign [%]", "crashed"}};

  struct Variant {
    std::string name;
    PfMotionKind motion;
    PfLayoutKind layout;
  };
  const Variant variants[] = {
      {"SynPF (tum+boxed)", PfMotionKind::kTum, PfLayoutKind::kBoxed},
      {"uniform layout", PfMotionKind::kTum, PfLayoutKind::kUniform},
      {"diff-drive model", PfMotionKind::kDiffDrive, PfLayoutKind::kBoxed},
      {"diff-drive+uniform", PfMotionKind::kDiffDrive,
       PfLayoutKind::kUniform},
  };
  for (const Variant& variant : variants) {
    for (const double mu : {0.76, 0.55}) {
      // No recipe names the motion model or the layout, so this bench
      // builds its filter itself, over CDDT like the sweeps.
      SynPfConfig cfg;
      cfg.range = RangeMethodKind::kCddt;
      cfg.motion = variant.motion;
      cfg.layout = variant.layout;
      SynPf pf{cfg, map, lidar};
      const ExperimentConfig run = cell_recipe("SynPF", mu, laps).experiment;
      std::cout << "  running " << variant.name << " / mu=" << mu << " ..."
                << std::flush;
      const ExperimentResult r = ExperimentRunner{track, run}.run(pf);
      std::cout << " done\n";
      const std::string odom = mu > 0.7 ? "HQ" : "LQ";
      table.add_row({variant.name, odom,
                     TextTable::num(r.lateral_mean_cm, 2),
                     TextTable::num(r.pose_rmse_m * 100.0, 2),
                     TextTable::num(r.heading_rmse_rad * 1000.0, 1),
                     TextTable::num(r.scan_alignment, 1),
                     r.crashed ? "yes" : "no"});
    }
  }
  std::cout << "\n" << table.render();
  return 0;
}
