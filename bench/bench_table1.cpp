/// \file bench_table1.cpp
/// \brief Reproduces **Table I** of the paper: lap time, lateral error,
/// scan alignment and compute load for {Cartographer (CartoLite), SynPF}
/// x {high-quality, low-quality} wheel odometry.
///
/// The odometry quality is controlled by the tire grip coefficient exactly
/// as in the paper's pull test: mu = 0.76 (26 N nominal) vs mu = 0.55
/// (19 N taped tires). Both regimes run the same speed scaling.
///
/// Env knobs: SRL_LAPS (timed laps per cell, default 10), SRL_FAST=1
/// (2 laps), SRL_SEED.

#include <cstdint>
#include <iostream>
#include <limits>
#include <memory>
#include <string>
#include <utility>

#include "bench_util.hpp"
#include "eval/table.hpp"

int main() {
  using namespace srl;
  using namespace srl::benchutil;

  const int laps = bench_laps(10, 2);
  const std::uint64_t seed = knob_uint(
      "SRL_SEED", 1234, 0, std::numeric_limits<std::uint64_t>::max());

  const Track track = TrackGenerator::test_track();
  auto map = std::make_shared<const OccupancyGrid>(track.grid);

  struct Cell {
    std::string method;
    std::string odom;
    ExperimentResult r;
    /// Per-cell registry holding the localizer's stage histograms.
    std::shared_ptr<telemetry::MetricsRegistry> metrics;
  };
  std::vector<Cell> cells;

  const double kMuHq = 0.76;  // 26 N pull test on a 3.5 kg car
  const double kMuLq = 0.55;  // 19 N with taped tires

  std::cout << "bench_table1: Table I reproduction (" << laps
            << " timed laps per cell)\n";

  // Four recipes raced one after another (the latency and load columns are
  // the paper's compute claim). SynPF runs as in the paper: the LUT, 1500
  // particles, 60 beams, default lanes.
  const std::pair<const char*, const char*> methods[] = {
      {"CartoLite", "Cartographer"}, {"SynPF", "SynPF"}};  // kind, name
  for (const auto& [kind, method] : methods) {
    for (const double mu : {kMuHq, kMuLq}) {
      CellRecipe recipe = cell_recipe(kind, mu, laps);
      recipe.stack.range = "lut";
      recipe.experiment.seed = seed + (mu == kMuHq ? 0 : 1);

      Cell cell{method, mu == kMuHq ? "HQ" : "LQ", {},
                std::make_shared<telemetry::MetricsRegistry>()};
      std::cout << "  running " << cell.method << " / " << cell.odom
                << " ..." << std::flush;
      cell.r = run_cell(recipe, track, map,
                        telemetry::Sink{cell.metrics.get(), nullptr})
                   .result;
      std::cout << " done (" << cell.r.lap_times.size() << " laps"
                << (cell.r.crashed ? ", CRASHED" : "") << ")\n";
      cells.push_back(std::move(cell));
    }
  }

  TextTable table{{"Method", "Odom", "LapTime mu [s]", "sigma", "Err mu [cm]",
                   "sigma", "ScanAlign [%]", "Load [%]", "Upd p50 [ms]",
                   "p95", "p99", "PoseRMSE [cm]", "Lat [cm]", "Long [cm]",
                   "Hdg [mrad]", "Slip [m/s]", "Drift [m/lap]"}};
  for (const Cell& c : cells) {
    table.add_row({c.method, c.odom, TextTable::num(c.r.lap_time_mean),
                   TextTable::num(c.r.lap_time_std),
                   TextTable::num(c.r.lateral_mean_cm),
                   TextTable::num(c.r.lateral_std_cm),
                   TextTable::num(c.r.scan_alignment, 1),
                   TextTable::num(c.r.load_percent, 2),
                   TextTable::num(c.r.update_p50_ms, 2),
                   TextTable::num(c.r.update_p95_ms, 2),
                   TextTable::num(c.r.update_p99_ms, 2),
                   TextTable::num(c.r.pose_rmse_m * 100.0, 2),
                   TextTable::num(c.r.pose_lat_rmse_m * 100.0, 2),
                   TextTable::num(c.r.pose_long_rmse_m * 100.0, 2),
                   TextTable::num(c.r.heading_rmse_rad * 1000.0, 1),
                   TextTable::num(c.r.mean_abs_slip, 3),
                   TextTable::num(c.r.odom_drift_m_per_lap, 2)});
  }
  std::cout << "\n" << table.render();

  // Per-stage latency percentiles from each cell's metrics registry — the
  // breakdown behind the Update column (predict / raycast / weight /
  // resample for SynPF; local match / insert / global for CartoLite).
  TextTable stages{{"Method", "Odom", "Stage", "n", "mean [ms]", "p50 [ms]",
                    "p95 [ms]", "p99 [ms]", "max [ms]"}};
  for (const Cell& c : cells) {
    for (const auto& row : c.metrics->rows()) {
      // Latency histograms only: the registry also holds the filter's ESS
      // fraction distribution, which is no stage.
      if (row.kind != "histogram" || row.hist.count == 0 ||
          !row.name.ends_with("_ms")) {
        continue;
      }
      stages.add_row({c.method, c.odom, row.name,
                      std::to_string(row.hist.count),
                      TextTable::num(row.hist.mean, 3),
                      TextTable::num(row.hist.p50, 3),
                      TextTable::num(row.hist.p95, 3),
                      TextTable::num(row.hist.p99, 3),
                      TextTable::num(row.hist.max, 3)});
    }
  }
  std::cout << "\nPer-stage scan-update latency:\n" << stages.render();

  // Paper's numbers for side-by-side comparison.
  std::cout << "\nPaper (Table I): Cartographer HQ 9.167/0.097 6.864/0.264 "
               "69.357 4.2 | LQ 9.428/0.126 11.432/1.134 61.710\n"
               "                 SynPF        HQ 9.184/0.153 8.223/0.406 "
               "80.603 2.17 | LQ 9.280/0.093 7.686/1.179 79.924\n";

  // Headline deltas (the paper's robustness claim).
  const auto find = [&](const std::string& m,
                        const std::string& o) -> const ExperimentResult& {
    for (const Cell& c : cells) {
      if (c.method == m && c.odom == o) return c.r;
    }
    static ExperimentResult empty;
    return empty;
  };
  const auto& carto_hq = find("Cartographer", "HQ");
  const auto& carto_lq = find("Cartographer", "LQ");
  const auto& syn_hq = find("SynPF", "HQ");
  const auto& syn_lq = find("SynPF", "LQ");
  const auto pct = [](double from, double to) {
    return from != 0.0 ? 100.0 * (to - from) / from : 0.0;
  };
  std::cout << "\nHQ->LQ lateral error change:  Cartographer "
            << TextTable::num(pct(carto_hq.lateral_mean_cm,
                                  carto_lq.lateral_mean_cm), 1)
            << "% (paper +66.6%) | SynPF "
            << TextTable::num(pct(syn_hq.lateral_mean_cm,
                                  syn_lq.lateral_mean_cm), 1)
            << "% (paper -6.9%)\n";
  std::cout << "HQ->LQ scan alignment change: Cartographer "
            << TextTable::num(pct(carto_hq.scan_alignment,
                                  carto_lq.scan_alignment), 1)
            << "% (paper -11.0%) | SynPF "
            << TextTable::num(pct(syn_hq.scan_alignment,
                                  syn_lq.scan_alignment), 1)
            << "% (paper -0.8%)\n";
  return 0;
}
