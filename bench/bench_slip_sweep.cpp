/// \file bench_slip_sweep.cpp
/// \brief Robustness crossover sweep (DESIGN.md experiment A2), extending
/// the paper's two-point HQ/LQ comparison (Sec. IV: "determine a priori ...
/// which kind of localization algorithm would be most suited") to a grip
/// continuum: lateral error and scan alignment for both localizers as the
/// tire grip mu degrades from nominal (0.76) toward heavily taped (0.50).
///
/// The reproduced shape: Cartographer wins (or ties) at high grip and
/// degrades as slip grows, while SynPF stays nearly flat — the curves
/// cross somewhere below nominal grip.

#include <iostream>
#include <memory>
#include <vector>

#include "bench_util.hpp"
#include "eval/table.hpp"

int main() {
  using namespace srl;
  using namespace srl::benchutil;

  const int laps = bench_laps(2);
  const Track track = TrackGenerator::test_track();
  auto map = std::make_shared<const OccupancyGrid>(track.grid);

  std::vector<double> mus = {0.76, 0.68, 0.62, 0.55, 0.50};
  if (fast_mode()) mus = {0.76, 0.55};

  std::cout << "bench_slip_sweep (" << laps << " laps per cell)\n";

  TextTable table{{"mu", "Carto err [cm]", "SynPF err [cm]",
                   "Carto align [%]", "SynPF align [%]", "Carto drift",
                   "Carto crashed", "SynPF crashed", "winner"}};

  double crossover_mu = -1.0;
  bool prev_synpf_wins = false;
  bool first = true;
  for (const double mu : mus) {
    std::cout << "  mu=" << mu << " ..." << std::flush;
    const ExperimentResult rc =
        run_cell(cell_recipe("CartoLite", mu, laps), track, map).result;
    const ExperimentResult rs =
        run_cell(cell_recipe("SynPF", mu, laps), track, map).result;
    std::cout << " done\n";

    const bool synpf_wins = rs.lateral_mean_cm < rc.lateral_mean_cm;
    if (!first && synpf_wins && !prev_synpf_wins) crossover_mu = mu;
    prev_synpf_wins = synpf_wins;
    first = false;

    table.add_row({TextTable::num(mu, 2),
                   TextTable::num(rc.lateral_mean_cm, 2),
                   TextTable::num(rs.lateral_mean_cm, 2),
                   TextTable::num(rc.scan_alignment, 1),
                   TextTable::num(rs.scan_alignment, 1),
                   TextTable::num(rc.odom_drift_m_per_lap, 2),
                   rc.crashed ? "yes" : "no", rs.crashed ? "yes" : "no",
                   synpf_wins ? "SynPF" : "Cartographer"});
  }
  std::cout << "\n" << table.render();
  if (crossover_mu > 0.0) {
    std::cout << "\ncrossover: SynPF takes over below mu ~ "
              << TextTable::num(crossover_mu, 2) << "\n";
  }
  std::cout << "paper: Cartographer better at nominal grip, SynPF at "
               "reduced grip (taped tires)\n";
  return 0;
}
