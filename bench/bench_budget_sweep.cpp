/// \file bench_budget_sweep.cpp
/// \brief Budget sweep (DESIGN.md experiment A8): how the compute governor
/// spends a shrinking per-update latency budget. Each budget point races the
/// governed SynPF stack ("SynPF+Governor"), its budget-*enforcer* twin
/// ("SynPF+Budget" — same budget, fixed workload, over-budget updates are
/// dropped) and the knobless CartoLite scan matcher under the same enforcer
/// ("CartoLite+Budget") through the scenario matrix, clean and under a
/// sustained `compute_pressure` envelope.
///
/// The table makes the ladder visible: as the budget tightens the governed
/// cloud first decimates beams, then clamps particles toward the floor, then
/// sheds resamples — lateral error grows smoothly — while the enforcer's miss
/// column explodes and CartoLite (nothing to shed) falls off a cliff the
/// moment its nominal cost no longer fits. All workload columns are virtual
/// work units (src/governor), so the table is bitwise reproducible; only the
/// accuracy columns depend on what the degraded filter actually estimates.
///
/// Usage: bench_budget_sweep
///   SRL_FAST=1     two budget points, short trace (CI smoke)
///   SRL_PRESSURE   compute-pressure severity for the faulted cells (0.8)

#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "eval/scenario_matrix.hpp"
#include "eval/table.hpp"
#include "gridmap/track_generator.hpp"

int main() {
  using namespace srl;
  using namespace srl::benchutil;

  const double pressure = knob_real("SRL_PRESSURE", 0.8, 0.0, 1.0);

  std::vector<double> budgets = {0.25, 0.5, 1.0, 2.0, 4.0};
  if (fast_mode()) budgets = {0.5, 2.0};

  const Track track = TrackGenerator::test_track();

  std::cout << "bench_budget_sweep (A8): governed vs. enforced workload per "
               "declared budget, compute_pressure @ "
            << TextTable::num(pressure, 2) << "\n";

  TextTable table{{"budget [ms]", "localizer", "fault", "Err mu [cm]",
                   "parts mu", "beams mu", "miss", "shed B", "shed P",
                   "skip R", "cost p99", "crashed"}};

  for (const double budget : budgets) {
    ScenarioMatrixConfig config;
    config.localizers = {"SynPF+Governor", "SynPF+Budget", "CartoLite+Budget"};
    config.scenarios = {{"none", 0.0}, {"compute_pressure", pressure}};
    config.experiment.laps = 1;
    config.experiment.max_sim_time = fast_mode() ? 30.0 : 60.0;
    config.n_particles = 800;
    config.budget_ms = budget;

    std::cout << "  budget " << TextTable::num(budget, 2) << " ms ..."
              << std::flush;
    const std::vector<ScenarioCell> cells = ScenarioMatrix{config}.run(track);
    std::cout << " done\n";

    for (const ScenarioCell& cell : cells) {
      if (!cell.error.empty()) {
        std::cerr << "zeroed cell " << cell.localizer << " "
                  << cell.scenario.label() << ": " << cell.error << "\n";
      }
      table.add_row({TextTable::num(budget, 2), cell.localizer,
                     cell.scenario.label(),
                     TextTable::num(cell.result.lateral_mean_cm, 2),
                     TextTable::num(cell.governor_mean_particles, 0),
                     TextTable::num(cell.governor_mean_beams, 1),
                     std::to_string(cell.deadline_misses),
                     std::to_string(cell.shed_beam_updates),
                     std::to_string(cell.shed_particle_updates),
                     std::to_string(cell.skipped_resamples),
                     TextTable::num(cell.governor_cost_p99, 0),
                     cell.result.crashed ? "yes" : "no"});
    }
  }

  std::cout << "\n" << table.render();
  std::cout << "\nexpected shape: the governed column degrades smoothly "
               "(beams -> particles -> resamples) as the budget tightens; "
               "the enforcer twin accumulates deadline misses at the same "
               "budgets, and the knobless CartoLite enforcer dies outright "
               "once its nominal cost stops fitting the budget\n";
  return 0;
}
