/// \file bench_robustness_matrix.cpp
/// \brief The robustness scenario matrix (DESIGN.md §10): every localizer
/// raced closed-loop under every fault regime, scored with the paper's
/// metrics, and serialized to the machine-readable `BENCH_robustness.json`
/// that `tools/bench_compare` gates CI on.
///
/// The reproduced headline (paper Sec. IV, generalized from grip to a fault
/// taxonomy): under degraded odometry SynPF's lateral error stays nearly
/// flat while the Cartographer-style baseline degrades by a strictly larger
/// factor. The matrix prints the full grid, the headline degradation
/// factors, and fingerprints every fault regime's corrupted sensor trace so
/// regressions in the fault RNG schedule are bitwise-visible.
///
/// Usage: bench_robustness_matrix [output.json]
///   SRL_FAST=1          reduced smoke grid (5 kinds x 9 scenarios, 1 lap)
///   SRL_LAPS=n          laps per cell
///   SRL_BUDGET_MS=x     per-update compute budget for the governed kinds
///                       (default 2.0 ms; the compute-pressure axis
///                       squeezes it — DESIGN.md §16)
///   SRL_GIT_SHA         recorded into provenance when set
///   SRL_BLACKBOX_DIR=d  black-box artifact directory (default "blackbox";
///                       set to "" to run with the flight recorder off)
///   SRL_RECORDER_AB=1   after the recorded grid, re-run with the recorder
///                       off to measure overhead and verify the recorder is
///                       a bitwise no-op on every cell's metrics

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "governor/governor.hpp"
#include "eval/artifact.hpp"
#include "eval/benchmark_json.hpp"
#include "eval/dead_reckoning.hpp"
#include "eval/fault_replay.hpp"
#include "eval/scenario_matrix.hpp"
#include "eval/table.hpp"

int main(int argc, char** argv) {
  using namespace srl;
  using namespace srl::benchutil;

  const std::string out_file =
      argc > 1 ? argv[1] : out_path("BENCH_robustness.json");

  ScenarioMatrixConfig config = fast_mode() ? ScenarioMatrix::smoke_config()
                                            : ScenarioMatrix::full_config();
  config.experiment.laps = bench_laps(config.experiment.laps);
  const char* bb_dir = std::getenv("SRL_BLACKBOX_DIR");
  config.blackbox_dir = bb_dir != nullptr ? bb_dir : "blackbox";
  config.track_name = "test_track";
  config.budget_ms =
      knob_real("SRL_BUDGET_MS", config.budget_ms,
                std::numeric_limits<double>::denorm_min(),
                std::numeric_limits<double>::max());

  const Track track = TrackGenerator::test_track();
  std::cout << "bench_robustness_matrix: " << config.localizers.size()
            << " localizers x " << config.scenarios.size() << " scenarios, "
            << config.experiment.laps << " laps per cell"
            << (fast_mode() ? " (smoke grid)" : "")
            << (config.blackbox_dir.empty()
                    ? " [recorder off]"
                    : " [recorder on -> " + config.blackbox_dir + "]")
            << "\n";

  // ---- Fault-trace fingerprints -----------------------------------------
  // One clean closed-loop trace, corrupted per fault regime: the hash is a
  // pure function of (sim seed, fault seed, fault stack), so two runs of
  // this bench — at any SRL_THREADS — must produce identical fingerprints.
  BenchDocument doc;
  {
    SensorTrace clean;
    ExperimentConfig tcfg = config.experiment;
    tcfg.seed = config.seed;
    tcfg.laps = 1;
    tcfg.max_sim_time = fast_mode() ? 10.0 : 20.0;
    ExperimentRunner runner{track, tcfg};
    DeadReckoning driver;
    runner.run(driver, &clean);
    for (const ScenarioSpec& spec : config.scenarios) {
      // Kidnap is a pseudo-fault (the true vehicle teleports, the sensor
      // stream is never corrupted), so there is no trace to fingerprint.
      if (spec.fault == "kidnap") continue;
      fault::FaultPipeline pipeline{config.fault_seed, config.experiment.lidar};
      if (spec.fault != "none" || spec.severity != 0.0) {
        pipeline.add(spec.fault, spec.severity);
      }
      const SensorTrace corrupted = corrupt_trace(pipeline, clean);
      FaultTraceFingerprint fp;
      fp.fault = spec.fault;
      fp.severity = spec.severity;
      fp.trace_hash = trace_hash(corrupted);
      fp.n_scans = corrupted.scans().size();
      fp.n_odometry = corrupted.odometry().size();
      doc.fault_traces.push_back(fp);
    }
    std::cout << "fingerprinted " << doc.fault_traces.size()
              << " fault regimes over a " << clean.scans().size()
              << "-scan trace\n";
  }

  // ---- The grid ---------------------------------------------------------
  // With the A/B requested, a first untimed recorder-off grid warms page
  // caches and the allocator so neither timed grid pays first-run cost —
  // otherwise whichever variant runs first looks a few percent slower.
  const bool run_ab = std::getenv("SRL_RECORDER_AB") != nullptr &&
                      !config.blackbox_dir.empty();
  using bench_clock = std::chrono::steady_clock;
  if (run_ab) {
    ScenarioMatrixConfig warm = config;
    warm.blackbox_dir.clear();
    std::cout << "recorder A/B: warm-up grid (untimed, recorder off)...\n";
    (void)ScenarioMatrix{warm}.run(track);
  }
  const ScenarioMatrix matrix{config};
  const auto grid_t0 = bench_clock::now();
  doc.cells = matrix.run(track);
  const double grid_wall_s =
      std::chrono::duration<double>(bench_clock::now() - grid_t0).count();

  TextTable table{{"localizer", "fault", "sev", "lat mu [cm]", "lat sigma",
                   "align [%]", "ESS p50", "p50 [ms]", "p99 [ms]", "crash",
                   "recov", "t_reloc [s]", "events", "crit", "boxes"}};
  std::uint64_t total_boxes = 0;
  for (const ScenarioCell& cell : doc.cells) {
    total_boxes += cell.blackboxes.size();
    if (!cell.error.empty()) {
      std::cerr << "zeroed cell " << cell.localizer << " "
                << cell.scenario.label() << ": " << cell.error << "\n";
    }
    table.add_row({cell.localizer, cell.scenario.fault,
                   TextTable::num(cell.scenario.severity, 2),
                   TextTable::num(cell.result.lateral_mean_cm, 2),
                   TextTable::num(cell.result.lateral_std_cm, 2),
                   TextTable::num(cell.result.scan_alignment, 1),
                   TextTable::num(cell.ess_fraction_p50, 3),
                   TextTable::num(cell.result.update_p50_ms, 2),
                   TextTable::num(cell.result.update_p99_ms, 2),
                   cell.result.crashed ? "yes" : "no",
                   cell.result.recovered ? "yes" : "no",
                   cell.result.recoveries > 0
                       ? TextTable::num(
                             cell.result.time_to_relocalize_mean_s, 2)
                       : std::string{"-"},
                   std::to_string(cell.events_total),
                   std::to_string(cell.events_critical),
                   std::to_string(cell.blackboxes.size())});
  }
  std::cout << "\n" << table.render();
  if (!config.blackbox_dir.empty()) {
    std::cout << "flight recorder: " << total_boxes
              << " black box(es) under " << config.blackbox_dir << "/, grid "
              << TextTable::num(grid_wall_s, 2) << " s\n";
  }

  // ---- Recorder A/B (opt-in) --------------------------------------------
  // SRL_RECORDER_AB=1 re-runs the grid with the recorder off: every cell's
  // row must be bitwise identical apart from its `timing` and `blackboxes`
  // (the recorder is instrumentation, never physics) and the wall-time
  // delta is the recorder's overhead, reported in provenance. A metric
  // mismatch is a hard failure.
  double baseline_wall_s = 0.0;
  double recorder_overhead_pct = 0.0;
  if (run_ab) {
    ScenarioMatrixConfig off = config;
    off.blackbox_dir.clear();
    const ScenarioMatrix bare{off};
    const auto ab_t0 = bench_clock::now();
    const std::vector<ScenarioCell> off_cells = bare.run(track);
    baseline_wall_s =
        std::chrono::duration<double>(bench_clock::now() - ab_t0).count();
    if (baseline_wall_s > 0.0) {
      recorder_overhead_pct = 100.0 * (grid_wall_s / baseline_wall_s - 1.0);
    }
    const auto metrics = [](const ScenarioCell& cell) {
      const json::Value row = cell_to_json(cell);
      json::Value kept = json::Value::object();
      for (const auto& [name, value] : row.members()) {
        if (name != "timing" && name != "blackboxes") kept.set(name, value);
      }
      return kept.dump(0);
    };
    std::size_t mismatches = 0;
    for (std::size_t i = 0;
         i < doc.cells.size() && i < off_cells.size(); ++i) {
      if (metrics(doc.cells[i]) != metrics(off_cells[i])) {
        ++mismatches;
        std::cerr << "RECORDER A/B MISMATCH: " << doc.cells[i].localizer
                  << " " << doc.cells[i].scenario.label()
                  << " differs with the recorder attached\n";
      }
    }
    std::cout << "recorder A/B: on " << TextTable::num(grid_wall_s, 2)
              << " s, off " << TextTable::num(baseline_wall_s, 2)
              << " s, overhead " << TextTable::num(recorder_overhead_pct, 2)
              << " %\n";
    if (mismatches > 0) {
      std::cerr << "recorder is NOT a bitwise no-op (" << mismatches
                << " cell(s) differ)\n";
      return 1;
    }
  }

  // ---- Headline ---------------------------------------------------------
  HeadlineComparison headline;
  if (compute_headline(doc.cells, "odom_slip_ramp", headline)) {
    doc.headline = headline;
    auto describe = [](double baseline_cm, double faulted_cm,
                       double degradation, bool crashed) {
      if (crashed) return TextTable::num(baseline_cm, 2) + " cm -> CRASHED";
      return TextTable::num(baseline_cm, 2) + " -> " +
             TextTable::num(faulted_cm, 2) + " cm (x" +
             TextTable::num(degradation, 2) + ")";
    };
    std::cout << "\nheadline (odom_slip_ramp @ "
              << TextTable::num(headline.severity, 2) << "): SynPF "
              << describe(headline.synpf_baseline_cm, headline.synpf_faulted_cm,
                          headline.synpf_degradation, headline.synpf_crashed)
              << ", CartoLite "
              << describe(headline.carto_baseline_cm, headline.carto_faulted_cm,
                          headline.carto_degradation, headline.carto_crashed)
              << "\n";
    std::cout << (headline.synpf_flat()
                      ? "paper shape reproduced: SynPF degrades less than "
                        "the Cartographer-style baseline under slip\n"
                      : "WARNING: paper shape NOT reproduced in this grid\n");
  }

  // ---- Governor table + graceful-degradation headline -------------------
  // Governed cells carry the PR-10 accounting block; print it as its own
  // table (the main grid is already wide) and pin the headline claim:
  // under full compute pressure the shedding governor stays deadline-clean
  // while the budget enforcer starves.
  {
    TextTable gtable{{"localizer", "fault", "sev", "budget", "updates",
                      "miss", "shed B", "shed P", "skip R", "resize",
                      "parts mu", "parts min", "beams mu", "cost p99"}};
    int governed_cells = 0;
    for (const ScenarioCell& cell : doc.cells) {
      if (!cell.governed) continue;
      ++governed_cells;
      gtable.add_row({cell.localizer, cell.scenario.fault,
                      TextTable::num(cell.scenario.severity, 2),
                      TextTable::num(cell.budget_ms, 1),
                      std::to_string(cell.governor_updates),
                      std::to_string(cell.deadline_misses),
                      std::to_string(cell.shed_beam_updates),
                      std::to_string(cell.shed_particle_updates),
                      std::to_string(cell.skipped_resamples),
                      std::to_string(cell.governor_resizes),
                      TextTable::num(cell.governor_mean_particles, 0),
                      std::to_string(cell.governor_min_particles),
                      TextTable::num(cell.governor_mean_beams, 1),
                      TextTable::num(cell.governor_cost_p99, 0)});
    }
    if (governed_cells > 0) {
      std::cout << "\ngovernor accounting (" << governed_cells
                << " governed cells, budget "
                << TextTable::num(config.budget_ms, 1) << " ms = "
                << TextTable::num(
                       config.budget_ms * governor::kDefaultUnitsPerMs, 0)
                << " work units):\n"
                << gtable.render();
    }

    GovernorHeadline gh;
    if (compute_governor_headline(doc.cells, gh)) {
      doc.governor_headline = gh;
      std::cout << "graceful degradation (compute_pressure @ "
                << TextTable::num(gh.severity, 2) << ", budget "
                << TextTable::num(gh.budget_ms, 1) << " ms): governed "
                << (gh.governed_crashed
                        ? std::string{"CRASHED"}
                        : TextTable::num(gh.governed_baseline_cm, 2) +
                              " -> " +
                              TextTable::num(gh.governed_pressured_cm, 2) +
                              " cm (x" +
                              TextTable::num(gh.governed_degradation, 2) +
                              ", " + std::to_string(gh.governed_misses) +
                              " misses, " +
                              std::to_string(gh.governed_shed_updates) +
                              " shed)")
                << "; enforcer "
                << (gh.enforcer_crashed
                        ? std::string{"CRASHED"}
                        : TextTable::num(gh.enforcer_pressured_cm, 2) +
                              " cm (" + std::to_string(gh.enforcer_misses) +
                              " missed deadlines)")
                << "\n";
      std::cout << (gh.graceful()
                        ? "graceful: governed stack stayed deadline-clean "
                          "where plain enforcement starved\n"
                        : "WARNING: graceful-degradation headline NOT "
                          "reproduced in this grid\n");
    }
  }

  // ---- Kidnap recovery headline -----------------------------------------
  // The PR-5 claim: a bare SynPF stays lost after a kidnap while the
  // supervised stack relocalizes and finishes the run.
  {
    double kidnap_sev = 0.0;
    for (const ScenarioCell& cell : doc.cells) {
      if (cell.scenario.fault == "kidnap") {
        kidnap_sev = std::max(kidnap_sev, cell.scenario.severity);
      }
    }
    const ScenarioCell* bare = nullptr;
    const ScenarioCell* supervised = nullptr;
    for (const ScenarioCell& cell : doc.cells) {
      if (cell.scenario.fault != "kidnap" ||
          cell.scenario.severity != kidnap_sev) {
        continue;
      }
      if (cell.localizer == "SynPF") bare = &cell;
      if (cell.localizer == "SynPF+Recovery") supervised = &cell;
    }
    if (bare != nullptr && supervised != nullptr) {
      auto describe = [](const ScenarioCell& cell) {
        if (cell.result.crashed) return std::string{"CRASHED"};
        if (!cell.result.recovered) return std::string{"stayed diverged"};
        return "relocalized in " +
               TextTable::num(cell.result.time_to_relocalize_mean_s, 2) +
               " s (post " +
               TextTable::num(cell.result.post_recovery_lateral_cm, 2) +
               " cm)";
      };
      std::cout << "kidnap recovery (@ " << TextTable::num(kidnap_sev, 2)
                << "): SynPF " << describe(*bare) << ", SynPF+Recovery "
                << describe(*supervised) << "\n";
    }
  }

  // ---- Serialize --------------------------------------------------------
  json::Value& prov = doc.provenance;
  prov = artifact_provenance(fast_mode());
  prov.set("seed", json::Value::number(static_cast<double>(config.seed)));
  prov.set("fault_seed",
           json::Value::number(static_cast<double>(config.fault_seed)));
  prov.set("laps", json::Value::number(config.experiment.laps));
  prov.set("n_particles", json::Value::number(config.n_particles));
  prov.set("matrix_threads", json::Value::number(config.matrix_threads));
  // Recorder wall times: informational, like all provenance.
  prov.set("recorder", json::Value::boolean(!config.blackbox_dir.empty()));
  prov.set("recorder_wall_s", json::Value::number(grid_wall_s));
  prov.set("baseline_wall_s", json::Value::number(baseline_wall_s));
  prov.set("recorder_overhead_pct", json::Value::number(recorder_overhead_pct));

  if (!bench_to_json(doc).save(out_file)) {
    std::cerr << "failed to write " << out_file << "\n";
    return 1;
  }
  std::cout << "wrote " << out_file << "\n";
  return 0;
}
