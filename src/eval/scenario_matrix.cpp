#include "eval/scenario_matrix.hpp"

#include <algorithm>
#include <memory>

#include "common/json.hpp"
#include "common/parallel.hpp"
#include "telemetry/telemetry.hpp"

namespace srl {

std::string ScenarioSpec::label() const {
  return fault + "@" + json::format_number(severity);
}

ScenarioMatrix::ScenarioMatrix(ScenarioMatrixConfig config)
    : config_{std::move(config)} {}

std::vector<ScenarioCell> ScenarioMatrix::run(const Track& track) const {
  auto map = std::make_shared<const OccupancyGrid>(track.grid);

  // Materialize the grid localizer-major so cell index -> (localizer,
  // scenario) is a pure function of the config.
  std::vector<ScenarioCell> cells;
  for (const std::string& localizer : config_.localizers) {
    for (const ScenarioSpec& spec : config_.scenarios) {
      ScenarioCell cell;
      cell.localizer = localizer;
      cell.scenario = spec;
      cells.push_back(std::move(cell));
    }
  }

  // Every cell is an independent deterministic simulation (own localizer,
  // own pipeline, own runner, seeded from the config), so fanning out over
  // the pool cannot change any cell's bits — only wall-clock. Cell costs are
  // uneven, so lanes claim cells one at a time instead of in fixed chunks.
  ThreadPool pool{config_.matrix_threads};
  pool.claim_each(cells.size(), [&](int /*lane*/, std::size_t i) {
    ScenarioCell& cell = cells[i];
    ExperimentConfig experiment = config_.experiment;
    experiment.seed = config_.seed;
    if (cell.scenario.fault == "kidnap") {
      // Pseudo-fault: no sensor corruption — the true vehicle teleports.
      ExperimentConfig::KidnapSpec kidnap;
      kidnap.t = config_.kidnap_time;
      kidnap.advance_frac = config_.kidnap_advance * cell.scenario.severity;
      experiment.kidnaps.push_back(kidnap);
      // Run the clock out instead of stopping at the lap budget, so the
      // post-kidnap recovery (or failure to recover) is fully observed.
      experiment.laps = 1000000;
    }

    // The cell's recipe builds its stack and rides in its black boxes.
    PostmortemStackSpec spec;
    spec.track = config_.track_name;
    spec.localizer = cell.localizer;
    spec.n_particles = config_.n_particles;
    spec.threads = config_.cell_threads;
    spec.fault = cell.scenario.fault;
    spec.severity = cell.scenario.severity;
    spec.fault_seed = config_.fault_seed;
    if (const auto kind = parse_stack_kind(cell.localizer)) {
      spec.governor = kind->governor;
    }
    spec.budget_ms = spec.governor.empty() ? 0.0 : config_.budget_ms;

    // A cell reads only metrics and events, so no span buffer is attached.
    telemetry::MetricsRegistry metrics;
    telemetry::EventLog events;
    static_cast<CellOutcome&>(cell) = run_cell(
        {spec, experiment}, track, map, {&metrics, nullptr, &events, nullptr},
        {config_.blackbox_dir, cell.localizer + "-" + cell.scenario.label()});
  });
  return cells;
}

ScenarioMatrixConfig ScenarioMatrix::smoke_config() {
  ScenarioMatrixConfig config;
  config.localizers = {"SynPF", "CartoLite", "SynPF+Recovery",
                       "SynPF+Governor", "SynPF+Budget"};
  config.scenarios = {
      {"none", 0.0},          {"odom_slip_ramp", 0.5}, {"odom_slip_ramp", 1.0},
      {"lidar_dropout", 0.5}, {"lidar_dropout", 1.0},  {"kidnap", 1.0},
      {"blackout", 1.0},      {"compute_pressure", 0.5},
      {"compute_pressure", 1.0},
  };
  config.experiment.laps = 1;
  config.experiment.max_sim_time = 60.0;
  config.n_particles = 800;
  return config;
}

ScenarioMatrixConfig ScenarioMatrix::full_config() {
  ScenarioMatrixConfig config;
  config.localizers = {"SynPF", "CartoLite", "SynPF+Recovery",
                       "SynPF+Governor", "SynPF+Budget"};
  config.scenarios.push_back({"none", 0.0});
  for (const char* fault :
       {"odom_slip_ramp", "odom_yaw_bias", "lidar_dropout", "lidar_noise",
        "scan_decimation", "blackout", "compute_pressure"}) {
    for (const double severity : {0.25, 0.5, 1.0}) {
      config.scenarios.push_back({fault, severity});
    }
  }
  config.scenarios.push_back({"kidnap", 0.5});
  config.scenarios.push_back({"kidnap", 1.0});
  config.experiment.laps = 2;
  return config;
}

bool compute_headline(const std::vector<ScenarioCell>& cells,
                      const std::string& fault, HeadlineComparison& out) {
  out = HeadlineComparison{};
  out.fault = fault;
  // Highest severity present for the fault.
  for (const ScenarioCell& cell : cells) {
    if (cell.scenario.fault == fault) {
      out.severity = std::max(out.severity, cell.scenario.severity);
    }
  }
  if (out.severity <= 0.0) return false;

  bool have_synpf = false;
  bool have_carto = false;
  for (const ScenarioCell& cell : cells) {
    const bool baseline = cell.scenario.fault == "none";
    const bool faulted = cell.scenario.fault == fault &&
                         cell.scenario.severity == out.severity;
    if (!baseline && !faulted) continue;
    if (cell.localizer == "SynPF") {
      (baseline ? out.synpf_baseline_cm : out.synpf_faulted_cm) =
          cell.result.lateral_mean_cm;
      if (faulted) out.synpf_crashed = cell.result.crashed;
      have_synpf = true;
    } else if (cell.localizer == "CartoLite") {
      (baseline ? out.carto_baseline_cm : out.carto_faulted_cm) =
          cell.result.lateral_mean_cm;
      if (faulted) out.carto_crashed = cell.result.crashed;
      have_carto = true;
    }
  }
  if (!have_synpf || !have_carto) return false;
  if (out.synpf_baseline_cm <= 0.0 || out.carto_baseline_cm <= 0.0) {
    return false;
  }
  out.synpf_degradation = out.synpf_crashed
                              ? HeadlineComparison::kCrashDegradation
                              : out.synpf_faulted_cm / out.synpf_baseline_cm;
  out.carto_degradation = out.carto_crashed
                              ? HeadlineComparison::kCrashDegradation
                              : out.carto_faulted_cm / out.carto_baseline_cm;
  return true;
}

bool compute_governor_headline(const std::vector<ScenarioCell>& cells,
                               GovernorHeadline& out) {
  out = GovernorHeadline{};
  for (const ScenarioCell& cell : cells) {
    if (cell.governed && cell.scenario.fault == "compute_pressure") {
      out.severity = std::max(out.severity, cell.scenario.severity);
    }
  }
  if (out.severity <= 0.0) return false;

  bool have_baseline = false;
  bool have_governed = false;
  bool have_enforcer = false;
  for (const ScenarioCell& cell : cells) {
    if (!cell.governed) continue;
    const bool baseline = cell.scenario.fault == "none";
    const bool pressured = cell.scenario.fault == "compute_pressure" &&
                           cell.scenario.severity == out.severity;
    if (!baseline && !pressured) continue;
    if (cell.governor_shed) {
      if (baseline) {
        out.governed_baseline_cm = cell.result.lateral_mean_cm;
        have_baseline = true;
      } else {
        out.budget_ms = cell.budget_ms;
        out.governed_pressured_cm = cell.result.lateral_mean_cm;
        out.governed_crashed = cell.result.crashed;
        out.governed_misses = cell.deadline_misses;
        out.governed_shed_updates =
            cell.shed_beam_updates + cell.shed_particle_updates;
        have_governed = true;
      }
    } else if (pressured) {
      out.enforcer_pressured_cm = cell.result.lateral_mean_cm;
      out.enforcer_crashed = cell.result.crashed;
      out.enforcer_misses = cell.deadline_misses;
      have_enforcer = true;
    }
  }
  if (!have_baseline || !have_governed || !have_enforcer) return false;
  if (out.governed_baseline_cm <= 0.0) return false;
  out.governed_degradation =
      out.governed_crashed ? HeadlineComparison::kCrashDegradation
                           : out.governed_pressured_cm / out.governed_baseline_cm;
  return true;
}

}  // namespace srl
