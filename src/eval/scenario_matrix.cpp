#include "eval/scenario_matrix.hpp"

#include <algorithm>
#include <memory>

#include "common/json.hpp"
#include "common/parallel.hpp"
#include "eval/stack.hpp"
#include "telemetry/telemetry.hpp"

namespace srl {

std::string ScenarioSpec::label() const {
  return fault + "@" + json::format_number(severity);
}

ScenarioMatrix::ScenarioMatrix(ScenarioMatrixConfig config)
    : config_{std::move(config)} {}

namespace {

double hist_quantile(const telemetry::MetricsRegistry& metrics,
                     const char* name, double q) {
  const telemetry::Histogram* h = metrics.find_histogram(name);
  return h != nullptr ? h->percentile(q) : 0.0;
}

std::uint64_t counter_value(const telemetry::MetricsRegistry& metrics,
                            const char* name) {
  const telemetry::Counter* c = metrics.find_counter(name);
  return c != nullptr ? c->value() : 0;
}

}  // namespace

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
  // the pool cannot change any cell's bits — only wall-clock.
  ThreadPool pool{config_.matrix_threads};
  pool.parallel_for(cells.size(), [&](int /*lane*/, std::size_t begin,
                                      std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
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
      std::string error;
      const std::unique_ptr<LocalizerStack> stack =
          LocalizerStack::build(spec, map, experiment.lidar, error);
      if (stack == nullptr) continue;  // unknown kind or fault: zeroed cell

      telemetry::Telemetry telemetry;
      telemetry::Sink sink = telemetry.sink();
      std::unique_ptr<telemetry::FlightRecorder> recorder;
      if (!config_.blackbox_dir.empty()) {
        recorder = stack->make_recorder(
            config_.blackbox_dir, cell.localizer + "-" + cell.scenario.label(),
            &telemetry.events);
        sink.recorder = recorder.get();
      }

      ExperimentRunner runner{track, experiment};
      cell.result = runner.run(stack->top(), nullptr, sink);

      cell.events_total = telemetry.events.total();
      cell.events_warn = telemetry.events.count(telemetry::EventSeverity::kWarn);
      cell.events_error =
          telemetry.events.count(telemetry::EventSeverity::kError);
      cell.events_critical = telemetry.events.critical_count();
      cell.events_dropped = telemetry.events.dropped();
      if (recorder != nullptr) cell.blackboxes = recorder->dump_paths();

      cell.has_recovery = true;
      cell.recovery_success = cell.result.recovered;
      cell.kidnaps = cell.result.kidnaps_applied;
      cell.divergence_episodes = cell.result.divergence_episodes;
      cell.recoveries = cell.result.recoveries;
      cell.time_to_reloc_mean_s = cell.result.time_to_relocalize_mean_s;
      cell.time_to_reloc_max_s = cell.result.time_to_relocalize_max_s;
      cell.post_divergence_lateral_cm =
          cell.result.post_divergence_lateral_cm;

      const telemetry::MetricsRegistry& m = telemetry.metrics;
      cell.reinjections = counter_value(m, "recovery.injections");
      cell.global_relocs = counter_value(m, "recovery.global_relocs");
      cell.recovery_transitions = counter_value(m, "recovery.to_suspect") +
                                  counter_value(m, "recovery.to_diverged") +
                                  counter_value(m, "recovery.to_recovering") +
                                  counter_value(m, "recovery.to_healthy");
      cell.ess_fraction_p50 = hist_quantile(m, "pf.ess_fraction_dist", 0.50);
      const telemetry::Histogram* ess = m.find_histogram("pf.ess_fraction_dist");
      cell.ess_fraction_min = ess != nullptr ? ess->min() : 0.0;
      cell.resamples = counter_value(m, "pf.resamples");
      cell.pose_jump_alarms = counter_value(m, "pf.pose_jump_alarms");
      const char* stage = stack->synpf() != nullptr ? "pf.raycast_ms"
                                                    : "carto.local_match_ms";
      cell.stage_p50_ms = hist_quantile(m, stage, 0.50);
      cell.stage_p99_ms = hist_quantile(m, stage, 0.99);

      if (const governor::GovernedLocalizer* governed = stack->governor()) {
        cell.governed = true;
        cell.governor_shed = governed->config().shed;
        cell.budget_ms = governed->config().budget_ms;
        cell.governor_updates = governed->updates();
        cell.deadline_misses = governed->deadline_misses();
        cell.shed_beam_updates = governed->shed_beam_updates();
        cell.shed_particle_updates = governed->shed_particle_updates();
        cell.skipped_resamples = governed->skipped_resamples();
        cell.governor_resizes = governed->resizes();
        cell.governor_mean_particles = governed->mean_particles();
        cell.governor_min_particles = governed->min_particles_seen();
        cell.governor_mean_beams = governed->mean_beams();
        cell.governor_cost_p50 = governed->cost_units_p50();
        cell.governor_cost_p99 = governed->cost_units_p99();
      }
    }
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
