#include "eval/benchmark_json.hpp"

namespace srl {

std::string compiler_id() {
#if defined(__clang__)
  return "clang " + std::to_string(__clang_major__) + "." +
         std::to_string(__clang_minor__) + "." +
         std::to_string(__clang_patchlevel__);
#elif defined(__GNUC__)
  return "gcc " + std::to_string(__GNUC__) + "." +
         std::to_string(__GNUC_MINOR__) + "." +
         std::to_string(__GNUC_PATCHLEVEL__);
#else
  return "unknown";
#endif
}

json::Value bench_to_json(const BenchDocument& doc) {
  json::Value root = json::Value::object();
  root.set("schema", json::Value::string(kBenchRobustnessSchema));

  json::Value provenance = json::Value::object();
  provenance.set("compiler", json::Value::string(doc.provenance.compiler));
  provenance.set("build", json::Value::string(doc.provenance.build));
  provenance.set("git_sha", json::Value::string(doc.provenance.git_sha));
  provenance.set("seed",
                 json::Value::number(static_cast<double>(doc.provenance.seed)));
  provenance.set("fault_seed", json::Value::number(static_cast<double>(
                                   doc.provenance.fault_seed)));
  provenance.set("laps", json::Value::number(doc.provenance.laps));
  provenance.set("n_particles",
                 json::Value::number(doc.provenance.n_particles));
  provenance.set("matrix_threads",
                 json::Value::number(doc.provenance.matrix_threads));
  provenance.set("fast_mode", json::Value::boolean(doc.provenance.fast_mode));
  // Schema v3: recorder provenance. Informational (the compare gate never
  // reads it), so wall-clock numbers here cannot fail a bitwise self-diff.
  provenance.set("recorder", json::Value::boolean(doc.provenance.recorder));
  provenance.set("recorder_wall_s",
                 json::Value::number(doc.provenance.recorder_wall_s));
  provenance.set("baseline_wall_s",
                 json::Value::number(doc.provenance.baseline_wall_s));
  provenance.set("recorder_overhead_pct",
                 json::Value::number(doc.provenance.recorder_overhead_pct));
  root.set("provenance", std::move(provenance));

  json::Value traces = json::Value::array();
  for (const FaultTraceFingerprint& fp : doc.fault_traces) {
    json::Value t = json::Value::object();
    t.set("fault", json::Value::string(fp.fault));
    t.set("severity", json::Value::number(fp.severity));
    t.set("trace_hash", json::Value::string(json::format_hex64(fp.trace_hash)));
    t.set("n_scans",
          json::Value::number(static_cast<double>(fp.n_scans)));
    t.set("n_odometry",
          json::Value::number(static_cast<double>(fp.n_odometry)));
    traces.push_back(std::move(t));
  }
  root.set("fault_traces", std::move(traces));

  json::Value cells = json::Value::array();
  for (const ScenarioCell& cell : doc.cells) {
    json::Value c = json::Value::object();
    c.set("localizer", json::Value::string(cell.localizer));
    c.set("fault", json::Value::string(cell.scenario.fault));
    c.set("severity", json::Value::number(cell.scenario.severity));
    c.set("lateral_mean_cm", json::Value::number(cell.result.lateral_mean_cm));
    c.set("lateral_std_cm", json::Value::number(cell.result.lateral_std_cm));
    c.set("scan_alignment", json::Value::number(cell.result.scan_alignment));
    c.set("pose_rmse_m", json::Value::number(cell.result.pose_rmse_m));
    c.set("heading_rmse_rad",
          json::Value::number(cell.result.heading_rmse_rad));
    c.set("lap_time_mean_s", json::Value::number(cell.result.lap_time_mean));
    c.set("update_p50_ms", json::Value::number(cell.result.update_p50_ms));
    c.set("update_p99_ms", json::Value::number(cell.result.update_p99_ms));
    c.set("update_max_ms", json::Value::number(cell.result.update_max_ms));
    c.set("load_percent", json::Value::number(cell.result.load_percent));
    c.set("ess_fraction_p50", json::Value::number(cell.ess_fraction_p50));
    c.set("ess_fraction_min", json::Value::number(cell.ess_fraction_min));
    c.set("resamples",
          json::Value::number(static_cast<double>(cell.resamples)));
    c.set("pose_jump_alarms",
          json::Value::number(static_cast<double>(cell.pose_jump_alarms)));
    c.set("stage_p50_ms", json::Value::number(cell.stage_p50_ms));
    c.set("stage_p99_ms", json::Value::number(cell.stage_p99_ms));
    c.set("crashed", json::Value::boolean(cell.result.crashed));
    c.set("completed", json::Value::boolean(cell.result.completed));
    // Schema v2: recovery block.
    c.set("recovery_success", json::Value::boolean(cell.result.recovered));
    c.set("kidnaps", json::Value::number(
                         static_cast<double>(cell.result.kidnaps_applied)));
    c.set("divergence_episodes",
          json::Value::number(
              static_cast<double>(cell.result.divergence_episodes)));
    c.set("recoveries",
          json::Value::number(static_cast<double>(cell.result.recoveries)));
    c.set("time_to_reloc_mean_s",
          json::Value::number(cell.result.time_to_relocalize_mean_s));
    c.set("time_to_reloc_max_s",
          json::Value::number(cell.result.time_to_relocalize_max_s));
    c.set("post_divergence_lateral_cm",
          json::Value::number(cell.result.post_divergence_lateral_cm));
    c.set("reinjections",
          json::Value::number(static_cast<double>(cell.reinjections)));
    c.set("global_relocs",
          json::Value::number(static_cast<double>(cell.global_relocs)));
    c.set("recovery_transitions",
          json::Value::number(static_cast<double>(cell.recovery_transitions)));
    // Schema v3: event-journal summary + black-box artifacts.
    json::Value events = json::Value::object();
    events.set("total",
               json::Value::number(static_cast<double>(cell.events_total)));
    events.set("warn",
               json::Value::number(static_cast<double>(cell.events_warn)));
    events.set("error",
               json::Value::number(static_cast<double>(cell.events_error)));
    events.set("critical",
               json::Value::number(static_cast<double>(cell.events_critical)));
    events.set("dropped",
               json::Value::number(static_cast<double>(cell.events_dropped)));
    c.set("events", std::move(events));
    json::Value boxes = json::Value::array();
    for (const std::string& box : cell.blackboxes) {
      boxes.push_back(json::Value::string(box));
    }
    c.set("blackboxes", std::move(boxes));
    // Schema v4: compute-governor block, present only on governed cells so
    // ungoverned documents stay byte-compatible with v3 modulo the schema
    // string. Costs are virtual work units — deterministic, gate-safe.
    if (cell.governed) {
      json::Value g = json::Value::object();
      g.set("mode", json::Value::string(cell.governor_shed ? "govern"
                                                           : "enforce"));
      g.set("budget_ms", json::Value::number(cell.budget_ms));
      g.set("updates", json::Value::number(
                           static_cast<double>(cell.governor_updates)));
      g.set("deadline_misses",
            json::Value::number(static_cast<double>(cell.deadline_misses)));
      g.set("shed_beam_updates",
            json::Value::number(static_cast<double>(cell.shed_beam_updates)));
      g.set("shed_particle_updates",
            json::Value::number(
                static_cast<double>(cell.shed_particle_updates)));
      g.set("skipped_resamples",
            json::Value::number(
                static_cast<double>(cell.skipped_resamples)));
      g.set("resizes", json::Value::number(
                           static_cast<double>(cell.governor_resizes)));
      g.set("mean_particles",
            json::Value::number(cell.governor_mean_particles));
      g.set("min_particles", json::Value::number(static_cast<double>(
                                 cell.governor_min_particles)));
      g.set("mean_beams", json::Value::number(cell.governor_mean_beams));
      g.set("cost_units_p50", json::Value::number(cell.governor_cost_p50));
      g.set("cost_units_p99", json::Value::number(cell.governor_cost_p99));
      c.set("governor", std::move(g));
    }
    cells.push_back(std::move(c));
  }
  root.set("cells", std::move(cells));

  if (doc.has_headline) {
    json::Value h = json::Value::object();
    h.set("fault", json::Value::string(doc.headline.fault));
    h.set("severity", json::Value::number(doc.headline.severity));
    h.set("synpf_baseline_cm",
          json::Value::number(doc.headline.synpf_baseline_cm));
    h.set("synpf_faulted_cm",
          json::Value::number(doc.headline.synpf_faulted_cm));
    h.set("synpf_degradation",
          json::Value::number(doc.headline.synpf_degradation));
    h.set("synpf_crashed", json::Value::boolean(doc.headline.synpf_crashed));
    h.set("carto_baseline_cm",
          json::Value::number(doc.headline.carto_baseline_cm));
    h.set("carto_faulted_cm",
          json::Value::number(doc.headline.carto_faulted_cm));
    h.set("carto_degradation",
          json::Value::number(doc.headline.carto_degradation));
    h.set("carto_crashed", json::Value::boolean(doc.headline.carto_crashed));
    h.set("synpf_flat", json::Value::boolean(doc.headline.synpf_flat()));
    root.set("headline", std::move(h));
  }

  if (doc.has_governor_headline) {
    const GovernorHeadline& gh = doc.governor_headline;
    json::Value h = json::Value::object();
    h.set("severity", json::Value::number(gh.severity));
    h.set("budget_ms", json::Value::number(gh.budget_ms));
    h.set("governed_baseline_cm",
          json::Value::number(gh.governed_baseline_cm));
    h.set("governed_pressured_cm",
          json::Value::number(gh.governed_pressured_cm));
    h.set("governed_degradation",
          json::Value::number(gh.governed_degradation));
    h.set("governed_crashed", json::Value::boolean(gh.governed_crashed));
    h.set("governed_misses",
          json::Value::number(static_cast<double>(gh.governed_misses)));
    h.set("governed_shed_updates",
          json::Value::number(static_cast<double>(gh.governed_shed_updates)));
    h.set("enforcer_pressured_cm",
          json::Value::number(gh.enforcer_pressured_cm));
    h.set("enforcer_crashed", json::Value::boolean(gh.enforcer_crashed));
    h.set("enforcer_misses",
          json::Value::number(static_cast<double>(gh.enforcer_misses)));
    h.set("graceful", json::Value::boolean(gh.graceful()));
    root.set("governor_headline", std::move(h));
  }
  return root;
}

bool write_bench_json(const std::string& path, const BenchDocument& doc) {
  return bench_to_json(doc).save(path);
}

}  // namespace srl
