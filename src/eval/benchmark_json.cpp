#include "eval/benchmark_json.hpp"

#include "eval/artifact.hpp"

namespace srl {

json::Value cell_to_json(const ScenarioCell& cell) {
  json::Value c = json::Value::object();
  c.set("localizer", json::Value::string(cell.localizer));
  c.set("fault", json::Value::string(cell.scenario.fault));
  c.set("severity", json::Value::number(cell.scenario.severity));
  c.set("lateral_mean_cm", json::Value::number(cell.result.lateral_mean_cm));
  c.set("lateral_std_cm", json::Value::number(cell.result.lateral_std_cm));
  c.set("scan_alignment", json::Value::number(cell.result.scan_alignment));
  c.set("pose_rmse_m", json::Value::number(cell.result.pose_rmse_m));
  c.set("heading_rmse_rad", json::Value::number(cell.result.heading_rmse_rad));
  c.set("lap_time_mean_s", json::Value::number(cell.result.lap_time_mean));
  // Schema v5: the wall clock, which a rerun may change.
  json::Value timing = json::Value::object();
  timing.set("update_p50_ms", json::Value::number(cell.result.update_p50_ms));
  timing.set("update_p99_ms", json::Value::number(cell.result.update_p99_ms));
  timing.set("update_max_ms", json::Value::number(cell.result.update_max_ms));
  timing.set("load_percent", json::Value::number(cell.result.load_percent));
  timing.set("stage_p50_ms", json::Value::number(cell.stage_p50_ms));
  timing.set("stage_p99_ms", json::Value::number(cell.stage_p99_ms));
  c.set("timing", std::move(timing));
  c.set("ess_fraction_p50", json::Value::number(cell.ess_fraction_p50));
  c.set("ess_fraction_min", json::Value::number(cell.ess_fraction_min));
  c.set("resamples", json::Value::number(static_cast<double>(cell.resamples)));
  c.set("pose_jump_alarms",
        json::Value::number(static_cast<double>(cell.pose_jump_alarms)));
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
  // Schema v4: compute-governor block, present only on governed cells.
  // Costs are virtual work units — deterministic, gate-safe.
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
          json::Value::number(static_cast<double>(cell.shed_particle_updates)));
    g.set("skipped_resamples",
          json::Value::number(static_cast<double>(cell.skipped_resamples)));
    g.set("resizes", json::Value::number(
                         static_cast<double>(cell.governor_resizes)));
    g.set("mean_particles", json::Value::number(cell.governor_mean_particles));
    g.set("min_particles", json::Value::number(static_cast<double>(
                               cell.governor_min_particles)));
    g.set("mean_beams", json::Value::number(cell.governor_mean_beams));
    g.set("cost_units_p50", json::Value::number(cell.governor_cost_p50));
    g.set("cost_units_p99", json::Value::number(cell.governor_cost_p99));
    c.set("governor", std::move(g));
  }
  return c;
}

json::Value bench_to_json(const BenchDocument& doc) {
  json::Value root = artifact(kBenchRobustnessSchema, doc.provenance);

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
    cells.push_back(cell_to_json(cell));
  }
  root.set("cells", std::move(cells));

  if (doc.headline) {
    const HeadlineComparison& hc = *doc.headline;
    json::Value h = json::Value::object();
    h.set("fault", json::Value::string(hc.fault));
    h.set("severity", json::Value::number(hc.severity));
    h.set("synpf_baseline_cm", json::Value::number(hc.synpf_baseline_cm));
    h.set("synpf_faulted_cm", json::Value::number(hc.synpf_faulted_cm));
    h.set("synpf_degradation", json::Value::number(hc.synpf_degradation));
    h.set("synpf_crashed", json::Value::boolean(hc.synpf_crashed));
    h.set("carto_baseline_cm", json::Value::number(hc.carto_baseline_cm));
    h.set("carto_faulted_cm", json::Value::number(hc.carto_faulted_cm));
    h.set("carto_degradation", json::Value::number(hc.carto_degradation));
    h.set("carto_crashed", json::Value::boolean(hc.carto_crashed));
    h.set("synpf_flat", json::Value::boolean(hc.synpf_flat()));
    root.set("headline", std::move(h));
  }

  if (doc.governor_headline) {
    const GovernorHeadline& gh = *doc.governor_headline;
    json::Value h = json::Value::object();
    h.set("severity", json::Value::number(gh.severity));
    h.set("budget_ms", json::Value::number(gh.budget_ms));
    h.set("governed_baseline_cm", json::Value::number(gh.governed_baseline_cm));
    h.set("governed_pressured_cm",
          json::Value::number(gh.governed_pressured_cm));
    h.set("governed_degradation", json::Value::number(gh.governed_degradation));
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

}  // namespace srl
