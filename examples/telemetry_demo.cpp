/// \file telemetry_demo.cpp
/// \brief End-to-end tour of the telemetry subsystem: record a short drive
/// (with a mid-run kidnap), replay it into a *supervised* SynPF with a
/// metrics registry + trace buffer attached, then export
///   - `telemetry_trace.json` — nested per-stage spans including the
///     recovery spans (recovery.inject / recovery.global_reloc), loadable
///     in chrome://tracing or ui.perfetto.dev,
///   - `telemetry_events.ndjson` — the structured event journal, one JSON
///     document per line,
///
/// and prints the event timeline of the scripted kidnap: the harness-level
/// events from the closed-loop recording run (experiment.kidnap, episode
/// open/close) followed by the filter + recovery events the supervised
/// replay journals while it detects and repairs the kidnap.
///
/// Build & run:  ./build/examples/telemetry_demo [laps]

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <memory>

#include "core/synpf.hpp"
#include "eval/experiment.hpp"
#include "eval/table.hpp"
#include "eval/trace.hpp"
#include "gridmap/track_generator.hpp"
#include "recovery/supervised_localizer.hpp"
#include "telemetry/telemetry.hpp"

int main(int argc, char** argv) {
  using namespace srl;

  const int laps = argc > 1 ? std::atoi(argv[1]) : 2;

  // 1. Record a sensor trace (odometry + scans + ground truth) by driving
  //    the closed-loop harness once.
  const Track track = TrackGenerator::test_track();
  auto map = std::make_shared<const OccupancyGrid>(track.grid);
  const LidarConfig lidar{};

  ExperimentConfig exp;
  exp.laps = laps;
  exp.mu = 0.76;
  // Kidnap the vehicle mid-drive so the replayed recovery layer has
  // something to detect and repair — its spans then show up in the trace.
  ExperimentConfig::KidnapSpec kidnap;
  kidnap.t = 10.0;
  kidnap.advance_frac = 0.25;
  exp.kidnaps.push_back(kidnap);
  ExperimentRunner runner{track, exp};

  SynPf driver{SynPfConfig{}, map, lidar};
  SensorTrace trace;
  // The recording run gets its own journal so the harness-level events
  // (experiment.kidnap, divergence episodes) can be printed alongside the
  // replay's filter/recovery events below.
  telemetry::Telemetry recording_telemetry;
  std::cout << "Recording " << laps << "-lap trace (kidnap at "
            << TextTable::num(kidnap.t, 1) << " s)...\n";
  runner.run(driver, &trace, recording_telemetry.sink());
  std::cout << "  " << trace.scans().size() << " scans, "
            << trace.odometry().size() << " odometry increments, "
            << TextTable::num(trace.duration(), 1) << " s\n";

  // 2. Replay it open-loop into a fresh *supervised* SynPF with full
  //    telemetry attached: per-stage histograms + health gauges into the
  //    registry, nested spans (including recovery actions) into the trace
  //    buffer.
  telemetry::Telemetry telemetry;
  SynPf synpf{SynPfConfig{}, map, lidar};
  recovery::SupervisedLocalizer supervised{synpf, {}, map, lidar};
  supervised.bind_filter(&synpf.filter());
  std::cout << "Replaying with telemetry + divergence supervision...\n";
  const SensorTrace::ReplayResult result =
      trace.replay(supervised, telemetry.sink());

  TextTable summary{{"metric", "value"}};
  summary.add_row({"pose RMSE [m]", TextTable::num(result.pose_rmse_m, 3)});
  summary.add_row({"update mean [ms]", TextTable::num(result.mean_update_ms, 3)});
  summary.add_row({"update p50 [ms]", TextTable::num(result.p50_update_ms, 3)});
  summary.add_row({"update p95 [ms]", TextTable::num(result.p95_update_ms, 3)});
  summary.add_row({"update p99 [ms]", TextTable::num(result.p99_update_ms, 3)});
  summary.add_row({"update max [ms]", TextTable::num(result.max_update_ms, 3)});
  std::cout << summary.render();

  // 3. Per-stage latency percentiles from the registry.
  TextTable stages{{"stage", "n", "mean [ms]", "p50 [ms]", "p95 [ms]",
                    "p99 [ms]", "max [ms]"}};
  for (const auto& row : telemetry.metrics.rows()) {
    if (row.kind != "histogram" || row.hist.count == 0) continue;
    stages.add_row({row.name, std::to_string(row.hist.count),
                    TextTable::num(row.hist.mean, 3),
                    TextTable::num(row.hist.p50, 3),
                    TextTable::num(row.hist.p95, 3),
                    TextTable::num(row.hist.p99, 3),
                    TextTable::num(row.hist.max, 3)});
  }
  std::cout << "\nPer-stage latency:\n" << stages.render();

  // 4. Filter health at the end of the replay.
  const telemetry::FilterHealth& health = synpf.filter().health();
  TextTable health_table{{"health signal", "value"}};
  health_table.add_row({"ESS", TextTable::num(health.ess, 1)});
  health_table.add_row({"ESS fraction", TextTable::num(health.ess_fraction, 3)});
  health_table.add_row(
      {"weight entropy [nats]", TextTable::num(health.weight_entropy, 3)});
  health_table.add_row(
      {"normalized entropy", TextTable::num(health.normalized_entropy, 3)});
  health_table.add_row(
      {"max weight share", TextTable::num(health.max_weight_share, 4)});
  health_table.add_row(
      {"resamples", std::to_string(health.resample_count)});
  health_table.add_row(
      {"last pose jump [m]", TextTable::num(health.pose_jump_m, 4)});
  std::cout << "\nFilter health (last update):\n" << health_table.render();

  // 5. Recovery layer: final state, transition counters, actions taken.
  auto counter = [&](const char* name) -> std::uint64_t {
    const telemetry::Counter* c = telemetry.metrics.find_counter(name);
    return c != nullptr ? c->value() : 0;
  };
  TextTable recovery_table{{"recovery signal", "value"}};
  recovery_table.add_row(
      {"state", recovery::to_string(supervised.state())});
  recovery_table.add_row(
      {"-> SUSPECT", std::to_string(counter("recovery.to_suspect"))});
  recovery_table.add_row(
      {"-> DIVERGED", std::to_string(counter("recovery.to_diverged"))});
  recovery_table.add_row(
      {"-> RECOVERING", std::to_string(counter("recovery.to_recovering"))});
  recovery_table.add_row(
      {"-> HEALTHY", std::to_string(counter("recovery.to_healthy"))});
  recovery_table.add_row(
      {"injections", std::to_string(counter("recovery.injections"))});
  recovery_table.add_row(
      {"global relocs", std::to_string(counter("recovery.global_relocs"))});
  recovery_table.add_row(
      {"blackouts", std::to_string(counter("recovery.blackouts"))});
  if (const telemetry::Histogram* ttr =
          telemetry.metrics.find_histogram("recovery.time_to_relocalize_s");
      ttr != nullptr && ttr->count() > 0) {
    recovery_table.add_row(
        {"time to relocalize [s]", TextTable::num(ttr->mean(), 2)});
  }
  std::cout << "\nDivergence recovery:\n" << recovery_table.render();

  // 6. The event timeline of the kidnap. Debug-severity events (every
  //    resample) are summarized, everything else is printed verbatim —
  //    this is the same journal a flight-recorder black box snapshots.
  auto print_timeline = [](const char* title,
                           const telemetry::EventLog& log) {
    std::uint64_t debug_count = 0;
    std::cout << "\n" << title << " (" << log.total() << " events, "
              << log.dropped() << " dropped):\n";
    for (const telemetry::Event& event : log.events()) {
      if (event.severity == telemetry::EventSeverity::kDebug) {
        ++debug_count;
        continue;
      }
      std::printf("  [%8.3f s] %-8s %-10s %s", event.t,
                  telemetry::to_string(event.severity),
                  telemetry::to_string(event.category), event.code.c_str());
      for (const auto& [key, value] : event.data.members()) {
        std::cout << "  " << key << "="
                  << (value.is_string() ? value.as_string() : value.dump(0));
      }
      std::cout << "\n";
    }
    if (debug_count > 0) {
      std::cout << "  (+ " << debug_count << " debug events elided)\n";
    }
  };
  print_timeline("Closed-loop harness events (recording run)",
                 recording_telemetry.events);
  print_timeline("Filter + recovery events (supervised replay)",
                 telemetry.events);

  // 7. Export: Chrome trace JSON + event journal NDJSON.
  const bool json_ok = telemetry.trace.write_chrome_trace("telemetry_trace.json");
  std::remove("telemetry_events.ndjson");  // write_ndjson appends
  const bool events_ok =
      telemetry.events.write_ndjson("telemetry_events.ndjson");
  std::cout << "\n"
            << (json_ok ? "wrote telemetry_trace.json ("
                        : "FAILED to write telemetry_trace.json (")
            << telemetry.trace.size() << " spans, " << telemetry.trace.dropped()
            << " dropped) — open in chrome://tracing or ui.perfetto.dev\n"
            << (events_ok ? "wrote telemetry_events.ndjson ("
                          : "FAILED to write telemetry_events.ndjson (")
            << telemetry.events.size() << " events)\n";
  return json_ok && events_ok ? 0 : 1;
}
