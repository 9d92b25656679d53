/// \file check_determinism.cpp
/// \brief Bitwise-determinism checker — the CI replay smoke.
///
/// Records a short closed-loop lap on a generated oval, then replays the
/// captured `SensorTrace` into SynPF under several regimes and demands
/// *bitwise* identical pose estimates and accuracy metrics:
///
///   1. twice from the same seed (run-to-run determinism),
///   2. across a textual save/restore of the full RNG state (the state is
///      the complete description of the stochastic process),
///   3. with and without a telemetry sink attached (instrumentation must
///      not perturb estimates — the PR-1 guarantee),
///   4. across worker-lane counts (n_threads 2 and 8 vs the serial path —
///      the PR-3 guarantee: parallel execution is bitwise invisible),
///   5. under a stacked fault pipeline (slip ramp + LiDAR dropout): the
///      corrupted trace hashes identically on re-corruption, a severity-0
///      pipeline is a bitwise no-op, and replaying the corrupted trace is
///      thread-count invariant (the PR-4 guarantee: fault injection is as
///      deterministic as everything it corrupts),
///   6. through a mid-run kidnap with the supervised recovery layer on top:
///      detection + recovery replay bitwise across reruns and worker-lane
///      counts, and a policies-off supervisor is a bitwise no-op on the
///      bare filter's estimates (the PR-5 guarantee: recovery draws come
///      from their own pinned substream schedule),
///   7. with the flight recorder + event journal attached to the supervised
///      kidnap replay: estimates stay bitwise identical to the recorder-off
///      run, and the recorder's per-tick estimate hash is invariant across
///      worker-lane counts (the PR-6 guarantee black-box replay rests on),
///   8. the frontier scenario sampler (eval/frontier): `sample(index)` is a
///      pure function of (seed, index) — call order, interleaving, and a
///      fresh sampler all land on the same scenario bits — and the
///      severity-bisected frontier search serializes to a byte-identical
///      artifact at 1 and 8 search lanes (the PR-7 guarantee the
///      `srl.frontier/1` CI gate rests on),
///   9. across SIMD backends: a replay forced to the scalar kernels and one
///      forced to the AVX2 kernels must land on the reference bits at 1 and
///      8 worker lanes, for SynPF on the LUT and on CDDT (the SoA
///      sensor-update guarantee: vectorization is an implementation
///      detail, never a numeric choice), and so must CartoLite replays of
///      the same lap, whose correlative search has an AVX2 kernel too. The
///      lap recorded under each backend (the truth LiDAR's batch cast)
///      must hash to the reference trace. Hosts without AVX2 print an
///      explicit SKIP for the vector half — never a silent pass,
///  10. under the compute governor (PR-10): a governed replay — adaptive
///      sizing + shedding ladder under a squeezed budget — is bitwise
///      stable across reruns and worker-lane counts (resize draws come
///      from the pinned governor substream, keyed by update ordinal, and
///      virtual-cost accounting never reads a clock); a budget-off,
///      adaptive-off governor is a bitwise no-op on the bare filter; a
///      severity-0 compute-pressure stage moves nothing; and the
///      compute-pressure injector corrupts zero sensor bytes (its trace
///      hash equals the clean trace's),
///
/// and, in a SYNPF_CHECKED build, requires the whole lap to complete with
/// zero contract violations (reported through `telemetry::ContractMonitor`).
///
/// Exit code 0 on success; prints the first divergence otherwise. Usage:
///
///     check_determinism [max_sim_time_s]   (default 25)

#include <cstdio>
#include <cstring>
#include <sstream>
#include <string>

#include "common/simd.hpp"
#include "core/synpf.hpp"
#include "eval/dead_reckoning.hpp"
#include "eval/experiment.hpp"
#include "eval/fault_replay.hpp"
#include "eval/frontier/frontier_json.hpp"
#include "eval/frontier/frontier_search.hpp"
#include "eval/trace.hpp"
#include "fault/pipeline.hpp"
#include "governor/governor.hpp"
#include "gridmap/track_generator.hpp"
#include "recovery/supervised_localizer.hpp"
#include "slam/pure_localization.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/telemetry.hpp"

namespace {

using namespace srl;

bool bitwise_equal(const Pose2& a, const Pose2& b) {
  return std::memcmp(&a.x, &b.x, sizeof(double)) == 0 &&
         std::memcmp(&a.y, &b.y, sizeof(double)) == 0 &&
         std::memcmp(&a.theta, &b.theta, sizeof(double)) == 0;
}

/// Compare two replays bitwise: every pose estimate and the accuracy
/// metrics (latency fields are wall-clock and excluded by design).
bool compare(const SensorTrace::ReplayResult& a,
             const SensorTrace::ReplayResult& b, const char* label) {
  if (a.estimates.size() != b.estimates.size()) {
    std::fprintf(stderr, "[%s] estimate count differs: %zu vs %zu\n", label,
                 a.estimates.size(), b.estimates.size());
    return false;
  }
  for (std::size_t i = 0; i < a.estimates.size(); ++i) {
    if (!bitwise_equal(a.estimates[i], b.estimates[i])) {
      std::fprintf(stderr,
                   "[%s] estimate %zu diverges: (%.17g, %.17g, %.17g) vs "
                   "(%.17g, %.17g, %.17g)\n",
                   label, i, a.estimates[i].x, a.estimates[i].y,
                   a.estimates[i].theta, b.estimates[i].x, b.estimates[i].y,
                   b.estimates[i].theta);
      return false;
    }
  }
  if (std::memcmp(&a.pose_rmse_m, &b.pose_rmse_m, sizeof(double)) != 0 ||
      std::memcmp(&a.heading_rmse_rad, &b.heading_rmse_rad, sizeof(double)) !=
          0) {
    std::fprintf(stderr, "[%s] accuracy metrics diverge: %.17g/%.17g vs "
                 "%.17g/%.17g\n",
                 label, a.pose_rmse_m, a.heading_rmse_rad, b.pose_rmse_m,
                 b.heading_rmse_rad);
    return false;
  }
  std::printf("[%s] OK — %zu estimates bitwise-identical\n", label,
              a.estimates.size());
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  double max_sim_time = 25.0;
  if (argc > 1) max_sim_time = std::stod(argv[1]);

  // Contract accounting: in a SYNPF_CHECKED build every violation across the
  // recording lap and all replays is counted here and fails the run.
  telemetry::MetricsRegistry contract_registry;
  telemetry::ContractMonitor monitor{contract_registry};

  const Track track = TrackGenerator::oval(8.0, 2.5);
  auto record_lap = [&] {
    ExperimentConfig cfg;
    cfg.laps = 1;
    cfg.max_sim_time = max_sim_time;
    cfg.profile.scale = 0.5;
    ExperimentRunner runner{track, cfg};
    DeadReckoning driver;
    SensorTrace lap;
    runner.run(driver, &lap);
    return lap;
  };
  const SensorTrace trace = record_lap();
  if (trace.scans().empty()) {
    std::fprintf(stderr, "recorded trace is empty\n");
    return 1;
  }
  std::printf("recorded %zu scans / %zu odometry increments (contracts %s)\n",
              trace.scans().size(), trace.odometry().size(),
              contracts::enabled() ? "ON" : "off");

  auto map = std::make_shared<const OccupancyGrid>(track.grid);
  SynPfConfig cfg;
  cfg.filter.n_particles = 600;
  // The reference regime is the exact serial path; regimes 4+ replay the
  // same trace over real worker pools and must land on the same bits.
  cfg.filter.n_threads = 1;

  bool ok = true;

  // 1. Same seed, two fresh filters. The reference dies with its replay,
  // so its LUT cannot outlive it into regime 9's forced builds.
  const auto ra = [&] {
    SynPf a{cfg, map, LidarConfig{}};
    return trace.replay(a);
  }();
  {
    SynPf b{cfg, map, LidarConfig{}};
    const auto rb = trace.replay(b);
    ok = compare(ra, rb, "rerun") && ok;
  }

  // 2. Save the RNG state, scramble the generator, restore, replay: the
  // serialized state must capture the stochastic process completely.
  {
    SynPf c{cfg, map, LidarConfig{}};
    std::stringstream saved;
    saved << c.filter().rng();
    for (int i = 0; i < 1000; ++i) c.filter().rng().uniform();
    saved >> c.filter().rng();
    const auto rc = trace.replay(c);
    ok = compare(ra, rc, "rng-save-restore") && ok;
  }

  // 3. Telemetry attached: instrumentation must not perturb estimates.
  {
    telemetry::Telemetry telemetry;
    SynPf d{cfg, map, LidarConfig{}};
    const auto rd = trace.replay(d, telemetry.sink());
    ok = compare(ra, rd, "telemetry-attached") && ok;
  }

  // 4. Thread-count invariance: the per-particle stages fan out over 2 and
  // 8 worker lanes; estimates and metrics must still match the serial
  // reference bit for bit (slot substreams + static chunks + fixed-order
  // reductions — DESIGN.md §9).
  for (const int threads : {2, 8}) {
    SynPfConfig tcfg = cfg;
    tcfg.filter.n_threads = threads;
    SynPf t{tcfg, map, LidarConfig{}};
    const auto rt = trace.replay(t);
    char label[32];
    std::snprintf(label, sizeof(label), "threads=%d", threads);
    ok = compare(ra, rt, label) && ok;
  }

  // 5. Fault-injection determinism: a stacked pipeline corrupts the trace
  // to the same bytes every time (hash check), severity 0 never touches a
  // byte, and the corrupted trace replays thread-count invariant.
  {
    auto make_pipeline = [] {
      fault::FaultPipeline pipeline{0x7a017ULL, LidarConfig{}};
      pipeline.add("odom_slip_ramp", 0.7);
      pipeline.add("lidar_dropout", 0.5);
      return pipeline;
    };
    const SensorTrace corrupted = corrupt_trace(make_pipeline(), trace);
    const std::uint64_t h1 = trace_hash(corrupted);
    const std::uint64_t h2 = trace_hash(corrupt_trace(make_pipeline(), trace));
    if (h1 != h2) {
      std::fprintf(stderr,
                   "[fault-rerun] corrupted-trace hash diverges: "
                   "%016llx vs %016llx\n",
                   static_cast<unsigned long long>(h1),
                   static_cast<unsigned long long>(h2));
      ok = false;
    } else {
      std::printf("[fault-rerun] OK — corrupted trace hash %016llx stable\n",
                  static_cast<unsigned long long>(h1));
    }

    fault::FaultPipeline noop{0x7a017ULL, LidarConfig{}};
    noop.add("odom_slip_ramp", 0.0);
    noop.add("lidar_dropout", 0.0);
    if (trace_hash(corrupt_trace(noop, trace)) != trace_hash(trace)) {
      std::fprintf(stderr,
                   "[fault-noop] severity-0 pipeline altered the trace\n");
      ok = false;
    } else {
      std::printf("[fault-noop] OK — severity-0 pipeline is a bitwise no-op\n");
    }

    SynPf f1{cfg, map, LidarConfig{}};
    const auto rf = corrupted.replay(f1);
    {
      SynPfConfig tcfg = cfg;
      tcfg.filter.n_threads = 8;
      SynPf f8{tcfg, map, LidarConfig{}};
      const auto rf8 = corrupted.replay(f8);
      ok = compare(rf, rf8, "faulted-threads=8") && ok;
    }
  }

  // 6. Recovery determinism: replay a kidnapped trace through the
  // supervised stack. Recovery actions (injection, global relocalization)
  // draw from their own substream schedule, so the repaired trajectory must
  // be bitwise stable across reruns and thread counts — and a policies-off
  // supervisor must not move a single bit of the bare filter's estimates.
  {
    SensorTrace ktrace;
    {
      ExperimentConfig kcfg;
      kcfg.laps = 1000000;  // run the clock out; the kidnap ends laps anyway
      kcfg.max_sim_time = max_sim_time;
      kcfg.profile.scale = 0.5;
      ExperimentConfig::KidnapSpec kidnap;
      kidnap.t = max_sim_time * 0.3;
      kidnap.advance_frac = 0.25;
      kcfg.kidnaps.push_back(kidnap);
      ExperimentRunner runner{track, kcfg};
      DeadReckoning driver;
      runner.run(driver, &ktrace);
    }

    auto supervised_replay = [&](int threads) {
      SynPfConfig tcfg = cfg;
      tcfg.filter.n_threads = threads;
      SynPf pf{tcfg, map, LidarConfig{}};
      recovery::SupervisedLocalizer sup{pf, {}, map, LidarConfig{}};
      sup.bind_filter(&pf.filter());
      return ktrace.replay(sup);
    };
    const auto rk = supervised_replay(1);
    ok = compare(rk, supervised_replay(1), "recovery-rerun") && ok;
    ok = compare(rk, supervised_replay(8), "recovery-threads=8") && ok;

    SynPf bare{cfg, map, LidarConfig{}};
    const auto rbare = ktrace.replay(bare);
    {
      recovery::SupervisedLocalizerConfig off;
      off.policy = recovery::RecoveryPolicyConfig::none();
      SynPf inner{cfg, map, LidarConfig{}};
      recovery::SupervisedLocalizer sup{inner, off, map, LidarConfig{}};
      sup.bind_filter(&inner.filter());
      const auto roff = ktrace.replay(sup);
      ok = compare(rbare, roff, "recovery-off-noop") && ok;
    }

    // 7. Flight recorder: attaching the recorder + event journal to the
    // supervised kidnap replay must not move a single estimate bit (the
    // recorder observes, never steers), and the recorder's own per-tick
    // estimate hash must be thread-count invariant — the property the
    // postmortem bitwise-replay verdict rests on.
    {
      auto recorded_replay = [&](int threads,
                                 telemetry::FlightRecorder& recorder) {
        telemetry::Telemetry telemetry;
        SynPfConfig tcfg = cfg;
        tcfg.filter.n_threads = threads;
        SynPf pf{tcfg, map, LidarConfig{}};
        recovery::SupervisedLocalizer sup{pf, {}, map, LidarConfig{}};
        sup.bind_filter(&pf.filter());
        telemetry::Sink sink = telemetry.sink();
        sink.recorder = &recorder;
        return ktrace.replay(sup, sink);
      };
      telemetry::FlightRecorder rec1{telemetry::FlightRecorderConfig{}};
      const auto rr = recorded_replay(1, rec1);
      ok = compare(rk, rr, "recorder-noop") && ok;
      telemetry::FlightRecorder rec8{telemetry::FlightRecorderConfig{}};
      (void)recorded_replay(8, rec8);
      if (rec1.estimate_hash() != rec8.estimate_hash() ||
          rec1.ticks() != rec8.ticks()) {
        std::fprintf(stderr,
                     "[recorder-threads] estimate hash diverges across "
                     "thread counts: %016llx (%llu ticks) vs %016llx "
                     "(%llu ticks)\n",
                     static_cast<unsigned long long>(rec1.estimate_hash()),
                     static_cast<unsigned long long>(rec1.ticks()),
                     static_cast<unsigned long long>(rec8.estimate_hash()),
                     static_cast<unsigned long long>(rec8.ticks()));
        ok = false;
      } else {
        std::printf(
            "[recorder-threads] OK — estimate hash %016llx stable over "
            "%llu ticks at 1 and 8 lanes\n",
            static_cast<unsigned long long>(rec1.estimate_hash()),
            static_cast<unsigned long long>(rec1.ticks()));
      }
    }
  }

  // 8. Frontier sampler + search determinism. First the sampler: a scenario
  // must be a pure function of (seed, index) — rebuild it out of order, from
  // a fresh sampler, and after unrelated draws, and demand identical bits on
  // everything the replay key promises to reconstruct.
  {
    frontier::ScenarioSampler sampler{0xF407};
    bool sampler_ok = true;
    const std::uint32_t indices[] = {
        frontier::ScenarioKey{512, 0, 0, 0}.pack(),
        frontier::ScenarioKey{1024, 3, 1, 2}.pack(),
        frontier::ScenarioKey{1, 7, 2, 5}.pack(),
    };
    // Forward pass, then reversed on a fresh sampler.
    frontier::SampledScenario forward[3];
    for (int i = 0; i < 3; ++i) forward[i] = sampler.sample(indices[i]);
    frontier::ScenarioSampler fresh{0xF407};
    for (int i = 2; i >= 0; --i) {
      const frontier::SampledScenario again = fresh.sample(indices[i]);
      sampler_ok =
          sampler_ok && again.severity == forward[i].severity &&
          std::memcmp(&again.profile, &forward[i].profile,
                      sizeof(again.profile)) == 0 &&
          again.length_scale == forward[i].length_scale &&
          again.spec.half_width == forward[i].spec.half_width &&
          again.waypoint_radius == forward[i].waypoint_radius &&
          again.waypoint_jitter == forward[i].waypoint_jitter &&
          again.n_waypoints == forward[i].n_waypoints &&
          frontier::ScenarioSampler::replay_recipe(0xF407, indices[i]) ==
              frontier::ScenarioSampler::replay_recipe(0xF407, indices[i]);
    }
    if (!sampler_ok) {
      std::fprintf(stderr, "[frontier-sampler] scenario bits depend on call "
                           "order or sampler instance\n");
      ok = false;
    } else {
      std::printf("[frontier-sampler] OK — scenarios are pure functions of "
                  "(seed, index)\n");
    }

    // Then the search driver: a synthetic pure-function oracle keeps this
    // cheap under sanitizers while still exercising the combo fan-out and
    // per-index result writes. The serialized artifact must be
    // byte-identical at 1 and 8 search lanes.
    auto oracle = [](const std::string& localizer,
                     const frontier::SampledScenario& scenario) {
      frontier::FrontierEvaluation eval;
      const double threshold =
          (localizer == "SynPF" ? 0.63 : 0.27) + 0.05 * scenario.key.axis;
      eval.failed = scenario.severity >= threshold;
      eval.lateral_mean_cm = 3.0 + 40.0 * scenario.severity;
      eval.final_pose_error_m = eval.failed ? 2.5 : 0.1;
      eval.divergence_episodes = eval.failed ? 1 : 0;
      eval.recoveries = 0;
      return eval;
    };
    frontier::FrontierSearchConfig fcfg;
    fcfg.axes = {0, 1, 2, 3};
    fcfg.track_classes = {0, 1};
    fcfg.bisect_iterations = 6;
    auto artifact_at = [&](int threads) {
      frontier::FrontierSearchConfig c = fcfg;
      c.search_threads = threads;
      frontier::FrontierDocument doc;
      doc.result = run_frontier_search(c, oracle);
      frontier::FrontierHeadline headline;
      if (frontier::compute_frontier_headline(doc.result, "odom_slip_ramp",
                                              "club", headline)) {
        doc.headline = headline;
      }
      return frontier_to_json(doc).dump();
    };
    const std::string one = artifact_at(1);
    const std::string eight = artifact_at(8);
    if (one != eight) {
      std::fprintf(stderr, "[frontier-threads] artifact bytes differ between "
                           "1 and 8 search lanes (%zu vs %zu bytes)\n",
                   one.size(), eight.size());
      ok = false;
    } else {
      std::printf("[frontier-threads] OK — %zu-byte artifact identical at 1 "
                  "and 8 search lanes\n",
                  one.size());
    }
  }

  // 9. SIMD dispatch determinism: force each backend explicitly (the
  // ambient references ran under whatever SRL_SIMD / the CPU resolved to)
  // and demand the reference bits back: the recorded lap itself (the
  // truth cast's batch kernel), SynPF on the LUT and on CDDT at 1 and 8
  // worker lanes, and CartoLite. The scalar half always runs; the vector
  // half skips *loudly* on hosts without AVX2 so a fleet of scalar-only
  // runners can't fake coverage.
  {
    const std::uint64_t want = trace_hash(trace);
    auto record_forced = [&](simd::Backend backend) {
      simd::force(backend);
      const SensorTrace lap = record_lap();
      simd::reset();
      const std::uint64_t got = trace_hash(lap);
      if (got != want) {
        std::fprintf(stderr,
                     "[simd-%s-record] recorded trace hash diverges: "
                     "%016llx vs %016llx\n",
                     simd::name(backend), static_cast<unsigned long long>(got),
                     static_cast<unsigned long long>(want));
        return false;
      }
      std::printf("[simd-%s-record] OK — recorded trace hash %016llx\n",
                  simd::name(backend), static_cast<unsigned long long>(got));
      return true;
    };
    SynPfConfig cddt_cfg = cfg;
    cddt_cfg.range = RangeMethodKind::kCddt;
    auto replay_forced = [&](const SynPfConfig& base, simd::Backend backend,
                             int threads) {
      simd::force(backend);
      SynPfConfig tcfg = base;
      tcfg.filter.n_threads = threads;
      SynPf pf{tcfg, map, LidarConfig{}};
      const auto r = trace.replay(pf);
      simd::reset();
      return r;
    };
    // CartoLite's correlative search dispatches through the same seam.
    auto carto_replay = [&] {
      CartoLocalizer carto{PureLocalizationOptions{}, map, LidarConfig{}};
      return trace.replay(carto);
    };
    auto carto_forced = [&](simd::Backend backend) {
      simd::force(backend);
      const auto r = carto_replay();
      simd::reset();
      return r;
    };
    // The references die before the forced runs: MapAssets keeps no table
    // without a user, so each forced SynPF builds its LUT or CDDT under the
    // forced backend instead of reusing the ambient one.
    const auto rcddt = [&] {
      SynPf cddt_ref{cddt_cfg, map, LidarConfig{}};
      return trace.replay(cddt_ref);
    }();
    const auto rcarto = carto_replay();
    auto check_backend = [&](simd::Backend backend) {
      const std::string tag = std::string{"simd-"} + simd::name(backend);
      bool same = record_forced(backend);
      same = compare(ra, replay_forced(cfg, backend, 1), tag.c_str()) && same;
      same = compare(ra, replay_forced(cfg, backend, 8),
                     (tag + "-threads=8").c_str()) &&
             same;
      same = compare(rcddt, replay_forced(cddt_cfg, backend, 1),
                     (tag + "-cddt").c_str()) &&
             same;
      same = compare(rcddt, replay_forced(cddt_cfg, backend, 8),
                     (tag + "-cddt-threads=8").c_str()) &&
             same;
      return compare(rcarto, carto_forced(backend),
                     (tag + "-cartolite").c_str()) &&
             same;
    };
    ok = check_backend(simd::Backend::kScalar) && ok;
    if (simd::cpu_has_avx2()) {
      ok = check_backend(simd::Backend::kAvx2) && ok;
    } else {
      std::printf(
          "[simd] SKIP — host CPU lacks AVX2; scalar-vs-vector cross-check "
          "not run (scalar halves above still verified)\n");
    }
  }

  // 10. Compute-governor determinism (PR-10). The governed stack draws its
  // resize schedule from the pinned kPfStreamGovernor substream keyed by
  // the governor's own update ordinal and accounts cost in virtual work
  // units — no clock, no thread count, no draw history enters a decision —
  // so a governed replay must be as replayable as the bare filter.
  {
    // The injector never touches a sensor byte: the compute-pressure trace
    // hashes identically to the clean trace at full severity.
    {
      fault::FaultPipeline pressure_only{0x7a017ULL, LidarConfig{}};
      pressure_only.add("compute_pressure", 1.0);
      if (trace_hash(corrupt_trace(pressure_only, trace)) !=
          trace_hash(trace)) {
        std::fprintf(stderr, "[governor-trace] compute_pressure corrupted "
                             "sensor bytes\n");
        ok = false;
      } else {
        std::printf("[governor-trace] OK — compute_pressure leaves the "
                    "sensor stream untouched\n");
      }
    }

    // A squeezed budget (about two thirds of the nominal workload) under
    // 0.8 pressure walks the full shedding ladder: stride, clamp, and
    // skip-resample all engage, so the replay exercises every knob.
    auto governed_replay = [&](int threads, double budget_ms, bool adaptive,
                               bool shed, double pressure_severity) {
      SynPfConfig tcfg = cfg;
      tcfg.filter.n_threads = threads;
      SynPf pf{tcfg, map, LidarConfig{}};
      fault::FaultPipeline pipeline{0x7a017ULL, LidarConfig{}};
      if (pressure_severity >= 0.0) {
        pipeline.add("compute_pressure", pressure_severity);
      }
      governor::GovernorConfig gcfg;
      gcfg.budget_ms = budget_ms;
      gcfg.adaptive = adaptive;
      gcfg.shed = shed;
      governor::GovernedLocalizer gov{pf, gcfg};
      gov.bind_filter(&pf.filter());
      gov.bind_pressure(&pipeline);
      return trace.replay(gov);
    };
    const auto rg = governed_replay(1, 0.5, true, true, 0.8);
    ok = compare(rg, governed_replay(1, 0.5, true, true, 0.8),
                 "governor-rerun") &&
         ok;
    ok = compare(rg, governed_replay(8, 0.5, true, true, 0.8),
                 "governor-threads=8") &&
         ok;

    // Budget off + adaptive off is the strict no-op contract: the wrapper
    // forwards untouched and the bare reference bits come back.
    ok = compare(ra, governed_replay(1, 0.0, false, false, 0.8),
                 "governor-off-noop") &&
         ok;

    // A severity-0 pressure stage must decide exactly like no stage at
    // all: the envelope evaluates to zero, so the ladder sees zero squeeze.
    ok = compare(governed_replay(1, 0.5, true, true, -1.0),
                 governed_replay(1, 0.5, true, true, 0.0),
                 "governor-severity0") &&
         ok;
  }

  const std::uint64_t violations = monitor.violations();
  if (violations != 0) {
    std::fprintf(stderr, "%llu contract violations during the run\n",
                 static_cast<unsigned long long>(violations));
    ok = false;
  } else if (contracts::enabled()) {
    std::printf("[contracts] OK — recording laps + all replays, "
                "zero violations\n");
  }

  if (!ok) return 1;
  std::printf("determinism check passed (rmse %.3f m)\n", ra.pose_rmse_m);
  return 0;
}
