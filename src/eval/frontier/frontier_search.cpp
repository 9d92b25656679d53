#include "eval/frontier/frontier_search.hpp"

#include <algorithm>
#include <memory>
#include <utility>

#include "common/parallel.hpp"
#include "eval/stack.hpp"
#include "telemetry/telemetry.hpp"
#include "track/raceline.hpp"

namespace srl::frontier {

namespace {

/// One closed-loop probe: race `localizer_kind` through `scenario` on the
/// prebuilt track. When `blackboxes` is non-null (the defining-failure
/// re-run) the flight recorder rides along — a pure observer, so the
/// trajectory is bitwise the one the recorder-off probe saw.
FrontierEvaluation closed_loop_probe(
    const FrontierSearchConfig& config, const Track& track,
    const std::shared_ptr<const OccupancyGrid>& map,
    const std::string& localizer_kind, const SampledScenario& scenario,
    std::vector<std::string>* blackboxes) {
  FrontierEvaluation eval;
  eval.index = scenario.index;
  eval.severity = scenario.severity;

  // The frontier replay key *is* the track and fault recipe: the builder
  // (and `tools/postmortem --replay`) resamples the scenario from
  // (seed, index).
  PostmortemStackSpec spec;
  spec.track = ScenarioSampler::replay_recipe(scenario.seed, scenario.index);
  spec.localizer = localizer_kind;
  spec.n_particles = config.n_particles;
  spec.threads = config.cell_threads;
  spec.fault = scenario.axis;
  spec.severity = scenario.severity;
  spec.fault_seed = config.fault_seed;
  // The compute-pressure axis attacks a declared budget, not the sensor
  // stream: those probes race inside a budget-*enforcing* governor (no
  // shedding — the fixed workload either fits the squeezed budget or the
  // update drops), so severity maps onto dropped updates and, past the
  // frontier, divergence. Every other axis runs ungoverned.
  if (scenario.axis == "compute_pressure") {
    spec.governor = "enforce";
    spec.budget_ms = config.budget_ms;
  }
  std::string error;
  const std::unique_ptr<LocalizerStack> stack =
      LocalizerStack::build(spec, map, config.experiment.lidar, error);
  if (stack == nullptr) {
    eval.failed = true;  // unknown kind: permanently broken combination
    return eval;
  }

  telemetry::Telemetry telemetry;
  telemetry::Sink sink;
  std::unique_ptr<telemetry::FlightRecorder> recorder;
  if (blackboxes != nullptr && !config.blackbox_dir.empty()) {
    json::Value provenance = json::Value::object();
    provenance.set("scenario", json::Value::string(scenario.label()));
    recorder = stack->make_recorder(config.blackbox_dir,
                                    localizer_kind + "-" + scenario.label(),
                                    &telemetry.events, provenance);
    sink.recorder = recorder.get();
  }

  ExperimentRunner runner{track, config.experiment};
  const ExperimentResult result = runner.run(stack->top(), nullptr, sink);

  eval.crashed = result.crashed;
  eval.divergence_episodes = result.divergence_episodes;
  eval.recoveries = result.recoveries;
  eval.lateral_mean_cm = result.lateral_mean_cm;
  eval.final_pose_error_m = result.final_pose_error_m;
  eval.failed = result.crashed || !result.recovered;
  if (recorder != nullptr) *blackboxes = recorder->dump_paths();
  return eval;
}

struct Combo {
  std::string localizer;
  int axis{0};
  int track_class{0};
};

/// Shared bracket-then-bisect driver. `probe` scores one scenario and
/// `define_failure` (native path only) re-runs the frontier-defining
/// failure with the recorder attached.
FrontierResult run_search_impl(
    const FrontierSearchConfig& config,
    const std::function<FrontierEvaluation(const Combo&,
                                           const SampledScenario&)>& probe,
    const std::function<void(const Combo&, const SampledScenario&,
                             FrontierPoint&)>& define_failure) {
  FrontierResult result;
  result.seed = config.seed;
  result.fault_seed = config.fault_seed;
  result.bisect_iterations = config.bisect_iterations;
  result.n_particles = config.n_particles;
  result.variant = config.variant;

  std::vector<int> axes = config.axes;
  if (axes.empty()) {
    for (int a = 0; a < static_cast<int>(frontier_axes().size()); ++a) {
      axes.push_back(a);
    }
  }

  // Combo order is a pure function of the config: localizer-major, then
  // axis, then track class — the artifact's point order.
  std::vector<Combo> combos;
  for (const std::string& localizer : config.localizers) {
    for (const int axis : axes) {
      for (const int tc : config.track_classes) {
        combos.push_back(Combo{localizer, axis, tc});
      }
    }
  }
  result.points.resize(combos.size());

  const ScenarioSampler sampler{config.seed};
  ThreadPool pool{config.search_threads};
  pool.parallel_for(combos.size(), [&](int /*lane*/, std::size_t begin,
                                       std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      const Combo& combo = combos[i];
      FrontierPoint& point = result.points[i];
      point.localizer = combo.localizer;
      point.axis = frontier_axes()[static_cast<std::size_t>(combo.axis)];
      point.track_class =
          frontier_track_classes()[static_cast<std::size_t>(combo.track_class)];
      point.variant = config.variant;

      const auto scenario_at = [&](int sev_step) {
        ScenarioKey key;
        key.sev_step = sev_step;
        key.axis = combo.axis;
        key.track_class = combo.track_class;
        key.variant = config.variant;
        return sampler.sample(key.pack());
      };
      const auto probe_at = [&](int sev_step) {
        const SampledScenario scenario = scenario_at(sev_step);
        point.evaluations.push_back(probe(combo, scenario));
        return point.evaluations.back().failed;
      };

      // Bracket: the full-severity probe decides censoring, the clean
      // probe decides degeneracy; only a [pass, fail] bracket is bisected.
      int lo = 0;
      int hi = kSeverityDenominator;
      if (!probe_at(hi)) {
        point.censored = true;
        point.bracket_lo = 1.0;
        point.bracket_hi = 1.0;
      } else if (probe_at(lo)) {
        point.degenerate = true;
        hi = lo;
      } else {
        for (int it = 0; it < config.bisect_iterations && hi - lo > 1; ++it) {
          const int mid = lo + (hi - lo) / 2;  // deterministic floor midpoint
          if (probe_at(mid)) {
            hi = mid;
          } else {
            lo = mid;
          }
        }
      }
      if (!point.censored) {
        point.bracket_lo =
            static_cast<double>(lo) / kSeverityDenominator;
        point.bracket_hi =
            static_cast<double>(hi) / kSeverityDenominator;
        point.breaking_severity = point.bracket_hi;
        const SampledScenario defining = scenario_at(hi);
        point.breaking_index = defining.index;
        if (define_failure) define_failure(combo, defining, point);
      }
    }
  });
  return result;
}

}  // namespace

std::string FrontierPoint::cell() const {
  return localizer + "/" + axis + "/" + track_class + "#" +
         std::to_string(variant);
}

FrontierSearchConfig FrontierSearchConfig::smoke() {
  FrontierSearchConfig config;
  config.localizers = {"SynPF", "CartoLite"};
  config.axes = {0, 3, 8};  // odom_slip_ramp, lidar_dropout, compute_pressure
  config.track_classes = {0};
  config.bisect_iterations = 3;  // bracket width 1/8 severity
  config.n_particles = 600;
  config.experiment.laps = 1;
  config.experiment.max_sim_time = 45.0;
  return config;
}

FrontierResult run_frontier_search(const FrontierSearchConfig& config) {
  // Prebuild one track (+ map + metadata) per requested class — the track
  // key excludes severity and axis bits, so every combo of a class races
  // the same circuit.
  const ScenarioSampler sampler{config.seed};
  struct ClassContext {
    Track track;
    std::shared_ptr<const OccupancyGrid> map;
    double length_m{0.0};
    double max_abs_curvature{0.0};
  };
  std::vector<int> class_slot(frontier_track_classes().size(), -1);
  std::vector<ClassContext> contexts;
  for (const int tc : config.track_classes) {
    if (class_slot[static_cast<std::size_t>(tc)] >= 0) continue;
    ScenarioKey key;
    key.track_class = tc;
    key.variant = config.variant;
    ClassContext ctx;
    ctx.track = sampler.build_track(sampler.sample(key.pack()));
    ctx.map = std::make_shared<const OccupancyGrid>(ctx.track.grid);
    const Raceline raceline{ctx.track.centerline};
    ctx.length_m = raceline.length();
    ctx.max_abs_curvature = raceline.max_abs_curvature();
    class_slot[static_cast<std::size_t>(tc)] =
        static_cast<int>(contexts.size());
    contexts.push_back(std::move(ctx));
  }

  const auto context_of = [&](const Combo& combo) -> const ClassContext& {
    return contexts[static_cast<std::size_t>(
        class_slot[static_cast<std::size_t>(combo.track_class)])];
  };
  FrontierResult result = run_search_impl(
      config,
      [&](const Combo& combo, const SampledScenario& scenario) {
        const ClassContext& ctx = context_of(combo);
        return closed_loop_probe(config, ctx.track, ctx.map, combo.localizer,
                                 scenario, nullptr);
      },
      [&](const Combo& combo, const SampledScenario& defining,
          FrontierPoint& point) {
        if (config.blackbox_dir.empty()) return;
        const ClassContext& ctx = context_of(combo);
        closed_loop_probe(config, ctx.track, ctx.map, combo.localizer,
                          defining, &point.blackboxes);
        // Store paths relative to the dump root: the artifact must be
        // byte-identical no matter where the black boxes land on disk.
        const std::string prefix = config.blackbox_dir + "/";
        for (std::string& path : point.blackboxes) {
          if (path.rfind(prefix, 0) == 0) path.erase(0, prefix.size());
        }
      });

  for (FrontierPoint& point : result.points) {
    const std::size_t tc = static_cast<std::size_t>(std::distance(
        frontier_track_classes().begin(),
        std::find(frontier_track_classes().begin(),
                  frontier_track_classes().end(), point.track_class)));
    const ClassContext& ctx =
        contexts[static_cast<std::size_t>(class_slot[tc])];
    point.track_length_m = ctx.length_m;
    point.track_max_abs_curvature = ctx.max_abs_curvature;
  }
  return result;
}

FrontierResult run_frontier_search(const FrontierSearchConfig& config,
                                   const ScenarioEvaluator& evaluate) {
  return run_search_impl(
      config,
      [&](const Combo& combo, const SampledScenario& scenario) {
        FrontierEvaluation eval = evaluate(combo.localizer, scenario);
        eval.index = scenario.index;
        eval.severity = scenario.severity;
        return eval;
      },
      {});
}

bool compute_frontier_headline(const FrontierResult& result,
                               const std::string& axis,
                               const std::string& track_class,
                               FrontierHeadline& out) {
  out = FrontierHeadline{};
  out.axis = axis;
  out.track_class = track_class;
  bool have_synpf = false;
  bool have_carto = false;
  for (const FrontierPoint& point : result.points) {
    if (point.axis != axis || point.track_class != track_class) continue;
    const double width =
        point.censored ? 0.0 : point.bracket_hi - point.bracket_lo;
    if (point.localizer == "SynPF") {
      out.synpf_breaking = point.breaking_severity;
      out.synpf_bracket_width = width;
      out.synpf_censored = point.censored;
      have_synpf = true;
    } else if (point.localizer == "CartoLite") {
      out.carto_breaking = point.breaking_severity;
      out.carto_bracket_width = width;
      out.carto_censored = point.censored;
      have_carto = true;
    }
  }
  return have_synpf && have_carto;
}

}  // namespace srl::frontier
