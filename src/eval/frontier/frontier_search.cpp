#include "eval/frontier/frontier_search.hpp"

#include <algorithm>
#include <condition_variable>
#include <exception>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <utility>

#include "common/parallel.hpp"
#include "eval/stack.hpp"
#include "track/raceline.hpp"

namespace srl::frontier {

namespace {

/// One closed-loop probe: race `localizer_kind` through `scenario` on the
/// prebuilt track. Handed a box list (the defining-failure re-run), it arms
/// the flight recorder and the event journal its boxes carry — pure
/// observers, so the trajectory is bitwise the one the recorder-off probe
/// saw — and fills the list with the dumped boxes.
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
  CellBoxes boxes{blackboxes != nullptr ? config.blackbox_dir : "",
                  localizer_kind + "-" + scenario.label()};
  boxes.provenance.set("scenario", json::Value::string(scenario.label()));
  CellOutcome cell =
      run_cell({spec, config.experiment}, track, map, {}, boxes);

  const ExperimentResult& result = cell.result;
  eval.crashed = result.crashed;
  eval.divergence_episodes = result.divergence_episodes;
  eval.recoveries = result.recoveries;
  eval.lateral_mean_cm = result.lateral_mean_cm;
  eval.final_pose_error_m = result.final_pose_error_m;
  // A stack the builder rejects (unknown kind) fails every probe: a
  // permanently broken combination.
  eval.failed = !cell.error.empty() || result.crashed || !result.recovered;
  // Store paths relative to the dump root: the artifact must be
  // byte-identical no matter where the black boxes land on disk.
  const std::string prefix = config.blackbox_dir + "/";
  for (std::string& path : cell.blackboxes) {
    if (path.rfind(prefix, 0) == 0) path.erase(0, prefix.size());
  }
  if (blackboxes != nullptr) *blackboxes = std::move(cell.blackboxes);
  return eval;
}

struct Combo {
  std::string localizer;
  int axis{0};
  int track_class{0};
};

/// One combination's bracket-then-bisect walk as a state machine that
/// advances one probe at a time: the 1.0 bracket, the 0.0 bracket, up to B
/// bisections, then the defining-failure re-run when the search records
/// black boxes. Each step's severity is a pure function of the verdicts
/// before it.
struct ComboWalk {
  enum class Stage { kBracketHi, kBracketLo, kBisect, kDefine };
  Stage stage{Stage::kBracketHi};
  int lo{0};
  int hi{kSeverityDenominator};
  int bisections{0};

  int sev_step() const {
    switch (stage) {
      case Stage::kBracketHi:
        return kSeverityDenominator;
      case Stage::kBracketLo:
        return 0;
      case Stage::kBisect:
        return lo + (hi - lo) / 2;  // deterministic floor midpoint
      case Stage::kDefine:
        break;
    }
    return hi;  // the frontier-defining failure
  }
};

void require_in_range(const char* field, int value, int end) {
  if (value >= 0 && value < end) return;
  throw std::invalid_argument("FrontierSearchConfig::" + std::string{field} +
                              ": " + std::to_string(value) +
                              " is outside [0, " + std::to_string(end) + ")");
}

/// Every id the search indexes with or packs into a scenario key must be in
/// range: an axis or class id past its table would index out of bounds, and
/// a variant past its 14 key bits would alias another variant's scenarios.
void validate(const FrontierSearchConfig& config) {
  for (const int axis : config.axes) {
    require_in_range("axes", axis, static_cast<int>(frontier_axes().size()));
  }
  for (const int tc : config.track_classes) {
    require_in_range("track_classes", tc,
                     static_cast<int>(frontier_track_classes().size()));
  }
  require_in_range("variant", config.variant, 1 << kVariantBits);
}

using Probe = std::function<FrontierEvaluation(
    const Combo&, const SampledScenario&, std::vector<std::string>* boxes)>;

/// Shared bracket-then-bisect driver. `probe` scores one scenario; when
/// `config.blackbox_dir` is set, it is then handed the point's box list to
/// re-run the frontier-defining failure under the flight recorder.
FrontierResult run_search_impl(const FrontierSearchConfig& config,
                               const Probe& probe) {
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
  for (std::size_t i = 0; i < combos.size(); ++i) {
    FrontierPoint& point = result.points[i];
    point.localizer = combos[i].localizer;
    point.axis = frontier_axes()[static_cast<std::size_t>(combos[i].axis)];
    point.track_class = frontier_track_classes()[static_cast<std::size_t>(
        combos[i].track_class)];
    point.variant = config.variant;
  }

  const ScenarioSampler sampler{config.seed};
  const auto scenario_at = [&](const Combo& combo, int sev_step) {
    ScenarioKey key;
    key.sev_step = sev_step;
    key.axis = combo.axis;
    key.track_class = combo.track_class;
    key.variant = config.variant;
    return sampler.sample(key.pack());
  };

  // Runs combination i's next step on the calling lane and reports whether
  // the walk is finished. Only the lane holding i touches walks[i] and
  // points[i], so each point records its probes in its own order.
  std::vector<ComboWalk> walks(combos.size());
  const auto run_step = [&](std::size_t i) {
    using Stage = ComboWalk::Stage;
    const Combo& combo = combos[i];
    ComboWalk& walk = walks[i];
    FrontierPoint& point = result.points[i];
    const int sev_step = walk.sev_step();
    const SampledScenario scenario = scenario_at(combo, sev_step);
    if (walk.stage == Stage::kDefine) {
      probe(combo, scenario, &point.blackboxes);
      return true;
    }
    point.evaluations.push_back(probe(combo, scenario, nullptr));
    const bool failed = point.evaluations.back().failed;

    // Bracket: the full-severity probe decides censoring, the clean probe
    // decides degeneracy; only a [pass, fail] bracket is bisected.
    if (walk.stage == Stage::kBracketHi) {
      if (failed) {
        walk.stage = Stage::kBracketLo;
        return false;
      }
      point.censored = true;
      point.bracket_lo = 1.0;
      point.bracket_hi = 1.0;
      return true;
    }
    if (walk.stage == Stage::kBracketLo) {
      point.degenerate = failed;
      if (failed) walk.hi = walk.lo;
      walk.stage = Stage::kBisect;
    } else {
      (failed ? walk.hi : walk.lo) = sev_step;
      ++walk.bisections;
    }
    if (!point.degenerate && walk.bisections < config.bisect_iterations &&
        walk.hi - walk.lo > 1) {
      return false;
    }
    point.bracket_lo = static_cast<double>(walk.lo) / kSeverityDenominator;
    point.bracket_hi = static_cast<double>(walk.hi) / kSeverityDenominator;
    point.breaking_severity = point.bracket_hi;
    point.breaking_index = scenario_at(combo, walk.hi).index;
    walk.stage = Stage::kDefine;
    return config.blackbox_dir.empty();
  };

  // A censored point costs one probe, a bisected one up to 2 + B plus its
  // defining failure, so lanes claim probes, not combinations. A lane takes
  // the next step of the ready combination with the fewest probes so far
  // (ties to the lower index), runs it outside the lock, then puts the
  // combination back. The put-back and the lane's next take share one lock
  // hold, so the ready set never grows once the search starts: a lane that
  // finds it empty waits only for the end or for an error.
  std::mutex mutex;
  std::condition_variable wake;
  std::set<std::pair<std::size_t, std::size_t>> ready;  // (probes, combo)
  std::size_t unfinished = combos.size();
  std::exception_ptr error;
  for (std::size_t i = 0; i < combos.size(); ++i) ready.emplace(0, i);

  const auto run_lane = [&] {
    std::unique_lock lock{mutex};
    for (;;) {
      wake.wait(lock, [&] {
        return error != nullptr || unfinished == 0 || !ready.empty();
      });
      if (error != nullptr || ready.empty()) return;
      const std::size_t i = ready.begin()->second;
      ready.erase(ready.begin());
      lock.unlock();
      const bool done = run_step(i);
      lock.lock();
      if (!done) {
        ready.emplace(result.points[i].evaluations.size(), i);
      } else if (--unfinished == 0) {
        wake.notify_all();
      }
    }
  };
  // Every lane catches what its steps throw, so nothing escapes a worker;
  // the first error stops the hand-out and reaches the caller once every
  // lane has returned.
  ThreadPool pool{config.search_threads};
  pool.parallel_for(
      std::min(combos.size(), static_cast<std::size_t>(pool.threads())),
      [&](int /*lane*/, std::size_t, std::size_t) {
        try {
          run_lane();
        } catch (...) {
          const std::lock_guard lock{mutex};
          if (error == nullptr) error = std::current_exception();
          wake.notify_all();
        }
      });
  if (error != nullptr) std::rethrow_exception(error);
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
  validate(config);
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

  FrontierResult result = run_search_impl(
      config, [&](const Combo& combo, const SampledScenario& scenario,
                  std::vector<std::string>* boxes) {
        const ClassContext& ctx = contexts[static_cast<std::size_t>(
            class_slot[static_cast<std::size_t>(combo.track_class)])];
        return closed_loop_probe(config, ctx.track, ctx.map, combo.localizer,
                                 scenario, boxes);
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
  validate(config);
  FrontierSearchConfig unrecorded = config;  // no defining-failure re-runs
  unrecorded.blackbox_dir.clear();
  return run_search_impl(
      unrecorded, [&](const Combo& combo, const SampledScenario& scenario,
                      std::vector<std::string>* /*boxes*/) {
        FrontierEvaluation eval = evaluate(combo.localizer, scenario);
        eval.index = scenario.index;
        eval.severity = scenario.severity;
        return eval;
      });
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
