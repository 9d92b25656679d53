#pragma once

/// \file stack.hpp
/// \brief The one place the localizer stack is composed and raced. Every
/// closed-loop harness (the scenario matrix, the frontier search, Table I
/// and the sweep benches) races a `CellRecipe` through `run_cell`, which
/// builds
///
///     Governed(Supervised(Faulted(SynPf | CartoLite)))
///
/// from the recipe's `PostmortemStackSpec` through `LocalizerStack::build`;
/// that spec is the recipe the run's black boxes carry, and black-box
/// replay rebuilds the stack with the same builder.

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "core/localizer.hpp"
#include "core/synpf.hpp"
#include "eval/experiment.hpp"
#include "fault/faulted_localizer.hpp"
#include "fault/pipeline.hpp"
#include "governor/governor.hpp"
#include "gridmap/occupancy_grid.hpp"
#include "recovery/supervised_localizer.hpp"
#include "sensor/lidar.hpp"
#include "telemetry/telemetry.hpp"

namespace srl {

/// Rebuild recipe for a localizer stack. The harnesses build from it and
/// serialize it into the flight recorder's provenance under `"stack"`;
/// `replay_blackbox` rebuilds from the recorded copy.
struct PostmortemStackSpec {
  /// Track recipe: "test_track", "hairpin", "oval:<straight>,<radius>"
  /// (each in (0, kMaxOvalRecipeM]; default TrackSpec geometry in all
  /// cases), or a frontier replay key
  /// "frontier:<seed>:<index>" — the sampled circuit AND the sampled fault
  /// envelope both rebuild from it (eval/frontier/scenario_sampler.hpp),
  /// overriding the canonical `fault`/`severity` pipeline below.
  std::string track{"test_track"};
  /// Localizer kind: "<base>[+Recovery][+Governor|+Budget]".
  ///  - base "SynPF" (particle filter over `range`, `beams`, `pf_seed`,
  ///    `n_particles`, `threads`) or "CartoLite" (Cartographer-style pure
  ///    localization, default options);
  ///  - "+Recovery" wraps the faulted localizer in a SupervisedLocalizer
  ///    (default detector/policy stack, supervision outside the faults);
  ///  - "+Governor" (shedding governor) or "+Budget" (budget enforcer,
  ///    fixed workload) is outermost and named last. It must agree with
  ///    `governor` below, which also governs a suffix-free kind (the
  ///    frontier's compute_pressure probes).
  std::string localizer{"SynPF"};
  int n_particles{1200};
  int threads{1};
  /// Range backend: "bresenham", "ray_marching", "cddt", or "lut".
  std::string range{"cddt"};
  int beams{60};
  std::uint64_t pf_seed{42};
  /// Fault scenario ("none"/"kidnap" add no pipeline stage — a kidnap
  /// corrupts the truth, not the sensors, and is already baked into the
  /// captured stream).
  std::string fault{"none"};
  double severity{0.0};
  std::uint64_t fault_seed{0x7a017ULL};
  /// Compute-governor wrapper (src/governor): "" none, "govern" shedding
  /// mode, "enforce" budget-enforcer mode. Absent in pre-governor black
  /// boxes — both fields default to the ungoverned stack, so old artifacts
  /// parse and replay unchanged.
  std::string governor{};
  double budget_ms{0.0};
};

json::Value stack_spec_to_json(const PostmortemStackSpec& spec);
/// Parse a recipe written by `stack_spec_to_json`; absent members keep their
/// defaults. False, with `out` untouched and `*error` (when given) naming
/// the field, when the localizer is missing or a count or seed is not a
/// whole number its field can hold.
bool stack_spec_from_json(const json::Value& v, PostmortemStackSpec& out,
                          std::string* error = nullptr);

/// The localizer kind grammar, parsed (see PostmortemStackSpec::localizer).
struct StackKind {
  std::string base;      ///< "SynPF" or "CartoLite"
  bool recovery{false};  ///< "+Recovery"
  std::string governor;  ///< "govern" ("+Governor"), "enforce" ("+Budget")
};

/// Parse a localizer kind; nullopt when the base names no localizer.
std::optional<StackKind> parse_stack_kind(const std::string& kind);

/// Largest cloud `LocalizerStack::build` accepts: 25 times the largest
/// any harness races (4,000), and small enough that an edited recipe
/// cannot ask the allocator for gigabytes.
inline constexpr int kMaxStackParticles = 100000;

/// Largest straight or radius, m, an "oval:<straight>,<radius>" track
/// recipe may ask for: 5 times the largest oval any harness races
/// (`oval(10, 2.5)`), and small enough that an edited recipe can neither
/// ask the allocator for gigabytes nor overflow the generator's int cell
/// counts.
inline constexpr double kMaxOvalRecipeM = 50.0;

/// Where a stack's flight recorder dumps black boxes (`make_recorder`,
/// `run_cell`). An empty `dir` arms no recorder.
struct CellBoxes {
  std::string dir;
  std::string label;  ///< box name stem; a '/' in it makes a subdirectory
  /// Provenance members the boxes carry after the recipe's "stack".
  json::Value provenance = json::Value::object();
};

/// A built stack. Owns every layer and the fault pipeline; the layers hold
/// references into each other, so the stack is neither copied nor moved.
class LocalizerStack {
 public:
  /// Compose the stack `spec` describes over `map`. Returns nullptr and
  /// sets `error` when the spec names an unknown kind, range backend,
  /// fault or governor mode — a harness must never race a clean stack
  /// under a faulted label — or asks for fewer than one particle or beam,
  /// more than kMaxStackParticles particles, or more beams than `lidar`
  /// has.
  static std::unique_ptr<LocalizerStack> build(
      const PostmortemStackSpec& spec,
      const std::shared_ptr<const OccupancyGrid>& map,
      const LidarConfig& lidar, std::string& error);

  LocalizerStack(const LocalizerStack&) = delete;
  LocalizerStack& operator=(const LocalizerStack&) = delete;

  /// Outermost layer: the localizer a harness races.
  Localizer& top() { return *top_; }
  SynPf* synpf() const { return synpf_; }  ///< nullptr for CartoLite
  recovery::SupervisedLocalizer* supervisor() const {
    return supervised_.get();
  }
  governor::GovernedLocalizer* governor() const { return governed_.get(); }

  /// Flight recorder over this stack: dumps land in `boxes.dir` named after
  /// `boxes.label`, provenance carries the recipe under "stack" followed by
  /// the members of `boxes.provenance`, and a tick probe enriches every
  /// snapshot from the live layers. The probe only reads, so arming the
  /// recorder cannot change any estimate.
  std::unique_ptr<telemetry::FlightRecorder> make_recorder(
      const CellBoxes& boxes, telemetry::EventLog* events) const;

 private:
  LocalizerStack(const PostmortemStackSpec& spec, const LidarConfig& lidar);

  PostmortemStackSpec spec_;
  fault::FaultPipeline pipeline_;
  std::unique_ptr<Localizer> base_;
  SynPf* synpf_{nullptr};
  std::unique_ptr<fault::FaultedLocalizer> faulted_;
  std::unique_ptr<recovery::SupervisedLocalizer> supervised_;
  std::unique_ptr<governor::GovernedLocalizer> governed_;
  Localizer* top_{nullptr};
};

/// One closed-loop experiment: the stack to race and the race to run.
struct CellRecipe {
  PostmortemStackSpec stack;
  ExperimentConfig experiment;
};

/// What `run_cell` read out of one race. Each block reads from the observer
/// behind it and stays zero without one: the health, stage and recovery
/// block from the sink's registry, the event counts from its event log, the
/// governor block from a governed stack.
struct CellOutcome {
  ExperimentResult result{};
  // -- filter health (PR-1 telemetry), PF cells only --
  double ess_fraction_p50{0.0};
  double ess_fraction_min{0.0};
  std::uint64_t resamples{0};
  std::uint64_t pose_jump_alarms{0};
  // -- per-stage latency (PF cells; CartoLite reports its own stages) --
  double stage_p50_ms{0.0};  ///< dominant stage (raycast / local match) p50
  double stage_p99_ms{0.0};
  // -- recovery telemetry (the episode bookkeeping lives in `result`) --
  std::uint64_t reinjections{0};       ///< recovery.injections counter
  std::uint64_t global_relocs{0};      ///< recovery.global_relocs counter
  std::uint64_t recovery_transitions{0};  ///< detector state transitions
  // -- event journal (schema v3) --
  std::uint64_t events_total{0};
  std::uint64_t events_warn{0};
  std::uint64_t events_error{0};
  std::uint64_t events_critical{0};
  std::uint64_t events_dropped{0};
  /// Black-box artifacts the race dumped (paths as written, under
  /// `CellBoxes::dir`). Empty when the recorder is off or never triggered.
  std::vector<std::string> blackboxes{};
  // -- compute governor (schema v4; zero/false for ungoverned cells) --
  bool governed{false};        ///< cell ran under a GovernedLocalizer
  bool governor_shed{false};   ///< shedding mode (false = budget enforcer)
  double budget_ms{0.0};
  std::uint64_t governor_updates{0};
  std::uint64_t deadline_misses{0};
  std::uint64_t shed_beam_updates{0};
  std::uint64_t shed_particle_updates{0};
  std::uint64_t skipped_resamples{0};
  std::uint64_t governor_resizes{0};
  double governor_mean_particles{0.0};
  int governor_min_particles{0};
  double governor_mean_beams{0.0};
  double governor_cost_p50{0.0};  ///< virtual work units (deterministic)
  double governor_cost_p99{0.0};
  /// The builder's error; set only on a zeroed outcome, which never raced.
  std::string error{};
};

/// Build `recipe.stack` over `map`, race it on `track` with the observers
/// `sink` holds, and read it out. With `boxes.dir` set, a flight recorder
/// rides along and journals into the sink's event log, or into a log of its
/// own when the sink holds none. Observers never change an estimate, but
/// they cost time: a registry turns on the filter's health pass, an event
/// log a JSON object per resample.
CellOutcome run_cell(const CellRecipe& recipe, const Track& track,
                     const std::shared_ptr<const OccupancyGrid>& map,
                     telemetry::Sink sink = {}, const CellBoxes& boxes = {});

}  // namespace srl
