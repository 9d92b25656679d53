#pragma once

/// \file stack.hpp
/// \brief The one place the localizer stack is composed. The scenario
/// matrix, the frontier search and black-box replay all build
///
///     Governed(Supervised(Faulted(SynPf | CartoLite)))
///
/// from a `PostmortemStackSpec` through `LocalizerStack::build`, and the
/// spec that built a run is the recipe its black boxes carry. Replay
/// therefore rebuilds the stack with the same code that raced it.

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "common/json.hpp"
#include "core/localizer.hpp"
#include "core/synpf.hpp"
#include "fault/faulted_localizer.hpp"
#include "fault/pipeline.hpp"
#include "governor/governor.hpp"
#include "gridmap/occupancy_grid.hpp"
#include "recovery/supervised_localizer.hpp"
#include "sensor/lidar.hpp"
#include "telemetry/events.hpp"
#include "telemetry/flight_recorder.hpp"

namespace srl {

/// Rebuild recipe for a localizer stack. The harnesses build from it and
/// serialize it into the flight recorder's provenance under `"stack"`;
/// `replay_blackbox` rebuilds from the recorded copy.
struct PostmortemStackSpec {
  /// Track recipe: "test_track", "hairpin", "oval:<straight>,<radius>"
  /// (default TrackSpec geometry in all cases), or a frontier replay key
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
bool stack_spec_from_json(const json::Value& v, PostmortemStackSpec& out);

/// The localizer kind grammar, parsed (see PostmortemStackSpec::localizer).
struct StackKind {
  std::string base;      ///< "SynPF" or "CartoLite"
  bool recovery{false};  ///< "+Recovery"
  std::string governor;  ///< "govern" ("+Governor"), "enforce" ("+Budget")
};

/// Parse a localizer kind; nullopt when the base names no localizer.
std::optional<StackKind> parse_stack_kind(const std::string& kind);

/// A built stack. Owns every layer and the fault pipeline; the layers hold
/// references into each other, so the stack is neither copied nor moved.
class LocalizerStack {
 public:
  /// Compose the stack `spec` describes over `map`. Returns nullptr and
  /// sets `error` when the spec names an unknown kind, range backend,
  /// fault or governor mode — a harness must never race a clean stack
  /// under a faulted label.
  static std::unique_ptr<LocalizerStack> build(
      const PostmortemStackSpec& spec,
      const std::shared_ptr<const OccupancyGrid>& map,
      const LidarConfig& lidar, std::string& error);

  LocalizerStack(const LocalizerStack&) = delete;
  LocalizerStack& operator=(const LocalizerStack&) = delete;

  /// Outermost layer: the localizer a harness races.
  Localizer& top() { return *top_; }
  const PostmortemStackSpec& spec() const { return spec_; }
  SynPf* synpf() const { return synpf_; }  ///< nullptr for CartoLite
  recovery::SupervisedLocalizer* supervisor() const {
    return supervised_.get();
  }
  governor::GovernedLocalizer* governor() const { return governed_.get(); }

  /// Flight recorder over this stack: dumps land in `dump_dir` named after
  /// `label`, provenance carries the recipe under "stack" followed by the
  /// members of `extra_provenance`, and a tick probe enriches every
  /// snapshot from the live layers. The probe only reads, so arming the
  /// recorder cannot change any estimate.
  std::unique_ptr<telemetry::FlightRecorder> make_recorder(
      const std::string& dump_dir, const std::string& label,
      telemetry::EventLog* events,
      const json::Value& extra_provenance = json::Value::object()) const;

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

}  // namespace srl
