#pragma once

/// \file scenario_sampler.hpp
/// \brief Deterministic scenario fuzzing: every fault scenario the frontier
/// search probes is a pure function of `(seed, index)` (DESIGN.md §14).
///
/// A scenario composes one of the nine fault injectors — the eight PR-4
/// sensor corrupters plus the PR-10 compute-pressure axis — (sampled
/// severity, phase, ramp and window) with a procedurally varied circuit
/// (corridor width, length scale, waypoint jitter — the `track/` generator
/// parameters). The 32-bit scenario *index* is bit-packed so the search can
/// steer each coordinate independently:
///
///     [ 0..10] severity step s in 0..1024  (severity = s / 1024, dyadic —
///              every probed severity is exact in binary floating point)
///     [11..14] fault axis id               (frontier_axes() order, pinned)
///     [15..16] track class id              (frontier_track_classes())
///     [17..30] variant ordinal             (independent shape redraws)
///
/// All stochastic shape draws come from `Rng::substream` with the pinned
/// stream keys below, keyed by the index *with the severity bits cleared*
/// (and, for track geometry, the axis bits too). Consequences, both
/// load-bearing for the bisector:
///
///  1. **Replayability.** Any scenario — including every frontier-defining
///     failure in a `srl.frontier/1` artifact — rebuilds bit-for-bit from
///     `(seed, index)` alone; no draw history, thread count or wall clock
///     enters the derivation.
///  2. **Severity-coherence.** Changing only the severity bits changes only
///     the fault intensity: the envelope phase/ramp and the circuit are
///     bitwise identical across the whole severity sweep of one
///     {axis × track-class × variant} combination, so bisection moves along
///     a single well-defined degradation axis.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "fault/injector.hpp"
#include "gridmap/track_generator.hpp"

namespace srl::frontier {

/// Substream key schedule of the scenario sampler (see Rng::substream).
/// Tags are pinned — append new kinds, never renumber (committed frontier
/// artifacts and black boxes replay through these keys).
inline constexpr std::uint64_t kFrontierStreamTrack = 1;    ///< circuit shape
inline constexpr std::uint64_t kFrontierStreamProfile = 2;  ///< fault envelope

/// Severity grid: step / kSeverityDenominator with step in [0, 1024]. The
/// denominator is a power of two so every probed severity (and every
/// bisection midpoint) is exactly representable — artifact bytes cannot
/// drift through decimal formatting.
inline constexpr int kSeverityDenominator = 1024;

/// Bit layout of the scenario index (documented above).
inline constexpr std::uint32_t kSeverityBits = 11;
inline constexpr std::uint32_t kAxisBits = 4;
inline constexpr std::uint32_t kTrackClassBits = 2;
inline constexpr std::uint32_t kAxisShift = kSeverityBits;
inline constexpr std::uint32_t kTrackClassShift = kSeverityBits + kAxisBits;
inline constexpr std::uint32_t kVariantShift =
    kTrackClassShift + kTrackClassBits;

/// The fault axes the frontier walks: the eight PR-4 injectors plus the
/// PR-10 `compute_pressure` axis (id 8, one of the spare 4-bit axis
/// values), in pinned order (axis ids index this vector and are baked
/// into replay keys — append-only, never reorder).
const std::vector<std::string>& frontier_axes();

/// Track classes: "club" (the Table-I rounded-rectangle circuit, jittered
/// length and corridor), "narrow" (same circuit, tightened corridor), and
/// "random" (waypoint-jittered random circuit). Ids index this vector.
const std::vector<std::string>& frontier_track_classes();

/// Unpacked scenario coordinates.
struct ScenarioKey {
  int sev_step{0};     ///< 0..kSeverityDenominator
  int axis{0};         ///< frontier_axes() id
  int track_class{0};  ///< frontier_track_classes() id
  int variant{0};      ///< shape redraw ordinal

  std::uint32_t pack() const;
  static ScenarioKey unpack(std::uint32_t index);
  /// Index with the severity bits cleared — the fault-envelope draw key.
  std::uint32_t profile_key() const;
  /// Index with severity *and* axis bits cleared — the circuit draw key
  /// (every axis of a {class, variant} cell races the same track).
  std::uint32_t track_key() const;
};

/// One fully resolved scenario. Everything below is a pure function of
/// `(seed, index)`; `profile` already folds the severity in.
struct SampledScenario {
  std::uint64_t seed{0};
  std::uint32_t index{0};
  ScenarioKey key{};
  std::string axis;            ///< injector factory name
  std::string track_class;     ///< frontier_track_classes() name
  double severity{0.0};        ///< key.sev_step / kSeverityDenominator
  fault::FaultProfile profile{};  ///< sampled envelope at this severity
  // -- resolved circuit parameters --
  TrackSpec spec{};            ///< corridor width sampled into half_width
  double length_scale{1.0};    ///< club/narrow: scales the circuit box
  int n_waypoints{0};          ///< random class only (0 = parametric box)
  double waypoint_radius{0.0};
  double waypoint_jitter{0.0};

  std::string label() const;  ///< "odom_slip_ramp/club#0@0.5"
};

/// The sampler: stateless, copyable, safe to share across threads — both
/// entry points are pure functions of (seed, index).
class ScenarioSampler {
 public:
  explicit ScenarioSampler(std::uint64_t seed) : seed_{seed} {}

  std::uint64_t seed() const { return seed_; }

  /// Resolve the scenario at `index`. Severity bits beyond
  /// kSeverityDenominator and ids beyond the pinned vocabularies are
  /// clamped into range (the packed layout cannot express an invalid
  /// scenario, so every index replays *something* deterministic).
  SampledScenario sample(std::uint32_t index) const;

  /// Rasterize the scenario's circuit — same bytes as every other call
  /// with the same (seed, track_key).
  Track build_track(const SampledScenario& scenario) const;

  /// "frontier:<seed hex>:<index>" — the track/stack recipe stamped into
  /// black boxes so `tools/postmortem --replay` can rebuild the sampled
  /// circuit and fault envelope (eval/stack.hpp, eval/postmortem.hpp).
  static std::string replay_recipe(std::uint64_t seed, std::uint32_t index);
  /// Parse a recipe back; false when `recipe` is not frontier-shaped.
  static bool parse_replay_recipe(const std::string& recipe,
                                  std::uint64_t& seed, std::uint32_t& index);
  /// The scenario a recipe names; nullopt when it is not frontier-shaped.
  static std::optional<SampledScenario> sample_recipe(
      const std::string& recipe);

 private:
  std::uint64_t seed_;
};

}  // namespace srl::frontier
