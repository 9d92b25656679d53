#include "eval/frontier/scenario_sampler.hpp"

#include <algorithm>
#include <cstdio>

#include "common/json.hpp"

namespace srl::frontier {

namespace {

constexpr std::uint32_t mask(std::uint32_t bits) {
  return (1u << bits) - 1u;
}

/// Pinned circuit-parameter draw schedule: four uniforms, in this order,
/// from the track substream. `build_track` replays the same draws before
/// handing the (advanced) generator to the waypoint sampler, so the sampled
/// parameters and the waypoint jitter always come from one coherent stream.
void draw_track_params(Rng& rng, SampledScenario& scenario) {
  const double a = rng.uniform();
  const double b = rng.uniform();
  const double c = rng.uniform();
  const double d = rng.uniform();
  scenario.spec = TrackSpec{};
  scenario.length_scale = 0.9 + 0.25 * a;
  scenario.n_waypoints = 0;
  if (scenario.track_class == "narrow") {
    // Tightened corridor: same club geometry, less room for error.
    scenario.spec.half_width = 0.78 + 0.18 * b;
  } else if (scenario.track_class == "random") {
    scenario.waypoint_radius = 5.5 + 1.5 * a;
    scenario.waypoint_jitter = 0.6 + 0.8 * b;
    scenario.n_waypoints = 8 + static_cast<int>(c * 4.999);
    scenario.spec.half_width = 0.95 + 0.2 * d;
  } else {  // "club"
    scenario.spec.half_width = 1.0 + 0.2 * b;
  }
}

}  // namespace

const std::vector<std::string>& frontier_axes() {
  static const std::vector<std::string> kAxes{
      "odom_slip_ramp", "odom_scale",      "odom_yaw_bias",
      "lidar_dropout",  "lidar_noise",     "scan_decimation",
      "latency_jitter", "blackout",        "compute_pressure",
  };
  return kAxes;
}

const std::vector<std::string>& frontier_track_classes() {
  static const std::vector<std::string> kClasses{"club", "narrow", "random"};
  return kClasses;
}

std::uint32_t ScenarioKey::pack() const {
  return (static_cast<std::uint32_t>(sev_step) & mask(kSeverityBits)) |
         ((static_cast<std::uint32_t>(axis) & mask(kAxisBits)) << kAxisShift) |
         ((static_cast<std::uint32_t>(track_class) & mask(kTrackClassBits))
          << kTrackClassShift) |
         (static_cast<std::uint32_t>(variant) << kVariantShift);
}

ScenarioKey ScenarioKey::unpack(std::uint32_t index) {
  ScenarioKey key;
  key.sev_step = static_cast<int>(index & mask(kSeverityBits));
  key.axis = static_cast<int>((index >> kAxisShift) & mask(kAxisBits));
  key.track_class =
      static_cast<int>((index >> kTrackClassShift) & mask(kTrackClassBits));
  key.variant = static_cast<int>(index >> kVariantShift);
  return key;
}

std::uint32_t ScenarioKey::profile_key() const {
  return pack() & ~mask(kSeverityBits);
}

std::uint32_t ScenarioKey::track_key() const {
  return pack() & ~((mask(kAxisBits) << kAxisShift) | mask(kSeverityBits));
}

std::string SampledScenario::label() const {
  return axis + "/" + track_class + "#" + std::to_string(key.variant) + "@" +
         json::format_number(severity);
}

SampledScenario ScenarioSampler::sample(std::uint32_t index) const {
  SampledScenario scenario;
  scenario.seed = seed_;
  scenario.index = index;
  scenario.key = ScenarioKey::unpack(index);
  scenario.key.sev_step = std::min(scenario.key.sev_step, kSeverityDenominator);
  const auto& axes = frontier_axes();
  const auto& classes = frontier_track_classes();
  scenario.key.axis =
      std::min<int>(scenario.key.axis, static_cast<int>(axes.size()) - 1);
  scenario.key.track_class = std::min<int>(
      scenario.key.track_class, static_cast<int>(classes.size()) - 1);
  scenario.axis = axes[static_cast<std::size_t>(scenario.key.axis)];
  scenario.track_class =
      classes[static_cast<std::size_t>(scenario.key.track_class)];
  scenario.severity = static_cast<double>(scenario.key.sev_step) /
                      static_cast<double>(kSeverityDenominator);

  // Fault envelope: drawn from the severity-independent profile key, so a
  // severity sweep moves along one fixed phase/ramp/window shape.
  Rng profile_rng =
      Rng{seed_}.substream(kFrontierStreamProfile, scenario.key.profile_key());
  const double t0 = profile_rng.uniform(0.0, 3.0);
  const double ramp = profile_rng.uniform(0.0, 8.0);
  const double window = profile_rng.uniform(2.0, 6.0);
  if (scenario.axis == "blackout") {
    // A blackout kills every return while active, so its *envelope level*
    // carries no intensity — severity dials the outage length instead
    // (exactly the canonical factory's convention).
    scenario.profile = fault::FaultProfile{
        scenario.severity > 0.0 ? 1.0 : 0.0, 2.0 + t0, 0.0,
        window * scenario.severity};
  } else {
    scenario.profile =
        fault::FaultProfile{scenario.severity, t0, ramp, -1.0};
  }

  Rng track_rng =
      Rng{seed_}.substream(kFrontierStreamTrack, scenario.key.track_key());
  draw_track_params(track_rng, scenario);
  return scenario;
}

Track ScenarioSampler::build_track(const SampledScenario& scenario) const {
  // Replay the circuit draws from the scenario's own key — never trust the
  // resolved fields alone, so a hand-edited scenario cannot desynchronize
  // the parameter draws from the waypoint stream.
  SampledScenario resolved = scenario;
  Rng rng = Rng{seed_}.substream(kFrontierStreamTrack, scenario.key.track_key());
  draw_track_params(rng, resolved);
  if (resolved.track_class == "random") {
    return TrackGenerator::random_circuit(rng, resolved.n_waypoints,
                                          resolved.waypoint_radius,
                                          resolved.waypoint_jitter,
                                          resolved.spec);
  }
  // The Table-I club circuit (16 x 9 m, 2.6 m corners), length-scaled.
  return TrackGenerator::rounded_rect(16.0 * resolved.length_scale,
                                      9.0 * resolved.length_scale, 2.6,
                                      resolved.spec);
}

std::string ScenarioSampler::replay_recipe(std::uint64_t seed,
                                           std::uint32_t index) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "frontier:%016llx:%lu",
                static_cast<unsigned long long>(seed),
                static_cast<unsigned long>(index));
  return buf;
}

bool ScenarioSampler::parse_replay_recipe(const std::string& recipe,
                                          std::uint64_t& seed,
                                          std::uint32_t& index) {
  unsigned long long s = 0;
  unsigned long i = 0;
  if (std::sscanf(recipe.c_str(), "frontier:%llx:%lu", &s, &i) != 2) {
    return false;
  }
  seed = s;
  index = static_cast<std::uint32_t>(i);
  return true;
}

std::optional<SampledScenario> ScenarioSampler::sample_recipe(
    const std::string& recipe) {
  std::uint64_t seed = 0;
  std::uint32_t index = 0;
  if (!parse_replay_recipe(recipe, seed, index)) return std::nullopt;
  return ScenarioSampler{seed}.sample(index);
}

}  // namespace srl::frontier
