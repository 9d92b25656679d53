#pragma once

/// \file postmortem.hpp
/// \brief Black-box loading, timeline rendering, and bitwise replay — the
/// analysis half of the flight recorder (telemetry/flight_recorder.hpp).
///
/// A black-box artifact (`srl.blackbox/1` JSON + `.srlt` sensor-trace
/// sidecar) is self-contained: it carries the stack recipe (which localizer,
/// how many particles, which range backend, which fault scenario and seeds),
/// the start pose, the event timeline, and the FNV-1a hash over every
/// estimate the run produced up to the dump. `replay_blackbox` rebuilds the
/// exact localizer stack from the recipe (the `PostmortemStackSpec` of
/// eval/stack.hpp, through the same builder that raced the run), re-drives
/// the captured sensor
/// stream through it, and checks the replayed estimate-trajectory hash
/// against the recorded one — a *bitwise* reproduction oracle, valid at any
/// thread count because the whole filter stack is thread-count invariant.
///
/// `tools/postmortem` is the CLI face of this module.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "common/types.hpp"
#include "eval/stack.hpp"
#include "eval/trace.hpp"
#include "telemetry/events.hpp"

namespace srl {

/// One parsed black-box artifact.
struct Blackbox {
  std::string path;  ///< JSON artifact this was loaded from
  std::string reason;
  std::string label;
  double t{0.0};
  std::uint64_t ticks{0};
  std::uint64_t estimate_hash{0};
  Pose2 start_pose{};
  std::uint64_t sim_seed{0};
  std::string sim_rng_state;
  bool crashed{false};
  PostmortemStackSpec stack{};
  bool has_stack{false};
  json::Value provenance{json::Value::object()};
  std::vector<telemetry::Event> events;
  std::uint64_t events_total{0};
  std::uint64_t events_dropped{0};
  json::Value snapshots{json::Value::array()};
  SensorTrace trace;  ///< sidecar stream (may be empty if missing)
  bool has_trace{false};
};

/// Parse `path` (+ its `.srlt` sidecar, resolved relative to the artifact's
/// directory). Returns nullopt on unreadable/invalid JSON or wrong schema;
/// a missing sidecar only clears `has_trace`.
std::optional<Blackbox> load_blackbox(const std::string& path);

/// Human-readable postmortem: provenance header, snapshot-window summary,
/// and the full event timeline.
std::string render_timeline(const Blackbox& box);

struct PostmortemReplay {
  bool ok{false};  ///< stack rebuilt and trace re-driven
  std::uint64_t ticks{0};
  std::uint64_t estimate_hash{0};
  bool bitwise_match{false};  ///< replayed hash == recorded hash
  std::string error;
};

/// Re-drive the captured stream through a freshly rebuilt stack, exactly as
/// the closed loop delivered it (all odometry with t <= scan.t before each
/// scan; initialized at the recorded start pose), and compare the replayed
/// estimate-trajectory hash with the recorded one. `threads` overrides the
/// recorded filter lane count (0 = as recorded) — the hash must not change.
PostmortemReplay replay_blackbox(const Blackbox& box, int threads = 0);

}  // namespace srl
