#pragma once

/// \file flight_recorder.hpp
/// \brief The black box: a deterministic ring of compact per-tick filter
/// snapshots, dumped (with the event timeline and run provenance) when a
/// run goes wrong.
///
/// The recorder answers the question aggregate metrics cannot: *what did
/// the filter see in the seconds before divergence?* Every scan tick the
/// harness records a `TickSnapshot` — pose estimate, truth error, ESS and
/// entropy, detector health/latch states, active fault envelope level, and
/// a top-K particle digest — into a bounded ring. On a trigger (divergence
/// episode opening or crash) the harness dumps a self-contained black-box
/// artifact: a JSON document (`srl.blackbox/1`) carrying provenance + a
/// rebuild recipe, the sim seed and start pose, the snapshot window, the
/// full event timeline, and a running FNV-1a hash over the raw bits of
/// every recorded estimate — plus a
/// binary `SensorTrace` sidecar (same stem, `.srlt`) with the clean sensor
/// stream, so `tools/postmortem --replay` can re-drive the captured window
/// through a freshly rebuilt localizer stack and reproduce the episode
/// *bitwise* (same estimate-trajectory hash, at any thread count).
///
/// Determinism: recording reads serial filter state only, draws no RNG,
/// and hashes values that are already thread-count invariant — so an
/// attached recorder never perturbs estimates and a detached one
/// (`Sink::recorder == nullptr`) is a bitwise no-op.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "telemetry/events.hpp"

namespace srl::telemetry {

inline constexpr const char* kBlackboxSchema = "srl.blackbox/1";

/// One scan tick's worth of filter state. Negative values mean "signal not
/// available for this stack" (e.g. no particle cloud, no supervisor).
struct TickSnapshot {
  std::uint64_t tick{0};
  double t{0.0};
  double est_x{0.0};
  double est_y{0.0};
  double est_theta{0.0};
  double truth_err_m{-1.0};     ///< |estimate - ground truth|, when known
  double ess_fraction{-1.0};    ///< ESS / particle count
  double weight_entropy{-1.0};
  int health_state{-1};         ///< recovery::HealthState as int
  int latch_mask{-1};           ///< detector latches: ess|align|jump|disagree
  double alignment{-1.0};       ///< supervisor probe score
  double injection_prob{-1.0};  ///< supervisor's AMCL injection fraction
  double fault_level{-1.0};     ///< max active fault envelope at t
  /// Top-K particles by weight, flattened [x, y, theta, weight] * K.
  std::vector<double> digest;
};

json::Value snapshot_to_json(const TickSnapshot& snap);

struct FlightRecorderConfig {
  std::size_t window = 256;  ///< snapshot ring capacity (most recent kept)
  std::size_t top_k = 5;     ///< particle-digest size (probe hint)
  std::string dump_dir = "blackbox";
  std::string label = "run";  ///< dump filename stem
  int max_dumps = 4;          ///< per-run dump budget (first triggers win)
};

class FlightRecorder {
 public:
  /// `events` (nullable, not owned) is snapshotted into every dump.
  explicit FlightRecorder(FlightRecorderConfig config = {},
                          EventLog* events = nullptr);

  /// Harness-installed enrichment hook: fills the stack-specific snapshot
  /// fields (ESS, latches, digest, fault level) from captured filter /
  /// supervisor / pipeline pointers. Must be a pure observer.
  using TickProbe = std::function<void(TickSnapshot&)>;
  void set_tick_probe(TickProbe probe) { probe_ = std::move(probe); }

  /// Run provenance + rebuild recipe, serialized verbatim into every dump.
  void set_provenance(json::Value provenance) {
    provenance_ = std::move(provenance);
  }

  /// Record one tick: apply the probe, fold the estimate into the running
  /// trajectory hash, push into the ring.
  void record_tick(TickSnapshot snap);

  std::uint64_t ticks() const { return ticks_; }
  /// FNV-1a over the raw double bits of every recorded (x, y, theta).
  std::uint64_t estimate_hash() const { return hash_; }
  const FlightRecorderConfig& config() const { return config_; }
  /// Snapshot window in chronological order.
  std::vector<TickSnapshot> window() const;

  bool can_dump() const { return dumps_done_ < config_.max_dumps; }
  /// "<dump_dir>/<label>-<reason>-<n>.json" for the next dump ("" when the
  /// budget is exhausted). The trace sidecar replaces .json with .srlt.
  std::string next_dump_path(const std::string& reason) const;
  static std::string trace_sidecar_path(const std::string& json_path);

  /// Write the black box to `path` (creating dump_dir). `extra` members are
  /// spliced into the document root — the harness supplies what only it
  /// knows (trace sidecar name, start pose, sim RNG state, seeds).
  bool dump(const std::string& path, const std::string& reason, double t,
            const json::Value& extra);

  int dumps() const { return dumps_done_; }
  const std::vector<std::string>& dump_paths() const { return dump_paths_; }

  void clear();

 private:
  FlightRecorderConfig config_;
  EventLog* events_;
  TickProbe probe_{};
  json::Value provenance_{json::Value::object()};

  std::vector<TickSnapshot> ring_;
  std::size_t ring_next_{0};
  std::uint64_t ticks_{0};
  std::uint64_t hash_;
  int dumps_done_{0};
  std::vector<std::string> dump_paths_;
};

}  // namespace srl::telemetry
