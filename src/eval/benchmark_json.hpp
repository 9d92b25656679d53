#pragma once

/// \file benchmark_json.hpp
/// \brief The robustness-matrix artifact (`srl.bench_robustness/5`) and
/// its writer.
///
/// Every robustness-matrix run serializes to one JSON document in the
/// artifact envelope (eval/artifact.hpp, which states the contract):
///
///     {
///       "schema": "srl.bench_robustness/5",
///       "provenance": { compiler, build, git_sha, fast_mode, seeds, ... },
///       "fault_traces": [ {fault, severity, trace_hash, n_scans, ...} ],
///       "cells":        [ {localizer, fault, severity, metrics...,
///                          timing: {update and stage latencies, load}} ],
///       "headline":     { slip-ramp degradation factors },
///       "governor_headline": { graceful-degradation verdict }
///     }
///
/// `fault_traces` fingerprints the *input* each fault regime produces
/// (bitwise hash of the corrupted sensor trace — seed-deterministic and
/// thread-count invariant), `cells` the *outcome* per scenario.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "eval/scenario_matrix.hpp"

namespace srl {

/// Current schema: v5 moved each cell's wall-clock fields (update_p50_ms,
/// update_p99_ms, update_max_ms, load_percent, stage_p50_ms, stage_p99_ms)
/// into its `timing` object and put `fast_mode` fourth in provenance. v4
/// added the per-cell compute-governor block (governed mode + budget,
/// deadline misses, shed counts, particle/beam means, deterministic
/// virtual-cost percentiles) and the governor headline. v3 added the
/// per-cell event-journal summary (events_total/warn/error/critical/dropped
/// + black-box artifact paths) and the recorder provenance (recorder on/off,
/// recorder vs baseline wall time). v2 added the per-cell recovery block
/// (recovery_success, divergence episodes, time-to-relocalize).
inline constexpr const char* kBenchRobustnessSchema = "srl.bench_robustness/5";

/// Bitwise fingerprint of one fault regime applied to the canonical
/// recorded trace.
struct FaultTraceFingerprint {
  std::string fault;
  double severity{0.0};
  std::uint64_t trace_hash{0};
  std::uint64_t n_scans{0};
  std::uint64_t n_odometry{0};
};

struct BenchDocument {
  /// artifact_provenance() plus the bench's seeds, grid shape and recorder
  /// wall times (informational, like all provenance).
  json::Value provenance = json::Value::object();
  std::vector<FaultTraceFingerprint> fault_traces{};
  std::vector<ScenarioCell> cells{};
  std::optional<HeadlineComparison> headline{};
  std::optional<GovernorHeadline> governor_headline{};  ///< v4 on
};

/// One cell's row of the `cells` table.
json::Value cell_to_json(const ScenarioCell& cell);

/// Serialize to the schema above (insertion-ordered, round-trip numbers).
json::Value bench_to_json(const BenchDocument& doc);

}  // namespace srl
