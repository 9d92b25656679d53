#pragma once

/// \file benchmark_json.hpp
/// \brief The stable machine-readable benchmark schema
/// (`srl.bench_robustness/4`) and its writer.
///
/// Every robustness-matrix run serializes to one JSON document:
///
///     {
///       "schema": "srl.bench_robustness/4",
///       "provenance": { compiler, build, seeds, grid shape, ... },
///       "fault_traces": [ {fault, severity, trace_hash, n_scans, ...} ],
///       "cells":        [ {localizer, fault, severity, metrics...} ],
///       "headline":     { slip-ramp degradation factors },
///       "governor_headline": { graceful-degradation verdict }
///     }
///
/// `fault_traces` fingerprints the *input* each fault regime produces
/// (bitwise hash of the corrupted sensor trace — seed-deterministic and
/// thread-count invariant), `cells` the *outcome* per scenario. The schema
/// is the contract of the CI gate: `tools/bench_compare` diffs two
/// documents cell-by-cell by field name (eval/bench_compare.hpp), so
/// fields may be added in later versions but never renamed or repurposed
/// without bumping the version suffix.

#include <cstdint>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "eval/scenario_matrix.hpp"

namespace srl {

/// Current schema: v4 added the per-cell compute-governor block (governed
/// mode + budget, deadline misses, shed counts, particle/beam means,
/// deterministic virtual-cost percentiles) and the governor headline. v3
/// added the per-cell event-journal summary
/// (events_total/warn/error/critical/dropped + black-box artifact paths)
/// and the recorder provenance block (recorder on/off, recorder vs
/// baseline wall time). v2 added the per-cell recovery block
/// (recovery_success, divergence episodes, time-to-relocalize).
inline constexpr const char* kBenchRobustnessSchema = "srl.bench_robustness/4";

/// Where the numbers came from — enough to explain a regression without
/// reproducing it. Everything here is informational except `seed` and
/// `fault_seed`, which the determinism hash depends on.
struct BenchProvenance {
  std::string compiler;      ///< e.g. "gcc 13.2.0" (compiler_id())
  std::string build;         ///< "release" / "checked" / ...
  std::string git_sha;       ///< from SRL_GIT_SHA env when set
  std::uint64_t seed{0};
  std::uint64_t fault_seed{0};
  int laps{0};
  int n_particles{0};
  int matrix_threads{0};
  /// std::thread::hardware_concurrency() of the host that ran the bench
  /// (written by the throughput artifact, whose lane-scaling rule reads it).
  int hardware_threads{0};
  bool fast_mode{false};
  // -- schema v3: flight-recorder provenance (informational, not gated) --
  bool recorder{false};          ///< grid ran with the flight recorder on
  double recorder_wall_s{0.0};   ///< grid wall time, recorder on
  double baseline_wall_s{0.0};   ///< recorder-off A/B wall time (0 = not run)
  double recorder_overhead_pct{0.0};  ///< 100*(on/off - 1) when A/B was run
};

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
  BenchProvenance provenance{};
  std::vector<FaultTraceFingerprint> fault_traces{};
  std::vector<ScenarioCell> cells{};
  bool has_headline{false};
  HeadlineComparison headline{};
  // -- schema v4: graceful-degradation headline (absent pre-v4) --
  bool has_governor_headline{false};
  GovernorHeadline governor_headline{};
};

/// Compile-time compiler identification for provenance.
std::string compiler_id();

/// Serialize to the schema above (insertion-ordered, round-trip numbers).
json::Value bench_to_json(const BenchDocument& doc);
bool write_bench_json(const std::string& path, const BenchDocument& doc);

}  // namespace srl
