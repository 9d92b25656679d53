#pragma once

/// \file bench_compare.hpp
/// \brief The benchmark gate: one engine that diffs two artifacts of the
/// same family — `srl.bench_robustness`, `srl.frontier` or
/// `srl.bench_throughput` — under one policy table.
///
/// The engine reads both documents as plain JSON, in the envelope of
/// eval/artifact.hpp. The family (the schema string before its `/`) picks
/// the policy, and both documents must share it. The policy
/// (bench_compare.cpp) names each table of rows, the key that pairs a
/// baseline row with its candidate row, and one rule per gated field
/// (`timing.update_p99_ms` reaches into a block): exact, an upper bound, a
/// lower floor, or a flag that may not be lost. Cross-field conditions (a
/// crash masks the accuracy rules, a censored frontier point reads as
/// severity 2.0, ...) are named guards on those rules. A table may also
/// carry one lane-scaling rule, judged within the candidate alone: the
/// throughput table's 4-lane update may not be slower than 1.1x its 1-lane
/// update. A newly gated metric is one policy row, not a new compare mode.
///
/// Two modes:
///  - `kBaseline` — a candidate against a committed baseline that may come
///    from another machine. Every baseline row, and every gated field it
///    carries, must exist in the candidate (coverage may grow, never
///    shrink), and each rule judges its field. A gated field the baseline
///    lacks is not judged. Fingerprints and fields without a rule are not
///    compared: their bits are only stable within one build.
///  - `kRerun` — a same-machine rerun against its run (the determinism
///    gate). Both documents must hold the same rows, and every field outside
///    `provenance` and each row's `timing` must be equal.
///
/// `tools/bench_compare` maps the report onto exit codes for CI.

#include <optional>
#include <string>
#include <vector>

#include "common/json.hpp"

namespace srl {

enum class GateMode {
  kBaseline,  ///< candidate vs committed baseline, per-rule tolerances
  kRerun,     ///< rerun vs run, all but provenance and timing equal
};

struct CompareFailure {
  std::string cell;    ///< row key, e.g. "SynPF/odom_slip_ramp@1"
  std::string metric;  ///< field path ("timing.update_p99_ms"), or "row"
  json::Value baseline;   ///< the field as each document holds it; null
  json::Value candidate;  ///< when that side lacks it
  std::string expected;   ///< what the candidate had to be: "<= 11.75"

  /// "<cell>: <metric> <baseline> -> <candidate>, expected <expected>".
  std::string describe() const;
};

struct CompareReport {
  std::vector<CompareFailure> failures;
  /// Observations that never fail the gate: improvements worth a baseline
  /// refresh, cost traded for accuracy, and baseline rows the candidate
  /// host cannot produce.
  std::vector<std::string> notes;
  int rows_compared{0};
  bool ok() const { return failures.empty(); }
};

/// Diff `candidate` against `baseline`. Returns nullopt and sets `error`
/// when either document's schema family has no policy, or the two families
/// differ.
std::optional<CompareReport> compare_artifacts(const json::Value& baseline,
                                               const json::Value& candidate,
                                               GateMode mode,
                                               std::string& error);

}  // namespace srl
