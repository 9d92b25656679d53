#pragma once

/// \file frontier_json.hpp
/// \brief The `srl.frontier/1` artifact — machine-readable robustness
/// frontiers.
///
/// One frontier search serializes to one JSON document in the artifact
/// envelope (eval/artifact.hpp, which states the contract):
///
///     {
///       "schema": "srl.frontier/1",
///       "provenance": { compiler, build, git_sha, fast_mode, seeds,
///                       budget },
///       "points": [ {localizer, axis, track_class, breaking severity ±
///                    bracket, replay keys, probe log, black boxes} ],
///       "headline": { SynPF vs CartoLite breaking severity on one axis }
///     }
///
/// Deliberately absent: wall-clock time and thread counts, so no row has a
/// `timing` object. The document is a pure function of the search config,
/// so CI can demand *byte-identical* artifacts between same-machine reruns
/// (the determinism gate) before applying tolerant cross-machine
/// thresholds.
///
/// `tools/bench_compare` gates two of these (eval/bench_compare.hpp): every
/// baseline point must exist in the candidate, a censored point — no
/// failure up to severity 1.0 — must stay censored, and no breaking
/// severity may drop.

#include <optional>

#include "common/json.hpp"
#include "eval/frontier/frontier_search.hpp"

namespace srl::frontier {

inline constexpr const char* kFrontierSchema = "srl.frontier/1";

struct FrontierDocument {
  /// artifact_provenance(); the writer appends the search's seeds and
  /// budget from `result`.
  json::Value provenance = json::Value::object();
  FrontierResult result{};
  std::optional<FrontierHeadline> headline{};
};

json::Value frontier_to_json(const FrontierDocument& doc);

}  // namespace srl::frontier
