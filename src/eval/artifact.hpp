#pragma once

/// \file artifact.hpp
/// \brief The envelope every gated benchmark artifact shares: the
/// robustness grid (`srl.bench_robustness`, eval/benchmark_json.hpp), the
/// severity frontiers (`srl.frontier`, eval/frontier/frontier_json.hpp) and
/// the sensor-update throughput table (`srl.bench_throughput`,
/// eval/throughput_json.hpp).
///
///     {
///       "schema": "<family>/<version>",
///       "provenance": { compiler, build, git_sha, fast_mode, <writer's> },
///       <tables of rows, each row's wall clock under "timing">,
///       <document-level results>
///     }
///
/// The contract, which `tools/bench_compare` (eval/bench_compare.hpp)
/// holds every artifact to:
///  - `provenance` says where the numbers came from and is never compared.
///  - A row keeps every clock-derived field in its `timing` object, and a
///    same-machine rerun may change only `timing`: every field outside
///    `provenance` and `timing` must repeat bit for bit.
///  - Fields may be added, but never renamed or repurposed without bumping
///    the schema's version suffix.

#include "common/json.hpp"

namespace srl {

/// The provenance every artifact starts from, in this order: `compiler`
/// ("gcc 12.2.0"), `build` ("release" or "debug"), `git_sha` (the
/// `SRL_GIT_SHA` environment variable, empty when unset) and `fast_mode`.
/// Each writer appends its own fields after these.
json::Value artifact_provenance(bool fast_mode);

/// A new document holding `schema`, then `provenance`; the writer appends
/// the rest.
json::Value artifact(const char* schema, json::Value provenance);

}  // namespace srl
