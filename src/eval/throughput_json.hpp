#pragma once

/// \file throughput_json.hpp
/// \brief The sensor-update throughput artifact (`srl.bench_throughput/2`)
/// and its writer.
///
/// `bench_particle_sweep` emits one document per run, in the artifact
/// envelope (eval/artifact.hpp, which states the contract):
///
///     {
///       "schema": "srl.bench_throughput/2",
///       "provenance":  { compiler, build, git_sha, fast_mode, seed, laps,
///                        hardware_threads },
///       "simd_active": "avx2",
///       "avx2_available": true,
///       "n_scans": 123,
///       "determinism_hash": "0x...",
///       "cells": [ {stage, simd, particles, threads, beams,
///                   timing: {mean_ms, items_per_sec}, hash} ]
///     }
///
/// Each cell is one (stage, backend, particles, threads) measurement of a
/// fixed open-loop trace replay: `timing.mean_ms` is the stage's mean wall
/// time per scan and `timing.items_per_sec` the beams*particles work rate
/// it implies. `hash` fingerprints the replay's pose estimates bitwise
/// (FNV-1a over the raw doubles), so a rate table doubles as a determinism
/// witness: the hash must be identical across the threads and simd columns
/// of one particle count, and `tools/bench_compare --rerun` gates on it for
/// same-machine self-compares. Wall-clock rates are gated separately (and
/// generously) against a committed baseline, and the 4-lane update against
/// the same run's 1-lane update on hosts whose `hardware_threads` allow
/// 4 lanes. v2 moved `mean_ms` and `items_per_sec` under `timing` and put
/// `fast_mode` fourth in provenance.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "common/types.hpp"

namespace srl {

inline constexpr const char* kBenchThroughputSchema = "srl.bench_throughput/2";

/// One pipeline stage of one replay configuration.
struct ThroughputCell {
  std::string stage;  ///< "predict" | "raycast" | "weight" | "update"
  std::string simd;   ///< backend name the replay was forced to
  int particles{0};
  int threads{0};
  int beams{0};  ///< scored beams per scan
  double mean_ms{0.0};
  double items_per_sec{0.0};      ///< beams*particles / mean stage seconds
  std::uint64_t hash{0};          ///< estimate fingerprint of the replay
};

struct ThroughputDocument {
  /// artifact_provenance() plus the trace seed, laps and the host's
  /// hardware_threads, which the lane-scaling rule reads.
  json::Value provenance = json::Value::object();
  std::string simd_active;  ///< backend the ambient process resolved to
  bool avx2_available{false};
  int n_scans{0};
  /// FNV-1a fold of every distinct replay hash in emission order — one
  /// number that moves if any estimate bit anywhere in the table moves.
  std::uint64_t determinism_hash{0};
  std::vector<ThroughputCell> cells{};
};

/// Bitwise FNV-1a fingerprint of a replayed estimate sequence.
std::uint64_t estimates_hash(std::span<const Pose2> estimates);

/// Serialize to the schema above (hashes travel as fixed-width hex).
json::Value throughput_to_json(const ThroughputDocument& doc);

}  // namespace srl
