#pragma once

/// \file bench_util.hpp
/// \brief Shared helpers for the experiment-style bench harnesses: build
/// localizers over a track, run Table-I style cells, read env knobs.

#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>

#include "core/synpf.hpp"
#include "eval/experiment.hpp"
#include "eval/trace.hpp"
#include "gridmap/track_generator.hpp"
#include "slam/pure_localization.hpp"
#include "telemetry/telemetry.hpp"

namespace srl::benchutil {

inline int env_int(const char* name, int fallback) {
  const char* v = std::getenv(name);
  return v != nullptr ? std::atoi(v) : fallback;
}

inline bool fast_mode() { return env_int("SRL_FAST", 0) != 0; }

/// Laps per experiment cell: SRL_LAPS, or `fallback` (1 in fast mode).
inline int bench_laps(int fallback) {
  if (fast_mode()) return 1;
  return env_int("SRL_LAPS", fallback);
}

/// Benchmark artifacts (BENCH_*.json) land in a gitignored `out/`
/// directory instead of littering the repo root; created on first use,
/// relative to the working directory.
inline std::string out_path(const std::string& name) {
  std::error_code ec;
  std::filesystem::create_directories("out", ec);
  return (std::filesystem::path("out") / name).string();
}

/// SynPF with the CDDT backend (fast construction for sweeps).
inline std::unique_ptr<SynPf> make_synpf(
    std::shared_ptr<const OccupancyGrid> map, const LidarConfig& lidar,
    SynPfConfig cfg = {}) {
  cfg.range = RangeMethodKind::kCddt;
  return std::make_unique<SynPf>(cfg, std::move(map), lidar);
}

inline std::unique_ptr<CartoLocalizer> make_carto(
    std::shared_ptr<const OccupancyGrid> map, const LidarConfig& lidar,
    PureLocalizationOptions opt = {}) {
  return std::make_unique<CartoLocalizer>(opt, std::move(map), lidar);
}

/// Replay `trace` into `localizer` twice and report the second pass: the
/// first pass is a fixed, untimed warm-up (page faults on first-touched
/// slabs, cold i/d-caches and branch predictors otherwise land in the
/// timing columns — the same protocol the robustness matrix uses for its
/// SRL_RECORDER_AB wall-clock A/B). The warm-up replay advances the
/// filter's RNG deterministically, so warmed numbers stay bitwise
/// reproducible run to run and thread/SIMD-invariant like any other
/// replay; they are just not comparable to a cold single replay.
inline SensorTrace::ReplayResult replay_warmed(const SensorTrace& trace,
                                               Localizer& localizer,
                                               telemetry::Sink sink = {}) {
  (void)trace.replay(localizer);
  return trace.replay(localizer, sink);
}

/// Run one closed-loop cell on `track` with grip `mu`.
inline ExperimentResult run_cell(const Track& track, Localizer& localizer,
                                 double mu, int laps,
                                 std::uint64_t seed = 1234) {
  ExperimentConfig cfg;
  cfg.mu = mu;
  cfg.laps = laps;
  cfg.seed = seed;
  ExperimentRunner runner{track, cfg};
  return runner.run(localizer);
}

}  // namespace srl::benchutil
