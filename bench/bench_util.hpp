#pragma once

/// \file bench_util.hpp
/// \brief Shared helpers for the experiment-style bench harnesses: the
/// recipe Table I and the sweep benches race through `run_cell`
/// (eval/stack.hpp), the warmed open-loop replay, env knobs and the
/// artifact directory.

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <limits>
#include <memory>
#include <string>

#include "common/knobs.hpp"
#include "eval/stack.hpp"
#include "eval/trace.hpp"
#include "gridmap/track_generator.hpp"
#include "telemetry/telemetry.hpp"

namespace srl::benchutil {

/// A numeric environment knob through the checked reader
/// (common/knobs.hpp). A rejected value prints the knob and its text and
/// exits 2; every bench reads its knobs this way before it races anything.
inline std::uint64_t knob_uint(const char* name, std::uint64_t fallback,
                               std::uint64_t lo, std::uint64_t hi) {
  try {
    return env_uint(name, fallback, lo, hi);
  } catch (const KnobError& e) {
    std::cerr << e.what() << "\n";
    std::exit(2);
  }
}

inline double knob_real(const char* name, double fallback, double lo,
                        double hi) {
  try {
    return env_real(name, fallback, lo, hi);
  } catch (const KnobError& e) {
    std::cerr << e.what() << "\n";
    std::exit(2);
  }
}

inline bool fast_mode() { return knob_uint("SRL_FAST", 0, 0, 1) != 0; }

/// Laps per experiment cell: SRL_LAPS, or `fallback`; `fast_laps` in fast
/// mode, which still checks SRL_LAPS.
inline int bench_laps(int fallback, int fast_laps = 1) {
  const auto laps = static_cast<int>(
      knob_uint("SRL_LAPS", static_cast<std::uint64_t>(fallback), 1,
                std::numeric_limits<int>::max()));
  return fast_mode() ? fast_laps : laps;
}

/// Benchmark artifacts (BENCH_*.json) land in a gitignored `out/`
/// directory instead of littering the repo root; created on first use,
/// relative to the working directory.
inline std::string out_path(const std::string& name) {
  std::error_code ec;
  std::filesystem::create_directories("out", ec);
  return (std::filesystem::path("out") / name).string();
}

/// One bench cell: `localizer` ("SynPF" or "CartoLite") for `laps` laps at
/// grip `mu`, sim seed 1234. SynPF runs 1500 particles on the default lanes
/// over the recipe's CDDT (fast construction for the sweeps; Table I races
/// the paper's LUT).
inline CellRecipe cell_recipe(const std::string& localizer, double mu,
                              int laps) {
  CellRecipe recipe;
  recipe.stack.localizer = localizer;
  recipe.stack.n_particles = 1500;
  recipe.stack.threads = 0;
  recipe.experiment.mu = mu;
  recipe.experiment.laps = laps;
  return recipe;
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

}  // namespace srl::benchutil
