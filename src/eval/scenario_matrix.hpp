#pragma once

/// \file scenario_matrix.hpp
/// \brief Declarative {localizer x fault x severity} robustness grid — the
/// engine behind `bench_robustness_matrix` and the CI robustness gate.
///
/// Each cell races one localizer closed-loop (eval/experiment.hpp) with a
/// `FaultPipeline` spliced between the simulated sensors and the filter
/// (fault/faulted_localizer.hpp), then scores it with the paper's metrics:
/// lateral-error mu/sigma, scan alignment, update-latency percentiles, plus
/// the PR-1 telemetry health signals (ESS distribution, resamples, pose-jump
/// alarms) for particle-filter cells.
///
/// Cells are independent deterministic simulations (every cell re-seeds from
/// the config), so the grid fans out over the PR-3 `ThreadPool`, each lane
/// claiming the next cell (`claim_each`): results are written per-index
/// and are bitwise identical at any `matrix_threads` —
/// parallelism across cells composes with the filters' own determinism
/// guarantee because each cell pins its filter to one lane
/// (`cell_threads = 1` by default).

#include <cstdint>
#include <string>
#include <vector>

#include "eval/experiment.hpp"
#include "eval/stack.hpp"
#include "gridmap/track_generator.hpp"

namespace srl {

/// One fault condition of the grid. `fault` is a canonical factory name
/// (fault/injector.hpp); severity 0 with fault "none" is the clean baseline
/// every degradation is measured against.
struct ScenarioSpec {
  std::string fault{"none"};
  double severity{0.0};

  std::string label() const;  ///< "fault@severity" (e.g. "lidar_dropout@0.5")
};

struct ScenarioMatrixConfig {
  /// Localizer kinds the grid compares, in the kind grammar of
  /// eval/stack.hpp (PostmortemStackSpec::localizer): "SynPF" or
  /// "CartoLite", optionally "+Recovery", then "+Governor" (shedding) or
  /// "+Budget" (enforcer — the ungoverned baseline the degradation
  /// headline compares against). An unknown kind or fault yields a zeroed
  /// cell.
  std::vector<std::string> localizers{"SynPF", "CartoLite"};
  /// Scenarios. Besides the fault-factory names (fault/injector.hpp) the
  /// matrix understands the pseudo-fault "kidnap": no pipeline stage; the
  /// *true* vehicle is teleported at `kidnap_time` by
  /// `kidnap_advance * severity` of a lap (eval/experiment.hpp kidnaps).
  /// Kidnap cells run until `max_sim_time` instead of the lap budget so the
  /// recovery has room to play out.
  std::vector<ScenarioSpec> scenarios{};
  /// Closed-loop experiment template; mu/laps stay as configured here, the
  /// seed below overrides its seed so the whole matrix shares one.
  ExperimentConfig experiment{};
  std::uint64_t seed = 1234;
  /// Seed of every cell's FaultPipeline (decoupled from the sim seed so the
  /// fault draw schedule survives experiment re-tuning).
  std::uint64_t fault_seed = 0x7a017ULL;
  /// Worker lanes across cells (0 = hardware/SRL_THREADS default).
  int matrix_threads = 0;
  /// Worker lanes inside each particle filter. Keep 1: the matrix already
  /// saturates cores cell-wise, and nested pools oversubscribe.
  int cell_threads = 1;
  int n_particles = 1200;
  /// Kidnap pseudo-fault parameters (see `scenarios`).
  double kidnap_time = 12.0;
  double kidnap_advance = 0.25;  ///< lap fraction teleported at severity 1
  /// Flight recorder (telemetry/flight_recorder.hpp): when non-empty, every
  /// cell runs with a recorder attached and black-box artifacts land here on
  /// divergence/crash/contract triggers. Empty = recorder off — the cells
  /// then run the exact pre-recorder hot path (bitwise no-op guarantee).
  std::string blackbox_dir{};
  /// Track recipe stamped into each black box's rebuild provenance
  /// (PostmortemStackSpec::track). Must name the track `run()` is given.
  std::string track_name{"test_track"};
  /// Per-update latency budget for "+Governor"/"+Budget" cells, ms
  /// (src/governor virtual-cost accounting; benches override this from
  /// SRL_BUDGET_MS). Ignored by ungoverned localizer kinds.
  double budget_ms = 2.0;
};

/// One scored cell: `run_cell`'s read-out of the cell's race (every block:
/// a cell attaches a registry and an event log) under its grid coordinates.
struct ScenarioCell : CellOutcome {
  std::string localizer;
  ScenarioSpec scenario;
};

class ScenarioMatrix {
 public:
  explicit ScenarioMatrix(ScenarioMatrixConfig config);

  /// Run every {localizer x scenario} cell on `track` and return them in
  /// grid order (localizer-major). Deterministic at any matrix_threads.
  std::vector<ScenarioCell> run(const Track& track) const;

  const ScenarioMatrixConfig& config() const { return config_; }

  /// The canonical reduced grid for CI smoke runs: 5 localizer kinds x 9
  /// scenarios (the clean baseline, slip ramp, dropout and compute pressure
  /// at two severities each, a kidnap and a blackout), short trace.
  static ScenarioMatrixConfig smoke_config();
  /// The full grid of the robustness bench.
  static ScenarioMatrixConfig full_config();

 private:
  ScenarioMatrixConfig config_;
};

/// The paper's headline, extracted from a finished grid: degradation factor
/// (lateral-error mu at the highest severity of `fault` over the clean
/// baseline) per localizer. A crash under fault is the limit case of
/// degradation — the `*_crashed` flags record it, and the degradation factor
/// is pinned to `kCrashDegradation` (lateral mu of a crashed run is
/// meaningless). Returns false when the grid lacks the cells.
struct HeadlineComparison {
  /// Sentinel degradation factor for a faulted run that crashed: larger
  /// than any factor a completed lap can produce, finite so it serializes.
  static constexpr double kCrashDegradation = 1000.0;

  std::string fault;
  double severity{0.0};
  double synpf_baseline_cm{0.0};
  double synpf_faulted_cm{0.0};
  double synpf_degradation{0.0};  ///< faulted / baseline
  bool synpf_crashed{false};      ///< faulted SynPF run crashed
  double carto_baseline_cm{0.0};
  double carto_faulted_cm{0.0};
  double carto_degradation{0.0};
  bool carto_crashed{false};  ///< faulted CartoLite run crashed
  /// The paper shape: SynPF survives and degrades strictly less than the
  /// Cartographer-style baseline (which may degrade to the point of crash).
  bool synpf_flat() const {
    return !synpf_crashed && synpf_degradation < carto_degradation;
  }
};
bool compute_headline(const std::vector<ScenarioCell>& cells,
                      const std::string& fault, HeadlineComparison& out);

/// The graceful-degradation headline (DESIGN.md §16), extracted from a grid
/// that carries "<kind>+Governor" and "<kind>+Budget" cells under the
/// `compute_pressure` axis at its highest severity: the governed stack must
/// finish un-crashed with bounded lateral-error growth over its own clean
/// baseline, while the budget-enforced twin — same budget, no shedding —
/// misses deadlines (or crashes outright). Returns false when the grid
/// lacks the cells.
struct GovernorHeadline {
  double severity{0.0};
  double budget_ms{0.0};
  double governed_baseline_cm{0.0};  ///< +Governor under fault "none"
  double governed_pressured_cm{0.0};
  double governed_degradation{0.0};  ///< pressured / baseline
  bool governed_crashed{false};
  std::uint64_t governed_misses{0};
  std::uint64_t governed_shed_updates{0};  ///< beam- or particle-shed
  double enforcer_pressured_cm{0.0};
  bool enforcer_crashed{false};
  std::uint64_t enforcer_misses{0};
  /// The claim the CI gate pins: shedding keeps the stack alive and
  /// meeting deadlines where plain enforcement starves or dies.
  bool graceful() const {
    return !governed_crashed && governed_misses == 0 &&
           (enforcer_misses > 0 || enforcer_crashed);
  }
};
bool compute_governor_headline(const std::vector<ScenarioCell>& cells,
                               GovernorHeadline& out);

}  // namespace srl
