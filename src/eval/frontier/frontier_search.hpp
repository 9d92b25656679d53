#pragma once

/// \file frontier_search.hpp
/// \brief Severity-bisected robustness frontiers: for each {localizer ×
/// fault-axis × track-class} combination, find the lowest severity at which
/// the localizer suffers an unrecovered divergence (DESIGN.md §14).
///
/// The search brackets then bisects on the dyadic severity grid of the
/// scenario sampler (eval/frontier/scenario_sampler.hpp):
///
///  1. probe severity 1.0 — if the run survives, the combination is
///     *censored* (no failure up to full severity; the frontier lies beyond
///     the modeled range);
///  2. probe severity 0.0 — if the clean run already fails, the combination
///     is *degenerate* (the circuit itself defeats the localizer);
///  3. otherwise bisect: integer midpoints on the severity-step grid for a
///     fixed iteration budget, so the probe sequence — and therefore every
///     byte of the result — is a pure function of the config.
///
/// A probe *fails* when the PR-5 divergence-episode machinery scores the
/// run as not recovered (`crashed`, or an episode opened and never closed —
/// eval/experiment.hpp). The final bracket is [highest passing severity,
/// lowest failing severity]; its width after B bisections is 2^-B of the
/// initial bracket. Combinations fan out over the PR-3 thread pool with
/// per-index result writes, so the artifact is bitwise identical at any
/// thread count.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "eval/experiment.hpp"
#include "eval/frontier/scenario_sampler.hpp"

namespace srl::frontier {

struct FrontierSearchConfig {
  /// Scenario-sampler master seed (keys every shape draw and replay key).
  std::uint64_t seed = 0xF407;
  /// FaultPipeline seed of every probe (decoupled, like the bench matrix).
  std::uint64_t fault_seed = 0x7a017ULL;
  /// Localizer kinds under test, in the kind grammar of eval/stack.hpp
  /// (PostmortemStackSpec::localizer). An unknown kind fails every probe.
  std::vector<std::string> localizers{"SynPF", "CartoLite"};
  /// Fault-axis ids (frontier_axes() order). Empty = all nine.
  std::vector<int> axes{};
  /// Declared per-update budget for `compute_pressure` probes: those
  /// scenarios race inside a budget-enforcing governor (PR-10), so the
  /// axis bites — pressure squeezes this budget until updates drop and
  /// the stack diverges. Other axes never construct a governor.
  double budget_ms = 2.0;
  /// Track-class ids (frontier_track_classes() order).
  std::vector<int> track_classes{0};
  /// Shape-redraw ordinal baked into every scenario index.
  int variant = 0;
  /// Bisection budget after the two bracket probes. The reported bracket
  /// width is kSeverityDenominator / 2^iterations severity steps.
  int bisect_iterations = 5;
  int n_particles = 800;
  /// Worker lanes inside each filter (keep 1: combos already parallelize).
  int cell_threads = 1;
  /// Worker lanes across combinations (0 = hardware/SRL_THREADS default).
  int search_threads = 0;
  /// Closed-loop template for every probe; `seed` here is the sim seed.
  ExperimentConfig experiment{};
  /// When non-empty, every frontier-defining failure is re-run with the
  /// PR-6 flight recorder attached and its black boxes land here, stamped
  /// with the scenario's `(seed, index)` replay recipe.
  std::string blackbox_dir{};

  /// Tiny-budget search for the CI smoke job: SynPF vs CartoLite on the
  /// club class, slip + dropout axes, 3 bisections, short runs.
  static FrontierSearchConfig smoke();
};

/// One probed scenario, in probe order.
struct FrontierEvaluation {
  std::uint32_t index{0};  ///< scenario replay key
  double severity{0.0};
  bool failed{false};      ///< crashed, or a divergence episode never closed
  bool crashed{false};
  int divergence_episodes{0};
  int recoveries{0};
  double lateral_mean_cm{0.0};
  double final_pose_error_m{0.0};
};

/// The frontier of one {localizer × axis × track-class} combination.
struct FrontierPoint {
  std::string localizer;
  std::string axis;
  std::string track_class;
  int variant{0};
  /// Survived severity 1.0 — no frontier inside the modeled range.
  bool censored{false};
  /// Failed severity 0.0 — the clean scenario already defeats the stack.
  bool degenerate{false};
  /// Lowest severity observed to fail (== bracket_hi; 0 when censored).
  double breaking_severity{0.0};
  double bracket_lo{0.0};  ///< highest severity observed to pass
  double bracket_hi{0.0};  ///< lowest severity observed to fail
  /// Replay key of the frontier-defining failure (0 when censored).
  std::uint32_t breaking_index{0};
  // -- circuit metadata (Raceline over the sampled centerline) --
  double track_length_m{0.0};
  double track_max_abs_curvature{0.0};
  std::vector<FrontierEvaluation> evaluations;  ///< every probe, in order
  /// Black boxes dumped by the defining-failure re-run (native path only).
  std::vector<std::string> blackboxes;

  std::string cell() const;  ///< "SynPF/odom_slip_ramp/club#0"
};

struct FrontierResult {
  std::uint64_t seed{0};
  std::uint64_t fault_seed{0};
  int bisect_iterations{0};
  int n_particles{0};
  int variant{0};
  /// Points in combo order: localizer-major, then axis, then track class —
  /// a pure function of the config, independent of search_threads.
  std::vector<FrontierPoint> points;
};

/// Custom probe hook for tests: score `scenario` against `localizer` and
/// return the evaluation (the search fills `index`/`severity` itself). The
/// hook must be a pure function of its arguments — it runs concurrently
/// across combinations.
using ScenarioEvaluator = std::function<FrontierEvaluation(
    const std::string& localizer, const SampledScenario& scenario)>;

/// Full closed-loop search: every probe races the localizer through the
/// sampled scenario (ExperimentRunner + FaultPipeline) and frontier
/// failures are re-run under the flight recorder when `blackbox_dir` is
/// set. Bitwise deterministic at any `search_threads`.
FrontierResult run_frontier_search(const FrontierSearchConfig& config);

/// Same bracketing/bisection driver with an injected probe — the unit-test
/// entry point (synthetic oracles make the bisector's arithmetic checkable
/// without simulation). No black-box re-runs.
FrontierResult run_frontier_search(const FrontierSearchConfig& config,
                                   const ScenarioEvaluator& evaluate);

/// The paper's headline restated as a frontier comparison on one axis and
/// track class: SynPF's breaking severity vs CartoLite's, each with the
/// final bracket width. Censoring counts as "beyond 1.0".
struct FrontierHeadline {
  std::string axis;
  std::string track_class;
  double synpf_breaking{0.0};
  double synpf_bracket_width{0.0};
  bool synpf_censored{false};
  double carto_breaking{0.0};
  double carto_bracket_width{0.0};
  bool carto_censored{false};
  /// SynPF's frontier strictly exceeds CartoLite's: CartoLite breaks inside
  /// the range and SynPF either survives outright or breaks strictly later.
  bool synpf_exceeds() const {
    if (carto_censored) return false;
    return synpf_censored || synpf_breaking > carto_breaking;
  }
};

/// Extract the headline from a finished search (axis/track-class by name);
/// false when either localizer's point is missing.
bool compute_frontier_headline(const FrontierResult& result,
                               const std::string& axis,
                               const std::string& track_class,
                               FrontierHeadline& out);

}  // namespace srl::frontier
