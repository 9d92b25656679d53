#pragma once

/// \file recovery_policy.hpp
/// \brief The recovery vocabulary a SupervisedLocalizer can apply once the
/// DivergenceDetector confirms divergence, plus the scan-alignment probe
/// both of them score poses with.
///
/// Policies, in escalation order:
///
///  1. **Measurement tempering** (while SUSPECT): scale the particle
///     filter's likelihood squash up so a possibly-wrong posterior is not
///     sharpened further while the judgement is pending.
///  2. **Augmented-MCL re-injection** (first DIVERGED entries): Thrun's
///     w_slow/w_fast likelihood averages give an injection fraction
///     max(0, 1 - w_fast / w_slow); that fraction of the cloud is replaced
///     by uniform free-space poses (ParticleFilter::inject_uniform).
///  3. **Global relocalization** (relapse after `escalate_after` injection
///     rounds): sweep a candidate lattice over map free space, score each
///     pose with the alignment probe against the live scan, refine the
///     best few with the correlative scan matcher over a likelihood field,
///     and re-initialize the localizer on the winner — but only when the
///     winner decisively out-scores the current estimate.
///
/// Every stochastic draw comes from `Rng::substream` keyed by a pinned
/// RecoveryStream tag and the per-kind action ordinal, so recovery is a
/// pure function of (seed, event sequence) — bitwise identical at any
/// thread count, exactly like the filter it repairs.

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "gridmap/occupancy_grid.hpp"
#include "range/range_method.hpp"
#include "sensor/lidar.hpp"
#include "slam/probability_grid.hpp"
#include "slam/scan_matching.hpp"

namespace srl::recovery {

/// Substream key schedule of the recovery layer (see Rng::substream and the
/// PfStream precedent): action `n` of a kind draws from
/// `substream(kRecoveryStream<Kind>, n)`. Tags are pinned — append new
/// streams, never renumber.
enum RecoveryStream : std::uint64_t {
  kRecoveryStreamInject = 1,
  /// Reserved: early designs scattered relocalization candidates randomly;
  /// the lattice sweep draws nothing, but the tag stays pinned.
  kRecoveryStreamScatter = 2,
};

/// Deterministic expected-vs-measured range probe: the fraction of K
/// subsampled beams whose measured range agrees with the range an exact
/// ray cast predicts from a candidate pose. Cheap enough to run every scan
/// (K beams, not K x N particles) and map-grounded, so it keeps working
/// when the filter's own health signals are the thing in question.
class AlignmentProbe {
 public:
  AlignmentProbe(std::shared_ptr<const OccupancyGrid> map, LidarConfig lidar,
                 int beams = 40, double tolerance_m = 0.15);

  /// Fraction of probed valid beams within tolerance at `pose`, in [0, 1];
  /// -1 when fewer than `kMinValidBeams` returns are valid (blackout /
  /// heavy dropout — no evidence either way).
  double score(const Pose2& pose, const LaserScan& scan) const;

  /// Fraction of scan returns inside (min_range, max_range), in [0, 1].
  double valid_fraction(const LaserScan& scan) const;

  static constexpr int kMinValidBeams = 8;

 private:
  std::shared_ptr<const RangeMethod> caster_;
  LidarConfig lidar_;
  std::vector<int> beam_indices_;
  std::vector<double> beam_angles_;
  double tolerance_m_;
  // Per-call scratch (the probe is used single-threaded per instance).
  mutable std::vector<Pose2> rays_;
  mutable std::vector<float> expected_;
};

struct RecoveryPolicyConfig {
  /// Augmented-MCL uniform re-injection (Thrun et al. 2005, table 8.3).
  bool amcl_injection = true;
  double amcl_alpha_slow = 0.05;
  double amcl_alpha_fast = 0.5;
  /// Injection fraction clamp: even a collapsed w_fast/w_slow keeps some of
  /// the cloud (the filter may be right after all), and even a marginal
  /// ratio injects enough particles to matter.
  double min_injection_fraction = 0.10;
  double max_injection_fraction = 0.90;

  /// Global relocalization (lattice sweep + probe-score + scan-match
  /// refine).
  bool global_reloc = true;
  /// Candidate-lattice spacing over map free space. Must keep every
  /// reachable pose within the matcher's linear capture window of some
  /// lattice point (0.5 m spacing -> <= 0.36 m diagonal offset, inside the
  /// 0.40 m refinement window) — a random scatter gives no such guarantee,
  /// and on a corridor track missing the true pose's basin means an aliased
  /// look-alike wins.
  double reloc_grid_m = 0.5;
  /// Headings probed per lattice position. Must be dense enough that the
  /// best fan heading lands inside the matcher's angular window (16 ->
  /// <= 11.25 deg off, within the 0.20 rad refinement window).
  int reloc_headings = 16;
  /// DIVERGED entries answered with injection before escalating to global
  /// relocalization (0 = relocalize immediately).
  int escalate_after = 1;
  bool reloc_scan_match = true;  ///< correlative refinement of the shortlist
  /// Shortlist size: the best-scoring scatter candidates are each refined
  /// with the matcher and re-scored (aliased corridors mean the raw scatter
  /// winner is often wrong; refinement separates the true pose from its
  /// look-alikes).
  int reloc_refine_top = 6;
  /// Verification gate: a relocalization is only applied when its refined
  /// score beats the current estimate's score by this margin. A failed
  /// search must never destroy the state it was meant to repair.
  double reloc_accept_margin = 0.05;

  /// Measurement-weight tempering while SUSPECT or worse.
  bool tempering = true;
  double temper_scale = 2.0;  ///< squash multiplier (1.0 = off)

  /// Dead-reckoning fallback during full sensor blackout: hold the last
  /// estimate, integrate odometry, and report inflated uncertainty instead
  /// of feeding returnless scans to the filter.
  bool blackout_fallback = true;
  /// A scan with fewer valid returns than this fraction is a blackout.
  double blackout_valid_fraction = 0.05;
  /// Covariance-inflation proxy: position sigma grows by this much per
  /// dead-reckoned meter (recovery.blackout_drift_m gauge).
  double blackout_inflation_per_m = 0.15;

  /// Everything off: the supervisor observes (detector, telemetry) but
  /// never touches the filter — bitwise no-op on estimates.
  static RecoveryPolicyConfig none();
};

/// Stateful policy engine: tracks the w_slow/w_fast averages, the
/// escalation ladder, and the per-kind action ordinals feeding the
/// substream schedule. The SupervisedLocalizer owns one and asks it what to
/// do on each confirmed divergence.
class RecoveryPolicy {
 public:
  RecoveryPolicy(RecoveryPolicyConfig config,
                 std::shared_ptr<const OccupancyGrid> map, LidarConfig lidar,
                 std::uint64_t seed);

  /// Feed this update's alignment score (< 0 = unavailable, ignored) into
  /// the slow/fast averages.
  void observe_alignment(double score);
  /// max(0, 1 - w_fast / w_slow), clamped to the config bounds.
  double injection_fraction() const;
  double w_slow() const { return w_slow_; }
  double w_fast() const { return w_fast_; }

  enum class Action { kNone, kInject, kGlobalReloc };
  /// Decide the response to a fresh DIVERGED entry. `has_filter` reports
  /// whether a particle cloud is bound (injection needs one; without it the
  /// ladder skips straight to relocalization).
  Action plan_recovery(bool has_filter);
  /// The detector returned to HEALTHY: reset the escalation ladder.
  void note_healthy();

  /// Substream for the next injection event (advances the ordinal).
  Rng inject_rng();
  /// Sweep a `reloc_grid_m` lattice x `reloc_headings` fan over map free
  /// space, probe-score every candidate against `scan`, refine the
  /// `reloc_refine_top` best with the correlative matcher, and return the
  /// best refined pose — but only if it beats `current`'s own score by
  /// `reloc_accept_margin`. nullopt when no candidate qualifies (the search
  /// found nothing better than where the estimate already is) or the probe
  /// has no valid evidence. Fully deterministic: the lattice is fixed by
  /// the map and config, no RNG draw involved.
  std::optional<Pose2> global_relocalize(const LaserScan& scan,
                                         const AlignmentProbe& probe,
                                         const Pose2& current);

  void reset();

  const RecoveryPolicyConfig& config() const { return config_; }
  std::uint64_t injections() const { return inject_ordinal_; }

 private:
  RecoveryPolicyConfig config_;
  std::shared_ptr<const OccupancyGrid> map_;
  LidarConfig lidar_;
  Rng base_;
  double w_slow_{0.0};
  double w_fast_{0.0};
  std::uint64_t inject_ordinal_{0};
  int diverged_entries_{0};
  /// Likelihood field for refinement, taken from MapAssets on first use.
  mutable std::shared_ptr<const ProbabilityGrid> field_;
};

}  // namespace srl::recovery
