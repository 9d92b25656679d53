#pragma once

/// \file filter_health.hpp
/// \brief Particle-filter health diagnostics: effective sample size, weight
/// entropy, max-weight share, and a pose-jump detector.
///
/// These are the signals behind the paper's degradation analysis: a healthy
/// MCL posterior has ESS near N and entropy near log N; weight collapse
/// (ESS -> 1, one particle holding all the mass) precedes the scan-alignment
/// drops of Table I under low-quality odometry, and a pose jump larger than
/// the odometry-feasible motion marks the estimate snapping between modes.
/// The struct is sampled once per measurement update when a
/// `MetricsRegistry` is attached — it is an observability product, not part
/// of the filter's control flow.

#include <span>

#include "common/types.hpp"

namespace srl::telemetry {

/// Kish effective sample size 1 / sum(w_i^2) of a weight vector. Weights
/// need not be normalized; all-zero weights yield 0.
double effective_sample_size(std::span<const double> weights);

/// Shannon entropy -sum(w log w) in nats of the normalized weights.
/// Uniform weights give log(N); a degenerate vector gives 0.
double weight_entropy(std::span<const double> weights);

/// Largest normalized weight (1/N when uniform, 1.0 when degenerate).
double max_weight_share(std::span<const double> weights);

/// One health sample, taken after a measurement update.
struct FilterHealth {
  int n_particles{0};
  double ess{0.0};
  double ess_fraction{0.0};        ///< ess / n_particles
  double weight_entropy{0.0};      ///< nats
  double normalized_entropy{0.0};  ///< entropy / log(n), 1 = uniform
  double max_weight_share{0.0};
  long resample_count{0};          ///< cumulative resampling events
  double pose_jump_m{0.0};         ///< |correction| applied by this update
  double pose_jump_rad{0.0};
  bool pose_jump_alarm{false};
};

/// Flags measurement-update corrections larger than the configured
/// thresholds — the estimate teleporting rather than tracking. The inputs
/// are the odometry-propagated estimate (before `correct`) and the posterior
/// estimate (after), so odometry-consistent motion never alarms.
class PoseJumpDetector {
 public:
  explicit PoseJumpDetector(double xy_threshold_m = 0.5,
                            double theta_threshold_rad = 0.35)
      : xy_threshold_{xy_threshold_m}, theta_threshold_{theta_threshold_rad} {}

  /// Fills jump magnitudes into `health` and returns whether this update
  /// alarmed. Alarms are also counted cumulatively.
  bool update(const Pose2& predicted, const Pose2& corrected,
              FilterHealth& health);

  long alarm_count() const { return alarms_; }

 private:
  double xy_threshold_;
  double theta_threshold_;
  long alarms_{0};
};

}  // namespace srl::telemetry
