#pragma once

/// \file supervised_localizer.hpp
/// \brief Decorator that supervises any `Localizer` with online divergence
/// detection and automated recovery — the mirror image of
/// `fault::FaultedLocalizer`, which corrupts the sensor diet upstream.
///
/// Every scan the wrapper (1) probes the inner estimate's scan alignment
/// against the map, (2) folds alignment + ESS + pose-jump + odometry
/// disagreement into the `DivergenceDetector`, and (3) applies the
/// `RecoveryPolicy` ladder when divergence is confirmed: measurement
/// tempering while SUSPECT, Augmented-MCL uniform re-injection on the first
/// DIVERGED entries, global relocalization on relapse. During a full sensor
/// blackout it degrades gracefully to a dead-reckoning fallback: the last
/// estimate is propagated by odometry, the filter never sees the returnless
/// scans, and the `recovery.blackout_drift_m` gauge reports the inflated
/// uncertainty proxy.
///
/// Composition with fault injection (canonical order):
///
///     SupervisedLocalizer(FaultedLocalizer(SynPf))
///
/// i.e. supervise *outside* the faults, so corruption hits the filter
/// upstream of detection exactly as a real sensor fault would. The reverse
/// nesting is legal (both are `Localizer` decorators) but measures a
/// different thing: faults applied to an already-supervised stack.
///
/// Determinism: with `RecoveryPolicyConfig::none()` the wrapper observes
/// only (detector + telemetry, no filter access) and is a bitwise no-op on
/// estimates. With policies on, every stochastic recovery draw comes from
/// the policy's pinned substream schedule, so runs are bitwise identical
/// at any thread count.

#include <cstdint>
#include <memory>
#include <string>

#include "core/localizer.hpp"
#include "core/particle_filter.hpp"
#include "gridmap/occupancy_grid.hpp"
#include "recovery/divergence_detector.hpp"
#include "recovery/recovery_policy.hpp"
#include "sensor/lidar.hpp"
#include "telemetry/telemetry.hpp"

namespace srl::recovery {

struct SupervisedLocalizerConfig {
  DivergenceDetectorConfig detector{};
  RecoveryPolicyConfig policy{};
  int probe_beams = 40;           ///< alignment-probe subsample size
  double probe_tolerance_m = 0.15;
  std::uint64_t seed = 0x7ec0;    ///< recovery substream master seed
};

class SupervisedLocalizer final : public LocalizerDecorator {
 public:
  /// `inner` is not owned and must outlive the wrapper.
  SupervisedLocalizer(Localizer& inner, SupervisedLocalizerConfig config,
                      std::shared_ptr<const OccupancyGrid> map,
                      LidarConfig lidar);

  /// Bind the particle cloud the supervisor may repair (injection over the
  /// supervisor's map, ESS signal, tempering). Optional: without it the
  /// ladder skips injection and escalates straight to relocalization via
  /// `initialize`.
  void bind_filter(ParticleFilter* pf);

  void initialize(const Pose2& pose) override;
  void on_odometry(const OdometryDelta& odom) override;
  Pose2 on_scan(const LaserScan& scan) override;
  Pose2 pose() const override;
  std::string name() const override { return inner_.name() + "+supervised"; }
  void set_telemetry(const telemetry::Sink& sink) override;

  HealthState state() const { return detector_.state(); }
  const DivergenceDetector& detector() const { return detector_; }
  const RecoveryPolicy& policy() const { return policy_; }
  bool blackout_engaged() const { return blackout_engaged_; }
  /// Dead-reckoned distance accumulated during the current blackout, m.
  double blackout_drift_m() const { return blackout_dist_m_; }
  /// Alignment-probe score of the most recent non-blackout scan
  /// (-1 before the first one). Flight-recorder probe.
  double last_alignment() const { return last_alignment_; }

 private:
  void apply_recovery(const LaserScan& scan);
  void set_tempering(bool want);
  void publish(const TransitionCounts& before, double t);
  void emit_event(double t, telemetry::EventSeverity severity,
                  const char* code, json::Value data);

  SupervisedLocalizerConfig config_;
  std::shared_ptr<const OccupancyGrid> map_;
  AlignmentProbe probe_;
  DivergenceDetector detector_;
  RecoveryPolicy policy_;
  ParticleFilter* pf_{nullptr};

  // Dead-reckoning fallback state (blackout degradation).
  bool blackout_engaged_{false};
  Pose2 fallback_pose_{};
  double blackout_dist_m_{0.0};

  // Odometry/estimate disagreement bookkeeping.
  Pose2 pending_odom_{};  ///< composed odometry delta since the last scan
  Pose2 last_estimate_{};
  bool have_last_estimate_{false};

  bool tempering_engaged_{false};
  bool relocated_this_scan_{false};
  double diverged_since_{-1.0};  ///< scan time of the open divergence episode
  double last_alignment_{-1.0};

  telemetry::Sink sink_{};
  telemetry::Gauge* g_state_{nullptr};
  telemetry::Gauge* g_inject_fraction_{nullptr};
  telemetry::Gauge* g_blackout_drift_{nullptr};
  telemetry::Counter* c_to_suspect_{nullptr};
  telemetry::Counter* c_to_diverged_{nullptr};
  telemetry::Counter* c_to_recovering_{nullptr};
  telemetry::Counter* c_to_healthy_{nullptr};
  telemetry::Counter* c_injections_{nullptr};
  telemetry::Counter* c_global_relocs_{nullptr};
  telemetry::Counter* c_blackouts_{nullptr};
  telemetry::Histogram* h_time_to_reloc_{nullptr};
};

}  // namespace srl::recovery
