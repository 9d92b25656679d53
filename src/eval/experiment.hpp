#pragma once

/// \file experiment.hpp
/// \brief The closed-loop Table-I experiment: a vehicle races N timed laps
/// on a generated track, a pure-pursuit controller steers it using the pose
/// *estimated by the localizer under test*, and the harness collects the
/// paper's accuracy proxies. The grip coefficient mu is the independent
/// variable (HQ vs LQ odometry).

#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "control/pure_pursuit.hpp"
#include "control/speed_profile.hpp"
#include "core/localizer.hpp"
#include "eval/metrics.hpp"
#include "eval/trace.hpp"
#include "gridmap/track_generator.hpp"
#include "sensor/lidar_sim.hpp"
#include "track/raceline.hpp"
#include "vehicle/sensors.hpp"
#include "vehicle/vehicle_sim.hpp"

namespace srl {

struct ExperimentConfig {
  double mu = 0.76;        ///< grip: ~0.76 HQ (26 N pull), ~0.55 LQ (19 N)
  int laps = 10;           ///< timed laps (out-lap excluded)
  double sim_dt = 0.0025;  ///< physics step, s (400 Hz)
  double odom_rate_hz = 100.0;
  double lidar_rate_hz = 40.0;
  double control_rate_hz = 50.0;
  double max_sim_time = 300.0;      ///< s, safety cutoff
  double align_tolerance = 0.06;    ///< m, scan-alignment wall tolerance
  double crash_wall_distance = 0.08;  ///< m, true pose closer => crash
  /// Out-lap launch ramp: the speed command scales linearly from 0 to 1
  /// over this many seconds, like a driver easing onto pace before the
  /// timed laps. Applies identically to every localizer under test.
  double launch_ramp_s = 3.0;
  std::uint64_t seed = 1234;
  /// Scripted kidnaps: at `t` the *true* vehicle is teleported (at rest) to
  /// the race line point `advance_frac` of a lap ahead of its current arc
  /// position, offset `lateral_m` along the local normal and `yaw` in
  /// heading. The localizer is NOT told — recovering is its problem.
  struct KidnapSpec {
    double t{0.0};
    double advance_frac{0.5};
    double lateral_m{0.0};
    double yaw{0.0};
  };
  std::vector<KidnapSpec> kidnaps{};
  /// Divergence-episode bookkeeping on the true-pose estimate error:
  /// an episode opens after `divergence_dwell` consecutive scans with
  /// error > `divergence_open_m` and closes after the same dwell below
  /// `divergence_close_m` (hysteresis so the boundary cannot chatter).
  double divergence_open_m = 1.0;
  double divergence_close_m = 0.5;
  int divergence_dwell = 2;
  /// Settling time after an episode closes before lateral samples count as
  /// "post-recovery" (the controller needs a moment to rejoin the line).
  double recovery_settle_s = 1.0;
  VehicleParams vehicle{};   ///< mu is overridden by `mu`
  LidarConfig lidar{};
  LidarNoise lidar_noise{};
  WheelOdometryNoise odom_noise{};
  SpeedProfileParams profile{};
  PurePursuitParams pursuit{};
  /// Optional race line override (e.g. from track/raceline_optimizer.hpp);
  /// when empty, the track centerline is raced. Lateral error is measured
  /// against whichever line is driven — the paper's "ideal race line".
  std::vector<Vec2> raceline_override{};
};

struct ExperimentResult {
  std::vector<double> lap_times;            ///< s, per timed lap
  std::vector<double> lap_lateral_mean_cm;  ///< per-lap mean |lateral error|
  double lap_time_mean{0.0};
  double lap_time_std{0.0};
  double lateral_mean_cm{0.0};   ///< mean of per-lap means (paper's mu)
  double lateral_std_cm{0.0};    ///< std across per-lap means (paper's sigma)
  double scan_alignment{0.0};    ///< %, averaged over timed-lap scans
  double load_percent{0.0};      ///< localizer busy / simulated time * 100
  double mean_update_ms{0.0};    ///< mean localizer scan-update latency
  /// Scan-update latency distribution, timed around every on_scan call by
  /// the harness (telemetry::Histogram percentiles) — how Table-I latency
  /// is reported now, instead of the mean alone.
  double update_p50_ms{0.0};
  double update_p95_ms{0.0};
  double update_p99_ms{0.0};
  double update_max_ms{0.0};
  double pose_rmse_m{0.0};       ///< true-vs-estimated position RMSE
  double pose_lat_rmse_m{0.0};   ///< component normal to the race line
  double pose_long_rmse_m{0.0};  ///< component along the race line
  double heading_rmse_rad{0.0};  ///< heading estimate error
  double mean_abs_slip{0.0};     ///< m/s, mean |wheel slip| (diagnostic)
  double odom_drift_m_per_lap{0.0};  ///< dead-reckoning drift (diagnostic)
  bool crashed{false};
  double sim_time{0.0};
  bool completed{false};  ///< all requested laps finished without crash

  // Divergence/recovery bookkeeping (kidnap & blackout scenarios).
  int kidnaps_applied{0};
  int divergence_episodes{0};  ///< episodes opened (error hysteresis)
  int recoveries{0};           ///< episodes closed again
  std::vector<double> time_to_relocalize_s;  ///< per closed episode
  double time_to_relocalize_mean_s{0.0};
  double time_to_relocalize_max_s{0.0};
  /// Mean |lateral| over control ticks after the first episode opened
  /// (what the divergence cost, recovered or not).
  double post_divergence_lateral_cm{0.0};
  /// Mean |lateral| over control ticks once every episode has closed and
  /// `recovery_settle_s` has passed (how clean the recovered line is).
  double post_recovery_lateral_cm{0.0};
  double final_pose_error_m{0.0};  ///< estimate error at the last scan
  /// No crash and every divergence episode closed (vacuously true when no
  /// episode ever opened).
  bool recovered{true};
};

class ExperimentRunner {
 public:
  ExperimentRunner(const Track& track, ExperimentConfig config);

  /// Race `localizer` through the configured laps. The localizer must have
  /// been built over this track's map. If `record` is non-null, every
  /// odometry increment and scan (with ground truth) is captured for
  /// later open-loop replay (eval/trace.hpp). A non-empty telemetry `sink`
  /// is attached to the localizer (per-stage histograms, health gauges,
  /// spans); update-latency percentiles are filled into the result either
  /// way.
  ExperimentResult run(Localizer& localizer, SensorTrace* record = nullptr,
                       telemetry::Sink sink = {});

  /// Start pose used for every run (on the race line, facing forward).
  Pose2 start_pose() const;
  const Raceline& raceline() const { return raceline_; }

 private:
  ExperimentConfig config_;
  Raceline raceline_;
  SpeedProfile profile_;
  ScanAlignmentScorer alignment_;  ///< also the crash check's wall field
  std::shared_ptr<const RangeMethod> truth_caster_;
};

}  // namespace srl
