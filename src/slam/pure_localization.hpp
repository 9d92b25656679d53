#pragma once

/// \file pure_localization.hpp
/// \brief CartoLite pure-localization mode — the Cartographer baseline of
/// Table I, mirroring how cartographer_ros localizes against a frozen map:
///
///  - **local SLAM runs in full**: every scan is matched (seed-anchored
///    Gauss-Newton, odometry-extrapolated seed) against a *live submap*
///    built from the system's own recent scans, and inserted into it;
///  - **global corrections are sparse**: only at constraint-search cadence
///    (every `global_period` scans, mimicking the pose-graph optimization
///    period) is the current scan matched against the frozen prior map, and
///    the resulting constraint snaps the trajectory and the live submap
///    rigidly back onto the map.
///
/// This two-tier structure is what makes Cartographer odometry-sensitive:
/// between global fixes the estimate rides on odometry + local matching
/// (whose submap itself drifts with the corrupted poses), so wheel slip
/// accumulates into a sawtooth error that the periodic optimization only
/// partially removes. With clean odometry the same structure is extremely
/// precise — exactly the HQ/LQ asymmetry of Table I.

#include <deque>
#include <memory>
#include <vector>

#include "common/timer.hpp"
#include "core/localizer.hpp"
#include "slam/probability_grid.hpp"
#include "slam/scan_matching.hpp"
#include "slam/submap.hpp"

namespace srl {

struct PureLocalizationOptions {
  GaussNewtonOptions gn{};            ///< local matcher (seed-anchored)
  /// Online correlative matcher in front of the local GN (Cartographer's
  /// use_online_correlative_scan_matching, commonly enabled for racing):
  /// small window around the odometry seed, covers yaw transients that the
  /// gradient matcher's basin cannot.
  CorrelativeOptions local_csm{
      .linear_window = 0.06,
      .angular_window = 0.10,
      .linear_step = 0.03,
      .angular_step = 0.02,
      .min_score = 0.10};
  CorrelativeOptions global_csm{      ///< global constraint search window
      .linear_window = 0.35,
      .angular_window = 0.1,
      .linear_step = 0.05,
      .angular_step = 0.02,
      .min_score = 0.45};
  /// Wide relocalization search (Cartographer's loop-closure-scale window)
  /// used after `reloc_after_failures` consecutive failed constraint
  /// searches.
  CorrelativeOptions reloc_csm{
      .linear_window = 1.2,
      .angular_window = 0.25,
      .linear_step = 0.06,
      .angular_step = 0.025,
      .min_score = 0.50};
  int reloc_after_failures = 2;
  int points_stride = 7;              ///< scan subsampling for matching
  double likelihood_sigma = 0.15;     ///< m, prior-map field smoothing
  int scans_per_submap = 40;          ///< live-submap span
  /// Submap side length: must cover sensor range + travel during the
  /// submap's life (12 m + ~5 m + slack, each way), or hits beyond the
  /// border are dropped and the matcher drifts toward the mapped interior.
  double submap_extent = 36.0;        ///< m
  double submap_resolution = 0.05;    ///< m
  /// Constraint-search / optimization cadence in scans (40 Hz LiDAR:
  /// 24 scans ~ 0.6 s, Cartographer-like backend latency).
  int global_period = 24;
  /// Pose pipeline latency (s): a scan's correction becomes visible on the
  /// published pose only this long after the scan fired (at the first
  /// odometry message at or past that time); until then the published pose
  /// is extrapolated with raw odometry. Models the
  /// cartographer_ros matching + TF pipeline delay that the paper's SynPF
  /// (1.25 ms updates) is designed to avoid. On clean odometry the delay is
  /// invisible; under wheel slip the controller acts on err_rate * latency
  /// of stale dead reckoning.
  double output_latency = 0.15;
};

class CartoLocalizer final : public Localizer {
 public:
  CartoLocalizer(PureLocalizationOptions options,
                 std::shared_ptr<const OccupancyGrid> map, LidarConfig lidar);

  void initialize(const Pose2& pose) override;
  void on_odometry(const OdometryDelta& odom) override;
  Pose2 on_scan(const LaserScan& scan) override;
  /// Published (latency-delayed) pose: the newest correction older than
  /// `output_latency`, dead-reckoned forward with raw odometry.
  Pose2 pose() const override {
    return (published_base_ * published_accum_).normalized();
  }
  std::string name() const override { return "Cartographer"; }
  double mean_scan_update_ms() const override { return load_.mean_ms(); }
  double total_busy_s() const override { return load_.busy_s(); }
  /// Attach metrics/tracing: per-stage histograms (carto.update_ms,
  /// carto.local_match_ms, carto.insert_ms, carto.global_ms), spans, and
  /// counters for global fixes / relocalization searches / failed
  /// constraint searches.
  void set_telemetry(const telemetry::Sink& sink) override;

  const ProbabilityGrid& field() const { return *field_; }
  long global_fixes() const { return global_fixes_; }

 private:
  void global_correction(const std::vector<Vec2>& points);

  PureLocalizationOptions options_;
  LidarConfig lidar_;
  std::vector<Vec2> beam_dirs_;  ///< beam_directions(lidar_), for deskewing
  /// Likelihood field of the frozen prior map (shared through MapAssets).
  std::shared_ptr<const ProbabilityGrid> field_;
  GaussNewtonMatcher local_gn_;
  GaussNewtonMatcher global_gn_;
  CorrelativeScanMatcher local_csm_;
  CorrelativeScanMatcher global_csm_;
  CorrelativeScanMatcher reloc_csm_;
  int failed_global_{0};  ///< consecutive failed constraint searches

  std::unique_ptr<Submap> live_;  ///< submap under construction
  Pose2 pose_{};         ///< internal (pipeline) estimate
  Twist2 odom_twist_{};  ///< latest odometry twist, used to deskew scans
  int scan_counter_{0};

  /// Output-latency model: corrections queue until their effective time.
  struct PendingOutput {
    double effective_t;
    Pose2 internal_pose;  ///< estimate at the scan that produced it
    Pose2 odom_accum;     ///< odometry composed since that scan
  };
  std::deque<PendingOutput> pending_;
  Pose2 published_base_{};   ///< last applied correction
  Pose2 published_accum_{};  ///< odometry composed since it
  double clock_{0.0};        ///< internal time, advanced by odometry dts
  long global_fixes_{0};
  LoadAccumulator load_;

  telemetry::Sink sink_{};
  telemetry::Histogram* h_update_{nullptr};
  telemetry::Histogram* h_local_match_{nullptr};
  telemetry::Histogram* h_insert_{nullptr};
  telemetry::Histogram* h_global_{nullptr};
  telemetry::Counter* c_global_fixes_{nullptr};
  telemetry::Counter* c_global_failures_{nullptr};
  telemetry::Counter* c_relocs_{nullptr};
};

}  // namespace srl
