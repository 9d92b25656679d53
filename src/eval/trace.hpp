#pragma once

/// \file trace.hpp
/// \brief Sensor trace recording and replay — the rosbag workflow.
///
/// A `SensorTrace` captures the exact stream a localizer consumes (odometry
/// increments + LiDAR scans) together with the ground-truth pose at each
/// scan. Recorded once (e.g. by `ExperimentRunner::run`), it can be
/// replayed into any number of localizers, which makes comparisons
/// *open-loop*: every candidate sees byte-identical sensor data instead of
/// driving its own (slightly different) lap. Traces serialize to a simple
/// binary container for offline experiments.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/localizer.hpp"
#include "motion/motion_model.hpp"
#include "sensor/lidar.hpp"
#include "telemetry/telemetry.hpp"

namespace srl {

/// The scan update that `ExperimentRunner::run` and `SensorTrace::replay`
/// share, so a black box replays through the code that recorded it. Each
/// call runs `on_scan` under one `localize.on_scan` span, times it into
/// `update_ms`, and records the flight recorder's tick (ordinal, scan time,
/// estimate, truth error).
struct LocalizeStep {
  Localizer& localizer;
  telemetry::Sink sink;
  telemetry::Histogram update_ms{};
  std::uint64_t ticks{0};
  double truth_err_m{0.0};  ///< last estimate's position error vs its truth

  /// The refreshed estimate.
  Pose2 operator()(const LaserScan& scan, const Pose2& truth);
};

class SensorTrace {
 public:
  struct ScanRecord {
    LaserScan scan;
    Pose2 truth;  ///< ground-truth body pose at scan end
  };
  struct OdomRecord {
    double t;
    OdometryDelta odom;
  };

  void add_odometry(double t, const OdometryDelta& odom) {
    odometry_.push_back({t, odom});
  }
  void add_scan(const LaserScan& scan, const Pose2& truth) {
    scans_.push_back({scan, truth});
  }

  const std::vector<OdomRecord>& odometry() const { return odometry_; }
  const std::vector<ScanRecord>& scans() const { return scans_; }
  bool empty() const { return odometry_.empty() && scans_.empty(); }
  double duration() const;

  /// Result of replaying the trace into one localizer.
  struct ReplayResult {
    std::vector<Pose2> estimates;  ///< localizer pose at each scan
    double pose_rmse_m{0.0};       ///< vs the recorded ground truth
    double heading_rmse_rad{0.0};
    double mean_update_ms{0.0};    ///< localizer-reported mean (back-compat)
    /// Update-latency distribution, measured around every on_scan call by
    /// the localize step (telemetry::Histogram percentiles).
    double p50_update_ms{0.0};
    double p95_update_ms{0.0};
    double p99_update_ms{0.0};
    double max_update_ms{0.0};
  };

  /// Feed the stream into `localizer` as the closed loop delivered it (all
  /// odometry with t <= scan.t before each scan) and score it against the
  /// recorded truth. The localizer starts at `start` when given (a black
  /// box's recorded start pose: the closed loop never told the localizer
  /// the truth), else at the first recorded truth pose. When `sink` is
  /// non-empty it is attached to the localizer (per-stage histograms,
  /// health gauges), and the localize step spans each scan update and
  /// feeds a flight recorder in it every estimate.
  ReplayResult replay(Localizer& localizer, telemetry::Sink sink = {},
                      std::optional<Pose2> start = std::nullopt) const;

  /// Binary container I/O ("SRLT" magic + version). Returns false / nullopt
  /// on I/O or format errors.
  bool save(const std::string& path) const;
  static std::optional<SensorTrace> load(const std::string& path);

 private:
  std::vector<OdomRecord> odometry_;
  std::vector<ScanRecord> scans_;
};

}  // namespace srl
