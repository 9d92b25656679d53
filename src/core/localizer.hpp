#pragma once

/// \file localizer.hpp
/// \brief The localizer interface shared by SynPF and the CartoLite
/// pure-localization baseline — the two systems Table I compares. A
/// localizer consumes proprioception (odometry increments) at high rate and
/// exteroception (LiDAR scans) at scan rate, and maintains a pose estimate.

#include <string>

#include "common/types.hpp"
#include "motion/motion_model.hpp"
#include "sensor/lidar.hpp"
#include "telemetry/telemetry.hpp"

namespace srl {

class Localizer {
 public:
  virtual ~Localizer() = default;

  /// (Re)initialize at a known pose (e.g. the starting grid).
  virtual void initialize(const Pose2& pose) = 0;

  /// Feed one wheel-odometry increment (called at odometry rate).
  virtual void on_odometry(const OdometryDelta& odom) = 0;

  /// Feed one LiDAR revolution; returns the refreshed pose estimate.
  virtual Pose2 on_scan(const LaserScan& scan) = 0;

  /// Current best pose estimate (valid between scans too: odometry-propagated).
  virtual Pose2 pose() const = 0;

  virtual std::string name() const = 0;

  /// Mean wall-clock cost of one on_scan call, ms (the latency metric).
  virtual double mean_scan_update_ms() const = 0;
  /// Total busy seconds across all updates (for the CPU-load column).
  virtual double total_busy_s() const = 0;

  /// Attach a telemetry sink (metrics registry and/or trace buffer); an
  /// implementation that overrides this records per-stage latency
  /// histograms, spans, and health gauges into it. Either pointer may be
  /// null; the default implementation ignores the sink entirely.
  virtual void set_telemetry(const telemetry::Sink& sink) { (void)sink; }
};

/// Base of the localizer decorators (fault injection, supervision, the
/// compute governor): holds the wrapped localizer and forwards every call
/// to it, so a decorator overrides only the calls it changes.
class LocalizerDecorator : public Localizer {
 public:
  /// `inner` is not owned and must outlive the decorator.
  explicit LocalizerDecorator(Localizer& inner) : inner_{inner} {}

  void initialize(const Pose2& pose) override { inner_.initialize(pose); }
  void on_odometry(const OdometryDelta& odom) override {
    inner_.on_odometry(odom);
  }
  Pose2 on_scan(const LaserScan& scan) override { return inner_.on_scan(scan); }
  Pose2 pose() const override { return inner_.pose(); }
  std::string name() const override { return inner_.name(); }
  double mean_scan_update_ms() const override {
    return inner_.mean_scan_update_ms();
  }
  double total_busy_s() const override { return inner_.total_busy_s(); }
  void set_telemetry(const telemetry::Sink& sink) override {
    inner_.set_telemetry(sink);
  }

 protected:
  Localizer& inner_;
};

}  // namespace srl
