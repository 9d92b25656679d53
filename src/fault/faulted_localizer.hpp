#pragma once

/// \file faulted_localizer.hpp
/// \brief Decorator that corrupts a localizer's sensor diet in flight —
/// fault injection for *closed-loop* experiments.
///
/// `ExperimentRunner::run` races whatever `Localizer` it is handed; wrapping
/// the candidate in a `FaultedLocalizer` slots a `FaultPipeline` between the
/// simulated sensors and the filter without the runner or the filter
/// noticing. The controller then steers from the estimate produced under
/// degraded data, so lateral error measures the *system-level* consequence
/// of the fault — the paper's robustness experiment, generalized from grip
/// alone to the whole fault taxonomy.
///
/// Event bookkeeping: odometry and scan indices count from construction,
/// and event time is seconds since the first event (odometry time is the
/// accumulated sum of increment dts; scans use their own timestamps).
/// `initialize` deliberately does NOT rewind the stream: it sets the pose
/// belief, and a supervision layer (recovery/supervised_localizer.hpp) may
/// call it mid-run to relocalize a lost filter — faults are scheduled on
/// the scenario clock, so a recovery action must not replay a blackout
/// window or restart a slip ramp. An empty pipeline makes the wrapper a
/// bitwise pass-through.

#include <string>
#include <vector>

#include "core/localizer.hpp"
#include "fault/pipeline.hpp"

namespace srl::fault {

class FaultedLocalizer final : public LocalizerDecorator {
 public:
  /// Neither pointer-like argument is owned; both must outlive the wrapper.
  FaultedLocalizer(Localizer& inner, const FaultPipeline& pipeline)
      : LocalizerDecorator{inner}, pipeline_{pipeline} {}

  void on_odometry(const OdometryDelta& odom) override;
  Pose2 on_scan(const LaserScan& scan) override;
  std::string name() const override {
    return inner_.name() + "+" + pipeline_.describe();
  }
  /// Forwards the sink to the wrapped localizer and keeps the event-log
  /// pointer locally: the wrapper journals fault-envelope edges
  /// (`fault.active` / `fault.cleared`) at scan boundaries. Event emission
  /// never touches the corruption math, so an attached sink cannot change
  /// any estimate.
  void set_telemetry(const telemetry::Sink& sink) override;

  /// Strongest per-stage envelope strength observed at the last scan
  /// boundary (0 while every stage is dormant). Flight-recorder probe.
  double last_fault_level() const { return fault_level_; }

 private:
  void journal_envelopes(double scan_t, double stream_t);

  const FaultPipeline& pipeline_;
  std::uint64_t odom_index_{0};
  std::uint64_t scan_index_{0};
  double odom_clock_{0.0};  ///< accumulated odometry time since construction
  double first_scan_t_{0.0};
  bool seen_scan_{false};

  telemetry::EventLog* events_{nullptr};
  std::vector<bool> stage_active_;  ///< envelope > 0 at the last boundary
  double fault_level_{0.0};
};

}  // namespace srl::fault
