#include "fault/faulted_localizer.hpp"

#include <algorithm>

namespace srl::fault {

void FaultedLocalizer::on_odometry(const OdometryDelta& odom) {
  OdometryDelta corrupted = odom;
  const FaultEvent event{odom_index_, odom_clock_};
  pipeline_.corrupt_odometry(event, corrupted);
  ++odom_index_;
  odom_clock_ += odom.dt;
  inner_.on_odometry(corrupted);
}

Pose2 FaultedLocalizer::on_scan(const LaserScan& scan) {
  if (!seen_scan_) {
    first_scan_t_ = scan.t;
    seen_scan_ = true;
  }
  LaserScan corrupted = scan;
  const FaultEvent event{scan_index_, scan.t - first_scan_t_};
  pipeline_.corrupt_scan(event, corrupted);
  ++scan_index_;
  journal_envelopes(scan.t, event.t);
  return inner_.on_scan(corrupted);
}

void FaultedLocalizer::set_telemetry(const telemetry::Sink& sink) {
  events_ = sink.events;
  inner_.set_telemetry(sink);
}

void FaultedLocalizer::journal_envelopes(double scan_t, double stream_t) {
  // Poll every stage's envelope at the scan boundary; journal rising and
  // falling edges. The poll reads config-derived profiles only — no stream
  // state advances — so running it (or not) is estimate-invariant.
  stage_active_.resize(pipeline_.size(), false);
  double level = 0.0;
  for (std::size_t i = 0; i < pipeline_.size(); ++i) {
    const Injector& stage = pipeline_.stage(i);
    const double strength = stage.strength_at(stream_t);
    level = std::max(level, strength);
    const bool active = strength > 0.0;
    if (active == static_cast<bool>(stage_active_[i])) continue;
    stage_active_[i] = active;
    if (events_ == nullptr) continue;
    json::Value data = json::Value::object();
    data.set("fault", json::Value::string(stage.name()));
    data.set("stage", json::Value::number(static_cast<double>(i)));
    data.set("strength", json::Value::number(strength));
    data.set("stream_t", json::Value::number(stream_t));
    events_->emit(scan_t,
                  active ? telemetry::EventSeverity::kWarn
                         : telemetry::EventSeverity::kInfo,
                  telemetry::EventCategory::kFault,
                  active ? "fault.active" : "fault.cleared", std::move(data));
  }
  fault_level_ = level;
}

}  // namespace srl::fault
