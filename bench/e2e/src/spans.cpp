#include "spans.hpp"

namespace e2e {

const char* span_name(Span span) {
  switch (span) {
    case Span::kSetupTrack: return "setup.track";
    case Span::kSetupSynpfCtor: return "setup.synpf_ctor";
    case Span::kSetupCartoCtor: return "setup.carto_ctor";
    case Span::kSetupRunnerCtor: return "setup.runner_ctor";
    case Span::kSetupSupervisorCtor: return "setup.supervisor_ctor";
    case Span::kSetupTraceRecord: return "setup.trace_record";
    case Span::kVehicleStep: return "vehicle.step";
    case Span::kVehicleKidnap: return "vehicle.kidnap";
    case Span::kVehicleOdometry: return "vehicle.odometry";
    case Span::kSensorTruthScan: return "sensor.truth_scan";
    case Span::kEvalCrashCheck: return "eval.crash_check";
    case Span::kEvalAlignment: return "eval.alignment";
    case Span::kTrackProject: return "track.project";
    case Span::kTrackLapTimer: return "track.lap_timer";
    case Span::kControlPursuit: return "control.pursuit";
    case Span::kGovernorOnScan: return "governor.on_scan";
    case Span::kGovernorOnOdometry: return "governor.on_odometry";
    case Span::kRecoveryOnScan: return "recovery.on_scan";
    case Span::kRecoveryOnOdometry: return "recovery.on_odometry";
    case Span::kFaultOnScan: return "fault.on_scan";
    case Span::kFaultOnOdometry: return "fault.on_odometry";
    case Span::kCoreOnScan: return "core.on_scan";
    case Span::kCoreOnOdometry: return "core.on_odometry";
    case Span::kSlamOnScan: return "slam.on_scan";
    case Span::kSlamOnOdometry: return "slam.on_odometry";
    case Span::kGenWait: return "gen.wait";
    case Span::kCount: break;
  }
  return "?";
}

void Tracer::merge(const Tracer& other) {
  for (int i = 0; i < kSpanCount; ++i) {
    SpanStats& a = stats_[static_cast<std::size_t>(i)];
    const SpanStats& b = other.stats_[static_cast<std::size_t>(i)];
    a.calls += b.calls;
    a.self_s += b.self_s;
    a.dur_us.insert(a.dur_us.end(), b.dur_us.begin(), b.dur_us.end());
  }
  top_level_s_ += other.top_level_s_;
}

}  // namespace e2e
