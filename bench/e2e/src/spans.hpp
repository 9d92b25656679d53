#pragma once

/// \file spans.hpp
/// \brief In-memory span recorder for the traced benchmark run.
///
/// The benchmark times calls into each module from its own code only: every
/// harness call of the mirrored tick loop, every decorator layer (through
/// pass-through shims) and every set-up constructor gets a span. A span's
/// self time is its duration minus the time of the spans nested inside it,
/// so the self times of one operation plus `harness.unattributed` sum to the
/// operation's wall time. Spans are aggregated per name while the run is
/// timed (count, total, self, and every duration for exact percentiles) and
/// written out only after it ends. One Tracer belongs to one thread.

#include <chrono>
#include <cstddef>
#include <string>
#include <vector>

namespace e2e {

/// Every span the benchmark records. Names are module-qualified so the
/// per-layer table groups by the repo's module layout.
enum class Span : int {
  kSetupTrack,
  kSetupSynpfCtor,
  kSetupCartoCtor,
  kSetupRunnerCtor,
  kSetupSupervisorCtor,
  kSetupTraceRecord,
  kVehicleStep,
  kVehicleKidnap,
  kVehicleOdometry,
  kSensorTruthScan,
  kEvalCrashCheck,
  kEvalAlignment,
  kTrackProject,
  kTrackLapTimer,
  kControlPursuit,
  kGovernorOnScan,
  kGovernorOnOdometry,
  kRecoveryOnScan,
  kRecoveryOnOdometry,
  kFaultOnScan,
  kFaultOnOdometry,
  kCoreOnScan,
  kCoreOnOdometry,
  kSlamOnScan,
  kSlamOnOdometry,
  kGenWait,
  kCount
};

inline constexpr int kSpanCount = static_cast<int>(Span::kCount);

/// "setup.track", "vehicle.step", ... (module.call).
const char* span_name(Span span);

struct SpanStats {
  long calls{0};
  double self_s{0.0};
  std::vector<float> dur_us;  ///< every call's duration, for percentiles
};

class Tracer {
 public:
  using Clock = std::chrono::steady_clock;

  void begin(Span span) {
    stack_.push_back(Frame{span, Clock::now(), 0.0});
  }

  void end() {
    const Frame frame = stack_.back();
    stack_.pop_back();
    const double d =
        std::chrono::duration<double>(Clock::now() - frame.start).count();
    SpanStats& s = stats_[static_cast<std::size_t>(frame.span)];
    ++s.calls;
    s.self_s += d - frame.child_s;
    s.dur_us.push_back(static_cast<float>(d * 1e6));
    if (stack_.empty()) {
      top_level_s_ += d;
    } else {
      stack_.back().child_s += d;
    }
  }

  const SpanStats& stats(Span span) const {
    return stats_[static_cast<std::size_t>(span)];
  }
  /// Sum of the durations of spans opened with no enclosing span — equal
  /// to the sum of every span's self time.
  double top_level_s() const { return top_level_s_; }

  /// Fold another tracer's totals and samples into this one.
  void merge(const Tracer& other);

 private:
  struct Frame {
    Span span;
    Clock::time_point start;
    double child_s;
  };
  std::vector<SpanStats> stats_ = std::vector<SpanStats>(kSpanCount);
  std::vector<Frame> stack_;
  double top_level_s_{0.0};
};

/// RAII span; a null tracer makes it a no-op (the untraced path).
class Scope {
 public:
  Scope(Tracer* tracer, Span span) : tracer_{tracer} {
    if (tracer_ != nullptr) tracer_->begin(span);
  }
  ~Scope() {
    if (tracer_ != nullptr) tracer_->end();
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
};

}  // namespace e2e
