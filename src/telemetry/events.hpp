#pragma once

/// \file events.hpp
/// \brief Structured event journal — the discrete counterpart of the
/// continuous metrics/trace telemetry.
///
/// Metrics answer "how is the filter doing on average"; the journal answers
/// "what exactly happened, in what order, in the seconds before it went
/// wrong". Every instrumented layer emits severity/category-tagged events
/// at its own decision points (resamples, fault envelope edges, detector
/// transitions, recovery actions, kidnaps, crashes, contract violations),
/// and the `FlightRecorder` snapshots the journal into every black-box dump
/// so a failed run carries its own timeline.
///
/// Determinism contract (same as the rest of the telemetry layer): emitting
/// an event never draws RNG, never touches filter state, and happens only
/// on the serial sections of the update path — a null `EventLog*` in the
/// `Sink` is a bitwise no-op and an attached one is thread-count invariant.
///
/// The log is a bounded ring-less buffer: the first `capacity` events are
/// kept verbatim (a postmortem wants the *beginning* of the causal chain,
/// and runs are short), later ones are counted in `dropped()` — surfaced
/// through the `telemetry.dropped_events` registry counter like the trace
/// buffer's dropped spans. Serialization is NDJSON built on `common/json`.

#include <array>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "telemetry/metrics.hpp"

namespace srl::telemetry {

enum class EventSeverity : int {
  kDebug = 0,
  kInfo = 1,
  kWarn = 2,
  kError = 3,
  kCritical = 4,
};

enum class EventCategory : int {
  kFilter = 0,      ///< particle-filter internals (resample, injection)
  kFault = 1,       ///< fault-pipeline envelope edges
  kRecovery = 2,    ///< detector transitions + recovery-ladder actions
  kExperiment = 3,  ///< harness-level: kidnap, episode open/close, crash
  kContract = 4,    ///< contract violations (no emitter in the library)
};

const char* to_string(EventSeverity severity);
const char* to_string(EventCategory category);

/// One journal entry. `seq` is the emission index (including later-dropped
/// events, so gaps are visible), `t` is sim/stream time in seconds — never
/// wall clock, so two deterministic runs journal identical timelines.
struct Event {
  std::uint64_t seq{0};
  double t{0.0};
  EventSeverity severity{EventSeverity::kInfo};
  EventCategory category{EventCategory::kExperiment};
  std::string code;   ///< dotted identifier, e.g. "recovery.to_diverged"
  json::Value data;   ///< structured payload (object; may be empty)
};

json::Value event_to_json(const Event& event);
/// Parse an entry written by `event_to_json`; nullopt, with `*error` (when
/// given) saying why, when the code, severity or category is missing or
/// unknown, or `seq` is not a whole number.
std::optional<Event> event_from_json(const json::Value& v,
                                     std::string* error = nullptr);

class EventLog {
 public:
  explicit EventLog(std::size_t capacity = 4096);

  /// Append one event (thread-safe). Severity tallies count every emission;
  /// the stored buffer stops growing at `capacity` and overflow goes to
  /// `dropped()` (and the registry counter when attached).
  void emit(double t, EventSeverity severity, EventCategory category,
            std::string code, json::Value data = json::Value::object());

  std::vector<Event> events() const;  ///< snapshot copy, emission order
  std::size_t size() const;
  std::uint64_t total() const;    ///< all emissions, kept + dropped
  std::uint64_t dropped() const;
  /// Emissions at exactly `severity` (kept + dropped).
  std::uint64_t count(EventSeverity severity) const;
  std::uint64_t critical_count() const { return count(EventSeverity::kCritical); }
  void clear();

  /// Mirror overflow into a registry counter (telemetry.dropped_events).
  void set_dropped_counter(Counter* counter);

  /// Append every held event to an NDJSON file (one line per event).
  bool write_ndjson(const std::string& path) const;
  /// Strict NDJSON load (any malformed line fails the whole read).
  static std::optional<std::vector<Event>> load_ndjson(const std::string& path);

 private:
  mutable std::mutex mutex_;
  std::size_t capacity_;
  std::uint64_t next_seq_{0};
  std::uint64_t dropped_{0};
  std::array<std::uint64_t, 5> by_severity_{};
  std::vector<Event> events_;
  Counter* dropped_counter_{nullptr};
};

}  // namespace srl::telemetry
