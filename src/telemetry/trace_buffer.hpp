#pragma once

/// \file trace_buffer.hpp
/// \brief RAII span tracing with Chrome-trace export.
///
/// `ScopedSpan` records one nested begin/end interval into a `TraceBuffer`;
/// the buffer serializes to the Chrome `chrome://tracing` / Perfetto JSON
/// format (`"ph":"X"` complete events). Span names must be string literals
/// (or otherwise outlive the buffer): only the pointer is stored so the hot
/// path never allocates. A null buffer makes `ScopedSpan` a no-op.

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace srl::telemetry {

class Counter;

struct TraceEvent {
  const char* name;     ///< string literal; not owned
  double ts_us;         ///< start, microseconds since the buffer epoch
  double dur_us;        ///< duration, microseconds
  std::uint32_t tid;    ///< dense per-process thread id
  std::uint32_t depth;  ///< nesting depth on that thread (0 = top level)
};

/// Bounded event store. Appends take a mutex (span *ends* are rare compared
/// to metric records: one per stage, not one per particle); once `capacity`
/// events are held further spans are counted in `dropped()` instead of
/// growing without bound.
class TraceBuffer {
 public:
  explicit TraceBuffer(std::size_t capacity = 1 << 20);

  /// Microseconds since this buffer was constructed (the trace epoch).
  double now_us() const;

  /// Record one completed span. Used by ScopedSpan; callable directly for
  /// events timed by other means.
  void add(const char* name, double ts_us, double dur_us, std::uint32_t tid,
           std::uint32_t depth);

  std::vector<TraceEvent> events() const;
  std::size_t size() const;
  std::uint64_t dropped() const;
  void clear();

  /// Mirror span overflow into a registry counter
  /// (telemetry.dropped_spans) so silent truncation shows up in metrics
  /// tables, not just in this buffer's own accessor.
  void set_dropped_counter(Counter* counter);

  /// Chrome trace JSON: {"traceEvents":[...],"displayTimeUnit":"ms"} plus
  /// an "otherData" footer carrying the dropped-span count.
  /// Loadable in chrome://tracing and ui.perfetto.dev.
  bool write_chrome_trace(const std::string& path) const;

  /// Dense id of the calling thread (assigned on first use).
  static std::uint32_t this_thread_id();

 private:
  std::chrono::steady_clock::time_point epoch_;
  std::size_t capacity_;
  mutable std::mutex mutex_;
  std::vector<TraceEvent> events_;
  std::uint64_t dropped_{0};
  Counter* dropped_counter_{nullptr};
};

/// RAII span: records [construction, destruction) into `buffer` under
/// `name`. Nesting depth is tracked per thread so exporters and tests can
/// reconstruct the call tree without relying on timestamps alone.
class ScopedSpan {
 public:
  ScopedSpan(TraceBuffer* buffer, const char* name);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  TraceBuffer* buffer_;
  const char* name_;
  double start_us_{0.0};
  std::uint32_t depth_{0};
};

}  // namespace srl::telemetry
