#include "telemetry/trace_buffer.hpp"

#include <atomic>
#include <fstream>

#include "telemetry/metrics.hpp"

namespace srl::telemetry {

namespace {

/// Per-thread span nesting depth. Only ScopedSpans with a non-null buffer
/// contribute, so disabled tracing leaves it untouched.
thread_local std::uint32_t t_span_depth = 0;

}  // namespace

TraceBuffer::TraceBuffer(std::size_t capacity)
    : epoch_{std::chrono::steady_clock::now()},
      capacity_{std::max<std::size_t>(capacity, 1)} {}

double TraceBuffer::now_us() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

void TraceBuffer::add(const char* name, double ts_us, double dur_us,
                      std::uint32_t tid, std::uint32_t depth) {
  std::lock_guard lock{mutex_};
  if (events_.size() >= capacity_) {
    ++dropped_;
    if (dropped_counter_ != nullptr) dropped_counter_->add();
    return;
  }
  events_.emplace_back(name, ts_us, dur_us, tid, depth);
}

void TraceBuffer::set_dropped_counter(Counter* counter) {
  std::lock_guard lock{mutex_};
  dropped_counter_ = counter;
}

std::vector<TraceEvent> TraceBuffer::events() const {
  std::lock_guard lock{mutex_};
  return events_;
}

std::size_t TraceBuffer::size() const {
  std::lock_guard lock{mutex_};
  return events_.size();
}

std::uint64_t TraceBuffer::dropped() const {
  std::lock_guard lock{mutex_};
  return dropped_;
}

void TraceBuffer::clear() {
  std::lock_guard lock{mutex_};
  events_.clear();
  dropped_ = 0;
}

std::uint32_t TraceBuffer::this_thread_id() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t id =
      next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

bool TraceBuffer::write_chrome_trace(const std::string& path) const {
  std::ofstream out{path};
  if (!out) return false;
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  // Span names are code identifiers (no quotes/backslashes), so no JSON
  // string escaping is needed beyond trusting them; keep the output dumb.
  for (const TraceEvent& e : events()) {
    if (!first) out << ",";
    first = false;
    out << "{\"name\":\"" << e.name << "\",\"cat\":\"srl\",\"ph\":\"X\""
        << ",\"ts\":" << e.ts_us << ",\"dur\":" << e.dur_us
        << ",\"pid\":0,\"tid\":" << e.tid << ",\"args\":{\"depth\":" << e.depth
        << "}}";
  }
  out << "],\"otherData\":{\"dropped_spans\":" << dropped() << "}}\n";
  return static_cast<bool>(out);
}

ScopedSpan::ScopedSpan(TraceBuffer* buffer, const char* name)
    : buffer_{buffer}, name_{name} {
  if (buffer_ == nullptr) return;
  depth_ = t_span_depth++;
  start_us_ = buffer_->now_us();
}

ScopedSpan::~ScopedSpan() {
  if (buffer_ == nullptr) return;
  const double end_us = buffer_->now_us();
  --t_span_depth;
  buffer_->add(name_, start_us_, end_us - start_us_,
               TraceBuffer::this_thread_id(), depth_);
}

}  // namespace srl::telemetry
