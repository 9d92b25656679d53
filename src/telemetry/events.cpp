#include "telemetry/events.hpp"

#include <algorithm>
#include <fstream>

namespace srl::telemetry {

const char* to_string(EventSeverity severity) {
  switch (severity) {
    case EventSeverity::kDebug: return "debug";
    case EventSeverity::kInfo: return "info";
    case EventSeverity::kWarn: return "warn";
    case EventSeverity::kError: return "error";
    case EventSeverity::kCritical: return "critical";
  }
  return "unknown";
}

const char* to_string(EventCategory category) {
  switch (category) {
    case EventCategory::kFilter: return "filter";
    case EventCategory::kFault: return "fault";
    case EventCategory::kRecovery: return "recovery";
    case EventCategory::kExperiment: return "experiment";
    case EventCategory::kContract: return "contract";
  }
  return "unknown";
}

namespace {

std::optional<EventSeverity> severity_from_string(const std::string& s) {
  for (const EventSeverity sev :
       {EventSeverity::kDebug, EventSeverity::kInfo, EventSeverity::kWarn,
        EventSeverity::kError, EventSeverity::kCritical}) {
    if (s == to_string(sev)) return sev;
  }
  return std::nullopt;
}

std::optional<EventCategory> category_from_string(const std::string& s) {
  for (const EventCategory cat :
       {EventCategory::kFilter, EventCategory::kFault, EventCategory::kRecovery,
        EventCategory::kExperiment, EventCategory::kContract}) {
    if (s == to_string(cat)) return cat;
  }
  return std::nullopt;
}

}  // namespace

json::Value event_to_json(const Event& event) {
  json::Value v = json::Value::object();
  v.set("seq", json::Value::number(static_cast<double>(event.seq)));
  v.set("t", json::Value::number(event.t));
  v.set("severity", json::Value::string(to_string(event.severity)));
  v.set("category", json::Value::string(to_string(event.category)));
  v.set("code", json::Value::string(event.code));
  if (event.data.is_object() && event.data.size() > 0) {
    v.set("data", event.data);
  }
  return v;
}

std::optional<Event> event_from_json(const json::Value& v,
                                     std::string* error) {
  const auto fail = [error](const std::string& why) {
    if (error != nullptr) *error = why;
    return std::nullopt;
  };
  if (!v.is_object()) return fail("not an object");
  const json::Value* code = v.find("code");
  const json::Value* sev = v.find("severity");
  const json::Value* cat = v.find("category");
  if (code == nullptr || !code->is_string() || sev == nullptr ||
      cat == nullptr) {
    return fail("code, severity or category missing");
  }
  const std::optional<EventSeverity> severity =
      severity_from_string(sev->as_string());
  const std::optional<EventCategory> category =
      category_from_string(cat->as_string());
  if (!severity.has_value() || !category.has_value()) {
    return fail("unknown severity or category");
  }

  Event event;
  std::string why;
  if (!json::read_uint(v, "seq", event.seq, why)) return fail(why);
  if (const json::Value* t = v.find("t"); t != nullptr) {
    event.t = t->as_double();
  }
  event.severity = *severity;
  event.category = *category;
  event.code = code->as_string();
  if (const json::Value* data = v.find("data");
      data != nullptr && data->is_object()) {
    event.data = *data;
  } else {
    event.data = json::Value::object();
  }
  return event;
}

EventLog::EventLog(std::size_t capacity)
    : capacity_{std::max<std::size_t>(capacity, 1)} {}

void EventLog::emit(double t, EventSeverity severity, EventCategory category,
                    std::string code, json::Value data) {
  std::lock_guard lock{mutex_};
  ++by_severity_[static_cast<std::size_t>(severity)];
  const std::uint64_t seq = next_seq_++;
  if (events_.size() >= capacity_) {
    ++dropped_;
    if (dropped_counter_ != nullptr) dropped_counter_->add();
    return;
  }
  Event event;
  event.seq = seq;
  event.t = t;
  event.severity = severity;
  event.category = category;
  event.code = std::move(code);
  event.data = std::move(data);
  events_.push_back(std::move(event));
}

std::vector<Event> EventLog::events() const {
  std::lock_guard lock{mutex_};
  return events_;
}

std::size_t EventLog::size() const {
  std::lock_guard lock{mutex_};
  return events_.size();
}

std::uint64_t EventLog::total() const {
  std::lock_guard lock{mutex_};
  return next_seq_;
}

std::uint64_t EventLog::dropped() const {
  std::lock_guard lock{mutex_};
  return dropped_;
}

std::uint64_t EventLog::count(EventSeverity severity) const {
  std::lock_guard lock{mutex_};
  return by_severity_[static_cast<std::size_t>(severity)];
}

void EventLog::clear() {
  std::lock_guard lock{mutex_};
  events_.clear();
  next_seq_ = 0;
  dropped_ = 0;
  by_severity_.fill(0);
}

void EventLog::set_dropped_counter(Counter* counter) {
  std::lock_guard lock{mutex_};
  dropped_counter_ = counter;
}

bool EventLog::write_ndjson(const std::string& path) const {
  std::ofstream out{path};
  if (!out) return false;
  for (const Event& event : events()) {
    out << event_to_json(event).dump(0) << '\n';
  }
  return static_cast<bool>(out);
}

std::optional<std::vector<Event>> EventLog::load_ndjson(
    const std::string& path) {
  const std::optional<std::vector<json::Value>> docs = json::load_ndjson(path);
  if (!docs.has_value()) return std::nullopt;
  std::vector<Event> events;
  events.reserve(docs->size());
  for (const json::Value& doc : *docs) {
    std::optional<Event> event = event_from_json(doc);
    if (!event.has_value()) return std::nullopt;
    events.push_back(std::move(*event));
  }
  return events;
}

}  // namespace srl::telemetry
