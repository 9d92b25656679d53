#include "telemetry/flight_recorder.hpp"

#include <filesystem>

#include "common/fnv1a.hpp"

namespace srl::telemetry {

json::Value snapshot_to_json(const TickSnapshot& snap) {
  json::Value v = json::Value::object();
  v.set("tick", json::Value::number(static_cast<double>(snap.tick)));
  v.set("t", json::Value::number(snap.t));
  json::Value est = json::Value::array();
  est.push_back(json::Value::number(snap.est_x));
  est.push_back(json::Value::number(snap.est_y));
  est.push_back(json::Value::number(snap.est_theta));
  v.set("est", std::move(est));
  v.set("truth_err_m", json::Value::number(snap.truth_err_m));
  v.set("ess_fraction", json::Value::number(snap.ess_fraction));
  v.set("weight_entropy", json::Value::number(snap.weight_entropy));
  v.set("health_state", json::Value::number(snap.health_state));
  v.set("latch_mask", json::Value::number(snap.latch_mask));
  v.set("alignment", json::Value::number(snap.alignment));
  v.set("injection_prob", json::Value::number(snap.injection_prob));
  v.set("fault_level", json::Value::number(snap.fault_level));
  if (!snap.digest.empty()) {
    json::Value digest = json::Value::array();
    for (const double d : snap.digest) {
      digest.push_back(json::Value::number(d));
    }
    v.set("digest", std::move(digest));
  }
  return v;
}

FlightRecorder::FlightRecorder(FlightRecorderConfig config, EventLog* events)
    : config_{config}, events_{events}, hash_{kFnv1aOffset} {
  config_.window = std::max<std::size_t>(config_.window, 1);
  ring_.reserve(config_.window);
}

void FlightRecorder::record_tick(TickSnapshot snap) {
  if (probe_) probe_(snap);
  hash_ = fnv1a(hash_, snap.est_x);
  hash_ = fnv1a(hash_, snap.est_y);
  hash_ = fnv1a(hash_, snap.est_theta);
  ++ticks_;
  if (ring_.size() < config_.window) {
    ring_.push_back(std::move(snap));
  } else {
    ring_[ring_next_] = std::move(snap);
  }
  ring_next_ = (ring_next_ + 1) % config_.window;
}

std::vector<TickSnapshot> FlightRecorder::window() const {
  std::vector<TickSnapshot> out;
  out.reserve(ring_.size());
  if (ring_.size() < config_.window) {
    out = ring_;  // ring not yet wrapped: already chronological
  } else {
    for (std::size_t i = 0; i < ring_.size(); ++i) {
      out.push_back(ring_[(ring_next_ + i) % config_.window]);
    }
  }
  return out;
}

std::string FlightRecorder::next_dump_path(const std::string& reason) const {
  if (!can_dump()) return {};
  return config_.dump_dir + "/" + config_.label + "-" + reason + "-" +
         std::to_string(dumps_done_) + ".json";
}

std::string FlightRecorder::trace_sidecar_path(const std::string& json_path) {
  const std::string suffix = ".json";
  std::string stem = json_path;
  if (stem.size() > suffix.size() &&
      stem.compare(stem.size() - suffix.size(), suffix.size(), suffix) == 0) {
    stem.resize(stem.size() - suffix.size());
  }
  return stem + ".srlt";
}

bool FlightRecorder::dump(const std::string& path, const std::string& reason,
                          double t, const json::Value& extra) {
  if (!can_dump()) return false;
  std::error_code ec;
  std::filesystem::create_directories(config_.dump_dir, ec);

  json::Value root = json::Value::object();
  root.set("schema", json::Value::string(kBlackboxSchema));
  root.set("reason", json::Value::string(reason));
  root.set("label", json::Value::string(config_.label));
  root.set("t", json::Value::number(t));
  root.set("ticks", json::Value::number(static_cast<double>(ticks_)));
  root.set("estimate_hash", json::Value::string(json::format_hex64(hash_)));
  root.set("provenance", provenance_);
  if (extra.is_object()) {
    for (const auto& [key, value] : extra.members()) {
      root.set(key, value);
    }
  }

  json::Value snapshots = json::Value::array();
  for (const TickSnapshot& snap : window()) {
    snapshots.push_back(snapshot_to_json(snap));
  }
  root.set("snapshots", std::move(snapshots));

  json::Value events = json::Value::array();
  if (events_ != nullptr) {
    for (const Event& event : events_->events()) {
      events.push_back(event_to_json(event));
    }
    root.set("events_total",
             json::Value::number(static_cast<double>(events_->total())));
    root.set("events_dropped",
             json::Value::number(static_cast<double>(events_->dropped())));
  }
  root.set("events", std::move(events));

  if (!root.save(path)) return false;
  ++dumps_done_;
  dump_paths_.push_back(path);
  return true;
}

void FlightRecorder::clear() {
  ring_.clear();
  ring_next_ = 0;
  ticks_ = 0;
  hash_ = kFnv1aOffset;
  dumps_done_ = 0;
  dump_paths_.clear();
}

}  // namespace srl::telemetry
