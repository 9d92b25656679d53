#include "eval/fault_replay.hpp"

#include <algorithm>

#include "common/fnv1a.hpp"

namespace srl {

SensorTrace corrupt_trace(const fault::FaultPipeline& pipeline,
                          const SensorTrace& trace) {
  pipeline.reset();
  SensorTrace corrupted;

  // Stream time starts at the earliest event of either stream, so envelopes
  // (ramps, blackout windows) line up with "seconds into the run".
  double t0 = 0.0;
  if (!trace.odometry().empty() && !trace.scans().empty()) {
    t0 = std::min(trace.odometry().front().t, trace.scans().front().scan.t);
  } else if (!trace.odometry().empty()) {
    t0 = trace.odometry().front().t;
  } else if (!trace.scans().empty()) {
    t0 = trace.scans().front().scan.t;
  }

  std::uint64_t odom_index = 0;
  for (const SensorTrace::OdomRecord& rec : trace.odometry()) {
    OdometryDelta odom = rec.odom;
    pipeline.corrupt_odometry({odom_index, rec.t - t0}, odom);
    ++odom_index;
    corrupted.add_odometry(rec.t, odom);
  }

  std::uint64_t scan_index = 0;
  for (const SensorTrace::ScanRecord& rec : trace.scans()) {
    LaserScan scan = rec.scan;
    pipeline.corrupt_scan({scan_index, rec.scan.t - t0}, scan);
    ++scan_index;
    corrupted.add_scan(scan, rec.truth);
  }
  return corrupted;
}

std::uint64_t trace_hash(const SensorTrace& trace) {
  std::uint64_t h = kFnv1aOffset;
  h = fnv1a(h, static_cast<std::uint64_t>(trace.odometry().size()));
  h = fnv1a(h, static_cast<std::uint64_t>(trace.scans().size()));
  for (const SensorTrace::OdomRecord& rec : trace.odometry()) {
    h = fnv1a(h, rec.t);
    h = fnv1a(h, rec.odom.delta.x);
    h = fnv1a(h, rec.odom.delta.y);
    h = fnv1a(h, rec.odom.delta.theta);
    h = fnv1a(h, rec.odom.v);
    h = fnv1a(h, rec.odom.dt);
  }
  for (const SensorTrace::ScanRecord& rec : trace.scans()) {
    h = fnv1a(h, rec.scan.t);
    h = fnv1a(h, rec.truth.x);
    h = fnv1a(h, rec.truth.y);
    h = fnv1a(h, rec.truth.theta);
    h = fnv1a(h, static_cast<std::uint64_t>(rec.scan.ranges.size()));
    h = fnv1a_bytes(h, rec.scan.ranges.data(),
                    rec.scan.ranges.size() * sizeof(float));
  }
  return h;
}

}  // namespace srl
