#include "eval/trace.hpp"

#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>

#include "common/angles.hpp"

namespace srl {
namespace {

constexpr char kMagic[4] = {'S', 'R', 'L', 'T'};
constexpr std::uint32_t kVersion = 1;

template <typename T>
void write_pod(std::ofstream& out, const T& value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
bool read_pod(std::ifstream& in, T& value) {
  in.read(reinterpret_cast<char*>(&value), sizeof(T));
  return static_cast<bool>(in);
}

}  // namespace

double SensorTrace::duration() const {
  double t0 = 0.0;
  double t1 = 0.0;
  bool any = false;
  const auto consider = [&](double t) {
    if (!any) {
      t0 = t1 = t;
      any = true;
    } else {
      t0 = std::min(t0, t);
      t1 = std::max(t1, t);
    }
  };
  for (const OdomRecord& r : odometry_) consider(r.t);
  for (const ScanRecord& r : scans_) consider(r.scan.t);
  return any ? t1 - t0 : 0.0;
}

Pose2 LocalizeStep::operator()(const LaserScan& scan, const Pose2& truth) {
  Stopwatch watch;
  Pose2 est;
  {
    telemetry::ScopedSpan span{sink.trace, "localize.on_scan"};
    est = localizer.on_scan(scan);
  }
  update_ms.record(watch.elapsed_ms());
  truth_err_m = std::hypot(est.x - truth.x, est.y - truth.y);
  if (sink.recorder != nullptr) {
    telemetry::TickSnapshot snap;
    snap.tick = ticks;
    snap.t = scan.t;
    snap.est_x = est.x;
    snap.est_y = est.y;
    snap.est_theta = est.theta;
    snap.truth_err_m = truth_err_m;
    sink.recorder->record_tick(std::move(snap));
  }
  ++ticks;
  return est;
}

SensorTrace::ReplayResult SensorTrace::replay(
    Localizer& localizer, telemetry::Sink sink,
    std::optional<Pose2> start) const {
  ReplayResult result;
  if (scans_.empty()) return result;
  if (sink.enabled()) localizer.set_telemetry(sink);
  localizer.initialize(start.value_or(scans_.front().truth));
  LocalizeStep localize{localizer, sink};

  std::size_t oi = 0;
  double err_sq = 0.0;
  double hdg_sq = 0.0;
  for (const ScanRecord& rec : scans_) {
    // Deliver all odometry up to (and including) this scan's timestamp.
    while (oi < odometry_.size() && odometry_[oi].t <= rec.scan.t) {
      localizer.on_odometry(odometry_[oi].odom);
      ++oi;
    }
    const Pose2 est = localize(rec.scan, rec.truth);
    result.estimates.push_back(est);
    const double ex = est.x - rec.truth.x;
    const double ey = est.y - rec.truth.y;
    err_sq += ex * ex + ey * ey;
    const double eh = angle_dist(est.theta, rec.truth.theta);
    hdg_sq += eh * eh;
  }
  const auto n = static_cast<double>(result.estimates.size());
  result.pose_rmse_m = std::sqrt(err_sq / n);
  result.heading_rmse_rad = std::sqrt(hdg_sq / n);
  result.mean_update_ms = localizer.mean_scan_update_ms();
  result.p50_update_ms = localize.update_ms.percentile(0.50);
  result.p95_update_ms = localize.update_ms.percentile(0.95);
  result.p99_update_ms = localize.update_ms.percentile(0.99);
  result.max_update_ms = localize.update_ms.max();
  return result;
}

bool SensorTrace::save(const std::string& path) const {
  std::ofstream out{path, std::ios::binary};
  if (!out) return false;
  out.write(kMagic, sizeof(kMagic));
  write_pod(out, kVersion);
  write_pod(out, static_cast<std::uint64_t>(odometry_.size()));
  write_pod(out, static_cast<std::uint64_t>(scans_.size()));
  for (const OdomRecord& r : odometry_) {
    write_pod(out, r.t);
    write_pod(out, r.odom.delta.x);
    write_pod(out, r.odom.delta.y);
    write_pod(out, r.odom.delta.theta);
    write_pod(out, r.odom.v);
    write_pod(out, r.odom.dt);
  }
  for (const ScanRecord& r : scans_) {
    write_pod(out, r.scan.t);
    write_pod(out, r.truth.x);
    write_pod(out, r.truth.y);
    write_pod(out, r.truth.theta);
    write_pod(out, static_cast<std::uint32_t>(r.scan.ranges.size()));
    out.write(reinterpret_cast<const char*>(r.scan.ranges.data()),
              static_cast<std::streamsize>(r.scan.ranges.size() *
                                           sizeof(float)));
  }
  return static_cast<bool>(out);
}

std::optional<SensorTrace> SensorTrace::load(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  if (!in) return std::nullopt;
  char magic[4];
  in.read(magic, sizeof(magic));
  if (!in || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return std::nullopt;
  }
  std::uint32_t version = 0;
  if (!read_pod(in, version) || version != kVersion) return std::nullopt;
  std::uint64_t n_odom = 0;
  std::uint64_t n_scans = 0;
  if (!read_pod(in, n_odom) || !read_pod(in, n_scans)) return std::nullopt;

  SensorTrace trace;
  for (std::uint64_t i = 0; i < n_odom; ++i) {
    OdomRecord r;
    if (!read_pod(in, r.t) || !read_pod(in, r.odom.delta.x) ||
        !read_pod(in, r.odom.delta.y) || !read_pod(in, r.odom.delta.theta) ||
        !read_pod(in, r.odom.v) || !read_pod(in, r.odom.dt)) {
      return std::nullopt;
    }
    trace.odometry_.push_back(r);
  }
  for (std::uint64_t i = 0; i < n_scans; ++i) {
    ScanRecord r;
    std::uint32_t n_ranges = 0;
    if (!read_pod(in, r.scan.t) || !read_pod(in, r.truth.x) ||
        !read_pod(in, r.truth.y) || !read_pod(in, r.truth.theta) ||
        !read_pod(in, n_ranges)) {
      return std::nullopt;
    }
    if (n_ranges > 1000000U) return std::nullopt;  // sanity bound
    r.scan.ranges.resize(n_ranges);
    in.read(reinterpret_cast<char*>(r.scan.ranges.data()),
            static_cast<std::streamsize>(n_ranges * sizeof(float)));
    if (!in) return std::nullopt;
    trace.scans_.push_back(std::move(r));
  }
  return trace;
}

}  // namespace srl
