#include "slam/pure_localization.hpp"

#include <utility>
#include <vector>

namespace srl {
namespace {

GaussNewtonOptions make_global_gn(const GaussNewtonOptions& base) {
  // The global refinement is a constraint search, not odometry tracking:
  // the anchor is nearly released so the solution can travel to the map.
  GaussNewtonOptions gn = base;
  gn.translation_anchor = 0.2;
  gn.rotation_anchor = 0.1;
  return gn;
}

}  // namespace

CartoLocalizer::CartoLocalizer(PureLocalizationOptions options,
                               std::shared_ptr<const OccupancyGrid> map,
                               LidarConfig lidar)
    : options_{options},
      lidar_{std::move(lidar)},
      beam_dirs_{beam_directions(lidar_)},
      field_{ProbabilityGrid::shared_likelihood_field(
          *map, options.likelihood_sigma)},
      local_gn_{options.gn},
      global_gn_{make_global_gn(options.gn)},
      local_csm_{options.local_csm},
      global_csm_{options.global_csm},
      reloc_csm_{options.reloc_csm} {}

void CartoLocalizer::initialize(const Pose2& pose) {
  pose_ = pose;
  scan_counter_ = 0;
  global_fixes_ = 0;
  failed_global_ = 0;
  live_ = std::make_unique<Submap>(pose, options_.submap_resolution,
                                   options_.submap_extent);
  pending_.clear();
  published_base_ = pose;
  published_accum_ = Pose2{};
  clock_ = 0.0;
}

void CartoLocalizer::on_odometry(const OdometryDelta& odom) {
  // Cartographer's pose extrapolator: odometry dead-reckons between scans
  // and supplies the twist used to deskew scan motion distortion. A
  // slipping wheel corrupts both uses.
  pose_ = (pose_ * odom.delta).normalized();
  if (odom.dt > 0.0) {
    odom_twist_ = Twist2{odom.delta.x / odom.dt, odom.delta.y / odom.dt,
                         odom.delta.theta / odom.dt};
  }
  clock_ += odom.dt;
  published_accum_ = (published_accum_ * odom.delta).normalized();
  for (PendingOutput& p : pending_) {
    p.odom_accum = (p.odom_accum * odom.delta).normalized();
  }
  // Promote corrections whose pipeline latency has elapsed.
  while (!pending_.empty() && pending_.front().effective_t <= clock_) {
    published_base_ = pending_.front().internal_pose;
    published_accum_ = pending_.front().odom_accum;
    pending_.pop_front();
  }
}

void CartoLocalizer::set_telemetry(const telemetry::Sink& sink) {
  sink_ = sink;
  if (sink.metrics != nullptr) {
    telemetry::MetricsRegistry& m = *sink.metrics;
    h_update_ = &m.histogram("carto.update_ms");
    h_local_match_ = &m.histogram("carto.local_match_ms");
    h_insert_ = &m.histogram("carto.insert_ms");
    h_global_ = &m.histogram("carto.global_ms");
    c_global_fixes_ = &m.counter("carto.global_fixes");
    c_global_failures_ = &m.counter("carto.global_failures");
    c_relocs_ = &m.counter("carto.reloc_searches");
  } else {
    h_update_ = h_local_match_ = h_insert_ = h_global_ = nullptr;
    c_global_fixes_ = c_global_failures_ = c_relocs_ = nullptr;
  }
}

Pose2 CartoLocalizer::on_scan(const LaserScan& scan) {
  telemetry::ScopedSpan span{sink_.trace, "carto.on_scan"};
  Stopwatch watch;
  // One deskew pass: `dense` (every beam) is inserted, `points` (every
  // points_stride-th beam) is matched.
  std::vector<Vec2> dense;
  std::vector<Vec2> points;
  deskew_scan(scan, lidar_, beam_dirs_, odom_twist_, options_.points_stride,
              dense, points);

  // Local SLAM: anchored Gauss-Newton against the live submap. The first
  // couple of scans of a fresh submap have too little evidence to match.
  if (!points.empty() && live_->scan_count() >= 2) {
    telemetry::ScopedSpan match_span{sink_.trace, "carto.local_match"};
    telemetry::StageTimer timer{h_local_match_};
    const Pose2 seed_local = live_->to_local(pose_);
    const ScanMatchResult coarse =
        local_csm_.match(live_->grid(), seed_local, points);
    const ScanMatchResult fine =
        local_gn_.refine(live_->grid(), /*anchor=*/seed_local,
                         /*start=*/coarse.ok ? coarse.pose : seed_local,
                         points);
    pose_ = live_->to_world(fine.pose).normalized();
    timer.stop();
  }

  // Insert the scan at the matched pose; roll the submap when full.
  // Insertion is dense (every beam, like Cartographer): subsampled hits
  // would leave dotted walls at range whose lattice aliases the
  // correlative search and pulls the match toward the denser region.
  if (!dense.empty()) {
    telemetry::ScopedSpan insert_span{sink_.trace, "carto.submap_insert"};
    telemetry::StageTimer timer{h_insert_};
    live_->insert(pose_, dense);
    if (live_->scan_count() >= options_.scans_per_submap) {
      live_ = std::make_unique<Submap>(pose_, options_.submap_resolution,
                                       options_.submap_extent);
    }
    timer.stop();
  }

  // Backend: periodic constraint search against the frozen map.
  ++scan_counter_;
  if (scan_counter_ % options_.global_period == 0 && !points.empty()) {
    telemetry::ScopedSpan global_span{sink_.trace, "carto.global_correction"};
    telemetry::StageTimer timer{h_global_};
    global_correction(points);
    timer.stop();
  }

  // Queue this correction for publication after the pipeline latency.
  pending_.emplace_back(clock_ + options_.output_latency, pose_, Pose2{});

  const double busy_s = watch.elapsed_s();
  load_.add_busy(busy_s);
  if (h_update_ != nullptr) h_update_->record(busy_s * 1e3);
  return pose();
}

void CartoLocalizer::global_correction(const std::vector<Vec2>& points) {
  ScanMatchResult coarse = global_csm_.match(*field_, pose_, points);
  if (!coarse.ok) {
    if (c_global_failures_ != nullptr) c_global_failures_->add();
    // Repeatedly failing to find a constraint means the trajectory has left
    // the search window: fall back to the wide relocalization search.
    if (++failed_global_ < options_.reloc_after_failures) return;
    if (c_relocs_ != nullptr) c_relocs_->add();
    coarse = reloc_csm_.match(*field_, pose_, points);
    if (!coarse.ok) return;
  }
  failed_global_ = 0;
  const ScanMatchResult fine = global_gn_.refine(*field_, coarse.pose, points);

  // Rigid trajectory correction (the optimization's step change, a hard
  // snap): move the current pose and the live submap together so local
  // consistency holds.
  const Pose2 correction = fine.pose * pose_.inverse();
  const Pose2 corrected = (correction * pose_).normalized();
  const Pose2 applied = corrected * pose_.inverse();
  live_->set_pose((applied * live_->pose()).normalized());
  pose_ = corrected;
  ++global_fixes_;
  if (c_global_fixes_ != nullptr) c_global_fixes_->add();
}

}  // namespace srl
