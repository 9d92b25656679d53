#include "core/synpf.hpp"

#include <utility>

#include "sensor/scanline_layout.hpp"

namespace srl {

SynPf::SynPf(SynPfConfig config, std::shared_ptr<const OccupancyGrid> map,
             LidarConfig lidar)
    : config_{config} {
  config_.range_options.max_range = lidar.max_range;
  config_.beam.max_range = lidar.max_range;

  std::shared_ptr<const RangeMethod> caster =
      shared_range_method(config_.range, std::move(map), config_.range_options);

  std::shared_ptr<const MotionModel> motion;
  if (config_.motion == PfMotionKind::kTum) {
    motion = std::make_shared<TumMotionModel>(config_.tum);
  } else {
    motion = std::make_shared<DiffDriveModel>(config_.diff_drive);
  }

  std::vector<int> layout =
      config_.layout == PfLayoutKind::kBoxed
          ? boxed_layout(lidar, config_.beams, config_.boxed_aspect)
          : uniform_layout(lidar, config_.beams);

  pf_ = std::make_unique<ParticleFilter>(
      config_.filter, std::move(caster), std::move(motion),
      BeamModel{config_.beam}, lidar, std::move(layout), config_.seed);
}

void SynPf::initialize(const Pose2& pose) {
  pf_->init_pose(pose);
  propagated_ = pose;
  pending_ = OdometryDelta{};
}

void SynPf::on_odometry(const OdometryDelta& odom) {
  pending_.delta = (pending_.delta * odom.delta).normalized();
  pending_.dt += odom.dt;
  pending_.v = odom.v;
  propagated_ = (propagated_ * odom.delta).normalized();
}

void SynPf::set_telemetry(const telemetry::Sink& sink) {
  sink_ = sink;
  h_update_ = sink.metrics != nullptr
                  ? &sink.metrics->histogram("synpf.update_ms")
                  : nullptr;
  pf_->set_telemetry(sink);
}

Pose2 SynPf::on_scan(const LaserScan& scan) {
  telemetry::ScopedSpan span{sink_.trace, "synpf.on_scan"};
  Stopwatch watch;
  pf_->predict(pending_);
  pending_ = OdometryDelta{};
  propagated_ = pf_->correct(scan);
  const double busy_s = watch.elapsed_s();
  load_.add_busy(busy_s);
  if (h_update_ != nullptr) h_update_->record(busy_s * 1e3);
  return propagated_;
}

}  // namespace srl
