#pragma once

/// \file synpf.hpp
/// \brief SynPF — the paper's localization algorithm, assembled from its
/// three synergized ingredients:
///   1. the TUM speed-adaptive Ackermann motion model (motion/tum_model.hpp),
///   2. the boxed LiDAR scanline layout (sensor/scanline_layout.hpp),
///   3. rangelibc-accelerated expected-range queries, LUT mode by default
///      (range/lookup_table.hpp) for GPU-less on-board computers.
///
/// Every ingredient is switchable through SynPfConfig, which is how the
/// ablation benches turn SynPF back into a vanilla MCL (diff-drive motion,
/// uniform layout, Bresenham ranges).

#include <cstdint>
#include <memory>

#include "core/localizer.hpp"
#include "core/particle_filter.hpp"
#include "common/timer.hpp"
#include "motion/diff_drive.hpp"
#include "motion/tum_model.hpp"

namespace srl {

enum class PfMotionKind { kTum, kDiffDrive };
enum class PfLayoutKind { kBoxed, kUniform };

struct SynPfConfig {
  ParticleFilterConfig filter{};
  PfMotionKind motion = PfMotionKind::kTum;
  PfLayoutKind layout = PfLayoutKind::kBoxed;
  RangeMethodKind range = RangeMethodKind::kLut;
  RangeMethodOptions range_options{};
  int beams = 60;              ///< scored beams per particle
  double boxed_aspect = 3.0;   ///< corridor aspect ratio for the boxed layout
  BeamModelParams beam{};
  TumModelParams tum{};
  DiffDriveParams diff_drive{};
  std::uint64_t seed = 42;
};

class SynPf final : public Localizer {
 public:
  /// Takes the range backend over `map` from the MapAssets store: the LUT's
  /// precomputation pass runs once, before the race, for every SynPF on a
  /// map with the same backend options.
  SynPf(SynPfConfig config, std::shared_ptr<const OccupancyGrid> map,
        LidarConfig lidar);

  void initialize(const Pose2& pose) override;
  void on_odometry(const OdometryDelta& odom) override;
  Pose2 on_scan(const LaserScan& scan) override;
  Pose2 pose() const override { return propagated_; }
  std::string name() const override { return "SynPF"; }
  double mean_scan_update_ms() const override { return load_.mean_ms(); }
  double total_busy_s() const override { return load_.busy_s(); }
  /// Attach metrics/tracing: records "synpf.update_ms" and the per-stage
  /// pf.* histograms, spans, and filter-health gauges (see
  /// ParticleFilter::set_telemetry).
  void set_telemetry(const telemetry::Sink& sink) override;

  ParticleFilter& filter() { return *pf_; }
  const SynPfConfig& config() const { return config_; }

 private:
  SynPfConfig config_;
  std::unique_ptr<ParticleFilter> pf_;
  OdometryDelta pending_{};   ///< odometry accumulated since the last scan
  Pose2 propagated_{};        ///< last estimate, dead-reckoned by odometry
  LoadAccumulator load_;
  telemetry::Sink sink_{};
  telemetry::Histogram* h_update_{nullptr};
};

}  // namespace srl
