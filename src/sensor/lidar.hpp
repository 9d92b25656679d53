#pragma once

/// \file lidar.hpp
/// \brief Planar LiDAR scan types: sensor geometry and one revolution of
/// range data. Modeled on the Hokuyo-class scanner of the F1TENTH platform
/// (270 degrees, 1081 beams, 40 Hz).

#include <vector>

#include "common/angles.hpp"
#include "common/types.hpp"

namespace srl {

/// Static geometry of the scanner.
struct LidarConfig {
  double fov = deg2rad(270.0);  ///< total field of view, rad
  int n_beams = 1081;           ///< beams across the FOV
  double max_range = 12.0;      ///< m
  double min_range = 0.05;      ///< m, closer returns are invalid
  double rate_hz = 40.0;        ///< scan frequency
  Pose2 mount{};                ///< sensor pose in the body frame

  double angle_min() const { return -0.5 * fov; }
  double angle_increment() const {
    return n_beams > 1 ? fov / (n_beams - 1) : 0.0;
  }
  /// Beam angle in the sensor frame.
  double beam_angle(int i) const { return angle_min() + i * angle_increment(); }
  /// Index of the beam closest to a sensor-frame angle, clamped to the FOV.
  int nearest_beam(double angle) const;
};

/// One scan: ranges[i] corresponds to config.beam_angle(i). Returns at
/// max_range (or beyond) indicate "no hit".
struct LaserScan {
  std::vector<float> ranges;
  double t{0.0};  ///< acquisition timestamp, s
};

/// Convert scan returns to 2-D points in the *body* frame, skipping invalid
/// (< min_range or NaN) and no-hit (>= max_range) returns. `stride`
/// subsamples.
std::vector<Vec2> scan_to_points(const LaserScan& scan,
                                 const LidarConfig& config, int stride = 1);

/// Motion-corrected conversion: assuming the body moved with constant
/// `twist` during the revolution (beam n-1 newest), re-express every return
/// in the scan-end body frame. This is what Cartographer's extrapolator
/// does with odometry — and therefore inherits the odometry's errors: a
/// slipping wheel deskews with the wrong twist and *warps* the cloud.
std::vector<Vec2> deskew_scan(const LaserScan& scan, const LidarConfig& config,
                              const Twist2& twist, int stride = 1);

}  // namespace srl
