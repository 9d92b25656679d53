#pragma once

/// \file lidar.hpp
/// \brief Planar LiDAR scan types: sensor geometry and one revolution of
/// range data. Modeled on the Hokuyo-class scanner of the F1TENTH platform
/// (270 degrees, 1081 beams, 40 Hz).

#include <span>
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
  /// Sensor pose of a body pose, `body * mount`.
  Pose2 sensor_pose(const Pose2& body) const;
};

inline Pose2 LidarConfig::sensor_pose(const Pose2& body) const {
  // With the mount at the body origin (every shipped configuration), the
  // composition adds a rotated zero offset, +-0, to x and y. That leaves a
  // finite nonzero coordinate as it is, so its cos/sin pair is skipped with
  // the same bits. A zero coordinate could change sign (-0 + +0 is +0) and a
  // non-finite pose could turn NaN, so those keep the composition.
  if (mount.x == 0.0 && mount.y == 0.0 && mount.theta == 0.0 &&
      finite(body) && body.x != 0.0 && body.y != 0.0) {
    return {body.x, body.y, normalize_angle(body.theta + mount.theta)};
  }
  return body * mount;
}

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

/// (cos, sin) of every beam angle of `config`: the direction table
/// deskew_scan reads instead of two libm calls per beam.
std::vector<Vec2> beam_directions(const LidarConfig& config);

/// Motion-corrected conversion: assuming the body moved with constant
/// `twist` during the revolution (beam n-1 newest), re-express every return
/// in the scan-end body frame. This is what Cartographer's extrapolator
/// does with odometry — and therefore inherits the odometry's errors: a
/// slipping wheel deskews with the wrong twist and *warps* the cloud.
///
/// One pass fills both clouds a scan matcher uses: every valid return goes
/// into `dense`, and those whose beam index is a multiple of `stride` into
/// `strided` as well (both are cleared first). A point does not depend on
/// which cloud holds it. `directions` is beam_directions(config); a beam
/// past its end takes its direction from libm.
void deskew_scan(const LaserScan& scan, const LidarConfig& config,
                 std::span<const Vec2> directions, const Twist2& twist,
                 int stride, std::vector<Vec2>& dense,
                 std::vector<Vec2>& strided);

}  // namespace srl
