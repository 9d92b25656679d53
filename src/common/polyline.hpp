#pragma once

/// \file polyline.hpp
/// \brief Closed/open polyline utilities: arc length, uniform resampling,
/// Chaikin smoothing, and discrete curvature. Shared by the synthetic track
/// generator and the race-line representation.

#include <vector>

#include "common/types.hpp"

namespace srl {

/// Total length of a polyline; if `closed`, includes the last->first segment.
double polyline_length(const std::vector<Vec2>& pts, bool closed);

/// Resample a closed polyline to points uniformly spaced (approximately `ds`
/// apart) by arc length. The result keeps the original orientation and starts
/// near pts[0]. Requires at least 3 points. Throws std::invalid_argument
/// when the length over `ds` is NaN or rounds beyond int.
std::vector<Vec2> resample_closed(const std::vector<Vec2>& pts, double ds);

/// Resample an open polyline to exactly `n` points uniformly by arc length
/// (endpoints preserved). Requires n >= 2 and at least 2 input points.
std::vector<Vec2> resample_open(const std::vector<Vec2>& pts, int n);

/// One or more iterations of Chaikin corner cutting on a closed polyline.
/// Each iteration doubles the point count and smooths corners; the limit
/// curve is C1. Requires at least 3 points.
std::vector<Vec2> chaikin_closed(const std::vector<Vec2>& pts, int iterations);

/// Discrete signed curvature at every vertex of a closed polyline using the
/// circumscribed-circle formula on (prev, this, next). Positive = left turn.
std::vector<double> curvature_closed(const std::vector<Vec2>& pts);

/// Signed area (shoelace); positive for counter-clockwise orientation.
double signed_area(const std::vector<Vec2>& pts);

}  // namespace srl
