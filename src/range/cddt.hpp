#pragma once

/// \file cddt.hpp
/// \brief Compressed Directional Distance Transform (Walsh & Karaman, ICRA
/// 2018) — the core rangelibc data structure.
///
/// The angle space is discretized into M bins over [0, pi) (a ray at theta
/// and theta + pi travel the same line in opposite directions). For each bin
/// the map is conceptually rotated so rays run along +u; blocking cells are
/// projected to (u, v) and bucketed into bands of width one cell along v.
/// Each band keeps a sorted, deduplicated ("compressed") list of obstacle u
/// coordinates, so a query is: locate band from v, binary-search the first
/// obstacle ahead of u. Query cost is O(log band size); the approximation
/// error is bounded by the angular bin width and the band discretization.
/// Every bin's bands share one flat obstacle array and one flat 32-bit
/// offset array: a vector per band costs more in headers than its
/// obstacles take, and the batch jobs hold one table per lane. Each bin's
/// fields sit in one 32-byte record, so the AVX2 batch loads a beam's bin
/// with one load (DESIGN §15).

#include <cstdint>
#include <span>
#include <vector>

#include "common/simd.hpp"
#include "range/range_method.hpp"

namespace srl {

class Cddt final : public RangeMethod {
 public:
  Cddt(std::shared_ptr<const OccupancyGrid> map, double max_range,
       int theta_bins = 108);

  float range(const Pose2& ray) const override;
  std::string name() const override { return "cddt"; }

  /// Per-particle batch: hoists the shared grid lookup / occupancy test
  /// out of the beam loop and, under AVX2, scores the beams in four-lane
  /// groups, up to 16 groups in flight; per-beam results are bit-identical
  /// to range().
  void ranges_from(const Pose2& sensor, std::span<const double> beam_angles,
                   std::span<float> out) const override;

  int theta_bins() const { return static_cast<int>(bins_.size()); }
  /// Total stored obstacle projections (memory diagnostic).
  std::size_t total_entries() const;
  /// Every bin's bands back to back, and the band offsets into them (tests
  /// pin the table's bits through these).
  std::span<const float> obstacles() const { return obstacles_; }
  std::span<const std::uint32_t> band_starts() const { return band_start_; }

 private:
  /// range() after the shared precondition / occupancy checks: bin
  /// selection, direction test, band search for the ray (x, y, theta).
  float range_line(double x, double y, double theta) const;

#if defined(SRL_SIMD_X86_AVX2)
  /// AVX2 beam loop of ranges_from() for an origin in free space,
  /// bitwise identical to range_line() per beam.
  void ranges_from_avx2(const Pose2& sensor,
                        std::span<const double> beam_angles,
                        std::span<float> out) const;
#endif

  /// Theta bin b's record. Band k of bin b holds
  /// obstacles_[band_start_[first_band + k], band_start_[first_band + k + 1])
  /// for k < band_count. A bin's last bound is the next bin's first, so
  /// band_start_ has one entry more than all bins have bands.
  struct alignas(32) Bin {
    double cos_t;
    double sin_t;
    double v_min;  ///< band-0 offset along v
    std::int32_t first_band;
    std::int32_t band_count;
  };
  static_assert(sizeof(Bin) == 32);

  std::vector<Bin> bins_;
  std::vector<double> angle_;  ///< bin axis angle kPi * b / m
  std::vector<std::uint32_t> band_start_;
  std::vector<float> obstacles_;  ///< every bin's bands, back to back
  double band_width_;
};

}  // namespace srl
