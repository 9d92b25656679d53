#pragma once

/// \file lookup_table.hpp
/// \brief Precomputed 3-D range lookup table — the rangelibc mode the paper
/// runs on the GPU-less Intel NUC. Ranges are precomputed with the exact
/// cell traversal for every (x, y, theta) on a discretized grid and
/// quantized to uint16, giving constant-time queries at the cost of memory.
/// Only cells that do not block get a row of their own; the rest share one
/// all-zero row:
///   (free_cells + 1) * theta_bins * 2 bytes (row slab)
///   + width * height * 4 bytes (row index).

#include <cstdint>
#include <span>
#include <vector>

#include "common/simd.hpp"
#include "range/range_method.hpp"

namespace srl {

class RangeLut final : public RangeMethod {
 public:
  /// Builds the table by exhaustive exact ray casting (parallelized over
  /// blocks of origins), one row per cell; queries read the row of the
  /// cell they fall in. `theta_bins` discretizes the full [0, 2pi) circle.
  /// Every entry equals
  /// `clamp(lround(BresenhamCaster::range({p.x, p.y, 2pi * bt / bins}) /
  /// quantum))` at the cell's centre p, under either SIMD backend.
  /// `max_range` must be positive. Throws std::length_error when the row
  /// slab would exceed the uint32_t offset range.
  RangeLut(std::shared_ptr<const OccupancyGrid> map, double max_range,
           int theta_bins = 120);

  float range(const Pose2& ray) const override;
  std::string name() const override { return "lut"; }

  /// Per-particle batch: the grid lookup, occupancy test and row lookup
  /// are shared by all beams of one origin, so they hoist out of the beam
  /// loop; the per-beam bin math and row gather vectorize under AVX2 (4
  /// beams per iteration) with bit-identical results to range() per beam.
  void ranges_from(const Pose2& sensor, std::span<const double> beam_angles,
                   std::span<float> out) const override;

  /// Payload size: the row slab plus the row index (the slab carries one
  /// extra guard entry so 32-bit SIMD gathers of the final uint16 never
  /// read past the allocation; it is not counted).
  std::size_t memory_bytes() const {
    return (slab_.size() - 1) * sizeof(std::uint16_t) +
           row_.size() * sizeof(std::uint32_t);
  }
  int theta_bins() const { return theta_bins_; }

 private:
  /// Offset in slab_ of cell (cx, cy)'s row.
  std::size_t row(int cx, int cy) const {
    return row_[static_cast<std::size_t>(cy) * cells_x_ + cx];
  }

#if defined(SRL_SIMD_X86_AVX2)
  /// AVX2 tail of ranges_from(): bins and gathers 4 beams at a time from
  /// the row slab at `base`. Bitwise identical to the scalar loop.
  void ranges_from_avx2(std::size_t base, double theta0,
                        std::span<const double> beam_angles,
                        std::span<float> out) const;
#endif

  int theta_bins_;
  int cells_x_{0};  ///< row pitch of row_: the grid width
  double quantum_;  ///< meters per uint16 step
  /// Rows of theta_bins_ entries: the shared zero row at offset 0, then one
  /// row per cell that does not block, then one guard entry.
  std::vector<std::uint16_t> slab_;
  /// One entry per cell: the offset of its row in slab_ (0 = zero row).
  std::vector<std::uint32_t> row_;
};

}  // namespace srl
