#include "slam/scan_matching.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/angles.hpp"
#include "common/simd.hpp"

#if defined(SRL_SIMD_X86_AVX2)
#include <immintrin.h>
#endif

namespace srl {
namespace {

using AxisSample = ProbabilityGrid::AxisSample;

/// x-candidates of one AVX2 row pass at most: one 8-float window per grid
/// row holds their cells.
constexpr std::size_t kLanes = 8;

std::size_t round_up4(std::size_t n) { return (n + 3) & ~std::size_t{3}; }

/// The axis halves of one candidate angle: entry (k, i) is scan point i
/// under translation candidate k, counted from the window's low edge. The
/// x half is point-major, so neighbouring x-candidates of one point sit
/// side by side; the y half is candidate-major, so one row's points are
/// contiguous. Each table ends in `kPad` spare entries: a row pass loads
/// eight x entries from any (point, candidate) and the fill writes four at
/// a time, so neither ever leaves its table (DESIGN §15).
struct AxisTables {
  static constexpr std::size_t kPad = kLanes - 1;

  std::size_t width{0};  ///< translation candidates per axis
  std::size_t points{0};
  /// Candidate k's translation on each axis, `seed + (k - n_lin) * step`;
  /// padded to a multiple of four with zeros.
  std::vector<double> x_offset;
  std::vector<double> y_offset;
  /// The scan points rotated to the candidate angle; `ry` is padded to a
  /// multiple of four with zeros.
  std::vector<double> rx;
  std::vector<double> ry;
  std::vector<int> x_cell;     ///< [i * width + k]
  std::vector<double> x_frac;  ///< [i * width + k]
  std::vector<int> y_cell;     ///< [k * points + i]
  std::vector<double> y_frac;  ///< [k * points + i]

  AxisTables(const Pose2& seed, int n_lin, double step, std::size_t n)
      : width{static_cast<std::size_t>(2 * n_lin + 1)},
        points{n},
        x_offset(round_up4(width)),
        y_offset(round_up4(width)),
        rx(n),
        ry(round_up4(n)),
        x_cell(width * n + kPad),
        x_frac(width * n + kPad),
        y_cell(width * n + kPad),
        y_frac(width * n + kPad) {
    for (std::size_t k = 0; k < width; ++k) {
      const int offset = static_cast<int>(k) - n_lin;
      x_offset[k] = seed.x + offset * step;
      y_offset[k] = seed.y + offset * step;
    }
  }

  void rotate(double c, double s, std::span<const Vec2> p) {
    for (std::size_t i = 0; i < points; ++i) {
      rx[i] = c * p[i].x - s * p[i].y;
      ry[i] = s * p[i].x + c * p[i].y;
    }
  }
};

/// Reference table fill. The operations are `interpolate`'s own, so every
/// half carries the bits the per-candidate loop computed.
void fill_scalar(const ProbabilityGrid& grid, AxisTables& t) {
  for (std::size_t k = 0; k < t.width; ++k) {
    for (std::size_t i = 0; i < t.points; ++i) {
      const AxisSample ax = grid.axis_x(t.x_offset[k] + t.rx[i]);
      t.x_cell[i * t.width + k] = ax.cell;
      t.x_frac[i * t.width + k] = ax.frac;
      const AxisSample ay = grid.axis_y(t.y_offset[k] + t.ry[i]);
      t.y_cell[k * t.points + i] = ay.cell;
      t.y_frac[k * t.points + i] = ay.frac;
    }
  }
}

/// Reference row scorer: sums[k] for the x-candidates of y-row `row` is the
/// sum of the interpolated probabilities of all points, accumulated from
/// +0.0 in point order.
void score_row_scalar(const ProbabilityGrid& grid, const AxisTables& t,
                      std::size_t row, double* sums) {
  const int* y_cell = t.y_cell.data() + row * t.points;
  const double* y_frac = t.y_frac.data() + row * t.points;
  std::fill_n(sums, t.width, 0.0);
  for (std::size_t i = 0; i < t.points; ++i) {
    const std::size_t at = i * t.width;
    const AxisSample y{y_cell[i], y_frac[i]};
    for (std::size_t k = 0; k < t.width; ++k) {
      sums[k] += grid.combine({t.x_cell[at + k], t.x_frac[at + k]}, y);
    }
  }
}

/// One Gauss-Newton iteration's normal equations for residuals
/// r_i = 1 - P(T p_i) and J_i = -dP/dxi, each term scaled by 1/n.
struct NormalEquations {
  double h[3][3] = {{0.0}};
  double b[3] = {0.0, 0.0, 0.0};

  /// One point's terms, added in the reference order.
  void add(double gx, double gy, double jt, double r, double inv_n) {
    const double j[3] = {-gx, -gy, -jt};
    for (int a = 0; a < 3; ++a) {
      b[a] += -j[a] * r * inv_n;
      for (int bb = 0; bb < 3; ++bb) h[a][bb] += j[a] * j[bb] * inv_n;
    }
  }
};

/// Reference accumulation of the point terms, in point order.
void accumulate_scalar(const ProbabilityGrid& grid, const PoseFrame& frame,
                       std::span<const Vec2> points, double inv_n,
                       NormalEquations& eq) {
  const double res = grid.resolution();
  const double c = frame.c;
  const double s = frame.s;
  for (const Vec2& p : points) {
    const Vec2 w = frame.transform(p);
    // Central-difference probability gradient at half-cell spacing: five
    // interpolations built from three x and three y axis halves.
    const AxisSample x0 = grid.axis_x(w.x);
    const AxisSample y0 = grid.axis_y(w.y);
    const double pc = grid.combine(x0, y0);
    const double gx = (grid.combine(grid.axis_x(w.x + 0.5 * res), y0) -
                       grid.combine(grid.axis_x(w.x - 0.5 * res), y0)) /
                      res;
    const double gy = (grid.combine(x0, grid.axis_y(w.y + 0.5 * res)) -
                       grid.combine(x0, grid.axis_y(w.y - 0.5 * res))) /
                      res;
    // d(T p)/dtheta = R'(theta) * p.
    const double dxt = -s * p.x - c * p.y;
    const double dyt = c * p.x - s * p.y;
    const double jt = gx * dxt + gy * dyt;
    eq.add(gx, gy, jt, 1.0 - pc, inv_n);
  }
}

#if defined(SRL_SIMD_X86_AVX2)
/// `probability(ix, iy)` on four lanes of ix, widened to double. Lanes
/// inside the grid load their cell (unknown cells read `kUnknownMatchP`),
/// the others read the out-of-bounds value without loading, and a row
/// outside the grid loads nothing at all.
__attribute__((target("avx2"))) inline __m256d probability4(
    const ProbabilityGrid& grid, __m128i ix, int iy, __m128 oob) {
  if (iy < 0 || iy >= grid.height()) return _mm256_cvtps_pd(oob);
  const __m128i in_row =
      _mm_and_si128(_mm_cmpgt_epi32(ix, _mm_set1_epi32(-1)),
                    _mm_cmpgt_epi32(_mm_set1_epi32(grid.width()), ix));
  const __m128 mask = _mm_castsi128_ps(in_row);
  const float* row = grid.cells() + static_cast<std::size_t>(iy) *
                                        static_cast<std::size_t>(grid.width());
  __m128 p = _mm_mask_i32gather_ps(oob, row, ix, mask, 4);
  const __m128 unknown = _mm_and_ps(
      mask, _mm_cmpeq_ps(p, _mm_set1_ps(ProbabilityGrid::kUnknownP)));
  p = _mm_blendv_ps(p, _mm_set1_ps(ProbabilityGrid::kUnknownMatchP), unknown);
  return _mm256_cvtps_pd(p);
}

/// `combine`'s three blends on four lanes, unfused and in its order.
__attribute__((target("avx2"))) inline __m256d blend4(__m256d d00, __m256d d10,
                                                      __m256d d01, __m256d d11,
                                                      __m256d tx, __m256d ty) {
  const __m256d top =
      _mm256_add_pd(d00, _mm256_mul_pd(tx, _mm256_sub_pd(d10, d00)));
  const __m256d bot =
      _mm256_add_pd(d01, _mm256_mul_pd(tx, _mm256_sub_pd(d11, d01)));
  return _mm256_add_pd(top, _mm256_mul_pd(ty, _mm256_sub_pd(bot, top)));
}

/// One axis half on four lanes: the sample coordinate
/// g = (v - origin) / resolution - 0.5, its cell `floor_to_cell(g)` (NaN
/// and values below -1e9 clamp to -1e9, values above 1e9 to 1e9) and the
/// fraction g - cell.
struct Axis4 {
  __m128i cell;
  __m256d frac;
};

__attribute__((target("avx2"))) inline Axis4 axis4(__m256d v, __m256d origin,
                                                   __m256d resolution) {
  const __m256d g = _mm256_sub_pd(
      _mm256_div_pd(_mm256_sub_pd(v, origin), resolution), _mm256_set1_pd(0.5));
  const __m256d lo = _mm256_set1_pd(-1e9);
  const __m256d hi = _mm256_set1_pd(1e9);
  __m256d c = _mm256_floor_pd(g);
  c = _mm256_blendv_pd(c, lo, _mm256_cmp_pd(c, lo, _CMP_NGE_UQ));
  c = _mm256_blendv_pd(c, hi, _mm256_cmp_pd(c, hi, _CMP_GT_OQ));
  const __m128i cell = _mm256_cvttpd_epi32(c);
  return {cell, _mm256_sub_pd(g, _mm256_cvtepi32_pd(cell))};
}

/// `fill_scalar` four entries per pass (DESIGN §15). A point's (or row's)
/// last pass may run past its entries into the next one's, which the next
/// pass rewrites, or into the pad.
__attribute__((target("avx2"))) void fill_avx2(const ProbabilityGrid& grid,
                                               AxisTables& t) {
  const __m256d res = _mm256_set1_pd(grid.resolution());
  const __m256d ox = _mm256_set1_pd(grid.origin().x);
  const __m256d oy = _mm256_set1_pd(grid.origin().y);
  for (std::size_t i = 0; i < t.points; ++i) {
    const __m256d r = _mm256_set1_pd(t.rx[i]);
    for (std::size_t k = 0; k < t.width; k += 4) {
      const Axis4 a =
          axis4(_mm256_add_pd(_mm256_loadu_pd(t.x_offset.data() + k), r), ox,
                res);
      const std::size_t at = i * t.width + k;
      _mm_storeu_si128(reinterpret_cast<__m128i*>(t.x_cell.data() + at),
                       a.cell);
      _mm256_storeu_pd(t.x_frac.data() + at, a.frac);
    }
  }
  for (std::size_t k = 0; k < t.width; ++k) {
    const __m256d o = _mm256_set1_pd(t.y_offset[k]);
    for (std::size_t i = 0; i < t.points; i += 4) {
      const Axis4 a =
          axis4(_mm256_add_pd(o, _mm256_loadu_pd(t.ry.data() + i)), oy, res);
      const std::size_t at = k * t.points + i;
      _mm_storeu_si128(reinterpret_cast<__m128i*>(t.y_cell.data() + at),
                       a.cell);
      _mm256_storeu_pd(t.y_frac.data() + at, a.frac);
    }
  }
  // Clean upper-YMM state before returning to scalar code (DESIGN §15).
  _mm256_zeroupper();
}

/// One row pass over the x-candidates [k, k + live) with live <= 8; kHigh
/// when lanes 4..7 carry candidates. Lane l sums candidate k + l's points
/// in point order, with `combine`'s blends unfused and in its order.
///
/// A point whose two rows lie inside the grid, and whose live lanes' cells
/// x and x + 1 all fall in the eight cells from its first lane's x cell
/// onward, loads those eight cells of each row once and permutes them to
/// the lanes. Any other point takes the masked gathers.
template <bool kHigh>
__attribute__((target("avx2"))) void score_pass(const ProbabilityGrid& grid,
                                                const AxisTables& t,
                                                std::size_t row, std::size_t k,
                                                std::size_t live,
                                                double* sums) {
  const int* y_cell = t.y_cell.data() + row * t.points;
  const double* y_frac = t.y_frac.data() + row * t.points;
  const int width = grid.width();
  const int height = grid.height();
  const __m128 oob = _mm_set1_ps(grid.out_of_bounds_p());
  const __m256 unknown = _mm256_set1_ps(ProbabilityGrid::kUnknownP);
  const __m256 unknown_match = _mm256_set1_ps(ProbabilityGrid::kUnknownMatchP);
  const __m256i one = _mm256_set1_epi32(1);
  const __m256i six = _mm256_set1_epi32(6);
  const __m256i live_lanes = _mm256_cmpgt_epi32(
      _mm256_set1_epi32(static_cast<int>(live)),
      _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
  __m256d acc_lo = _mm256_setzero_pd();
  __m256d acc_hi = _mm256_setzero_pd();
  for (std::size_t i = 0; i < t.points; ++i) {
    const std::size_t at = i * t.width + k;
    const __m256i x0 = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(t.x_cell.data() + at));
    const __m256d ty = _mm256_set1_pd(y_frac[i]);
    const __m256d tx_lo = _mm256_loadu_pd(t.x_frac.data() + at);
    const int iy = y_cell[i];
    const int base = t.x_cell[at];
    const __m256i rel = _mm256_sub_epi32(x0, _mm256_set1_epi32(base));
    // A live lane misses the window when rel < 0 or rel + 1 > 7.
    const __m256i miss = _mm256_or_si256(
        _mm256_cmpgt_epi32(rel, six),
        _mm256_cmpgt_epi32(_mm256_setzero_si256(), rel));
    if (iy >= 0 && iy < height - 1 && base >= 0 && base <= width - 8 &&
        _mm256_testz_si256(miss, live_lanes)) {
      const float* r0 = grid.cells() +
                        static_cast<std::size_t>(iy) *
                            static_cast<std::size_t>(width) +
                        static_cast<std::size_t>(base);
      __m256 w0 = _mm256_loadu_ps(r0);
      __m256 w1 = _mm256_loadu_ps(r0 + width);
      w0 = _mm256_blendv_ps(w0, unknown_match,
                            _mm256_cmp_ps(w0, unknown, _CMP_EQ_OQ));
      w1 = _mm256_blendv_ps(w1, unknown_match,
                            _mm256_cmp_ps(w1, unknown, _CMP_EQ_OQ));
      const __m256i rel1 = _mm256_add_epi32(rel, one);
      const __m256 d00 = _mm256_permutevar8x32_ps(w0, rel);
      const __m256 d10 = _mm256_permutevar8x32_ps(w0, rel1);
      const __m256 d01 = _mm256_permutevar8x32_ps(w1, rel);
      const __m256 d11 = _mm256_permutevar8x32_ps(w1, rel1);
      acc_lo = _mm256_add_pd(
          acc_lo,
          blend4(_mm256_cvtps_pd(_mm256_castps256_ps128(d00)),
                 _mm256_cvtps_pd(_mm256_castps256_ps128(d10)),
                 _mm256_cvtps_pd(_mm256_castps256_ps128(d01)),
                 _mm256_cvtps_pd(_mm256_castps256_ps128(d11)), tx_lo, ty));
      if constexpr (kHigh) {
        acc_hi = _mm256_add_pd(
            acc_hi,
            blend4(_mm256_cvtps_pd(_mm256_extractf128_ps(d00, 1)),
                   _mm256_cvtps_pd(_mm256_extractf128_ps(d10, 1)),
                   _mm256_cvtps_pd(_mm256_extractf128_ps(d01, 1)),
                   _mm256_cvtps_pd(_mm256_extractf128_ps(d11, 1)),
                   _mm256_loadu_pd(t.x_frac.data() + at + 4), ty));
      }
    } else {
      const __m128i c0 = _mm256_castsi256_si128(x0);
      const __m128i c1 = _mm_add_epi32(c0, _mm256_castsi256_si128(one));
      acc_lo = _mm256_add_pd(
          acc_lo, blend4(probability4(grid, c0, iy, oob),
                         probability4(grid, c1, iy, oob),
                         probability4(grid, c0, iy + 1, oob),
                         probability4(grid, c1, iy + 1, oob), tx_lo, ty));
      if constexpr (kHigh) {
        const __m128i h0 = _mm256_extracti128_si256(x0, 1);
        const __m128i h1 = _mm_add_epi32(h0, _mm256_castsi256_si128(one));
        acc_hi = _mm256_add_pd(
            acc_hi, blend4(probability4(grid, h0, iy, oob),
                           probability4(grid, h1, iy, oob),
                           probability4(grid, h0, iy + 1, oob),
                           probability4(grid, h1, iy + 1, oob),
                           _mm256_loadu_pd(t.x_frac.data() + at + 4), ty));
      }
    }
  }
  alignas(32) double lane_sums[kLanes] = {};
  _mm256_store_pd(lane_sums, acc_lo);
  _mm256_store_pd(lane_sums + 4, acc_hi);
  std::copy_n(lane_sums, live, sums + k);
}

/// `score_row_scalar` in passes of up to `lanes` x-candidates, the last
/// pass taking what is left of the row (DESIGN §15). Needs a grid of at
/// least 2 x 2 cells (`combine`'s blending case).
__attribute__((target("avx2"))) void score_row_avx2(const ProbabilityGrid& grid,
                                                    const AxisTables& t,
                                                    std::size_t row,
                                                    std::size_t lanes,
                                                    double* sums) {
  for (std::size_t k = 0; k < t.width; k += lanes) {
    const std::size_t live = std::min(lanes, t.width - k);
    if (live > 4) {
      score_pass<true>(grid, t, row, k, live, sums);
    } else {
      score_pass<false>(grid, t, row, k, live, sums);
    }
  }
  // Clean upper-YMM state before returning to scalar code (DESIGN §15).
  _mm256_zeroupper();
}

/// The cells around four points along one axis: `at`, the cell's part of
/// the flat index (cell * stride: stride 1 on x, the row width on y), and
/// whether cell and cell + 1 lie inside the axis's n cells.
struct Bracket4 {
  __m128i at;
  __m128i in0;
  __m128i in1;
  __m256d frac;
};

__attribute__((target("avx2"))) inline __m128i inside4(__m128i c, int n) {
  return _mm_and_si128(_mm_cmpgt_epi32(c, _mm_set1_epi32(-1)),
                       _mm_cmpgt_epi32(_mm_set1_epi32(n), c));
}

__attribute__((target("avx2"))) inline Bracket4 bracket4(const Axis4& a,
                                                         int n, int stride) {
  const __m128i at =
      stride == 1 ? a.cell : _mm_mullo_epi32(a.cell, _mm_set1_epi32(stride));
  return {at, inside4(a.cell, n),
          inside4(_mm_add_epi32(a.cell, _mm_set1_epi32(1)), n), a.frac};
}

/// `probability()` of four cells by flat index: lanes clear in `inside`
/// read the out-of-bounds value without loading, unknown cells read
/// `kUnknownMatchP`.
__attribute__((target("avx2"))) inline __m256d cell4(const float* cells,
                                                     __m128i index,
                                                     __m128i inside,
                                                     __m128 oob) {
  const __m128 mask = _mm_castsi128_ps(inside);
  __m128 p = _mm_mask_i32gather_ps(oob, cells, index, mask, 4);
  const __m128 unknown = _mm_and_ps(
      mask, _mm_cmpeq_ps(p, _mm_set1_ps(ProbabilityGrid::kUnknownP)));
  p = _mm_blendv_ps(p, _mm_set1_ps(ProbabilityGrid::kUnknownMatchP), unknown);
  return _mm256_cvtps_pd(p);
}

/// `combine(x, y)` on four points with their own cells.
__attribute__((target("avx2"))) inline __m256d combine4(
    const float* cells, int width, const Bracket4& x, const Bracket4& y,
    __m128 oob) {
  const __m128i i00 = _mm_add_epi32(y.at, x.at);
  const __m128i i10 = _mm_add_epi32(i00, _mm_set1_epi32(1));
  const __m128i i01 = _mm_add_epi32(i00, _mm_set1_epi32(width));
  const __m128i i11 = _mm_add_epi32(i01, _mm_set1_epi32(1));
  return blend4(cell4(cells, i00, _mm_and_si128(x.in0, y.in0), oob),
                cell4(cells, i10, _mm_and_si128(x.in1, y.in0), oob),
                cell4(cells, i01, _mm_and_si128(x.in0, y.in1), oob),
                cell4(cells, i11, _mm_and_si128(x.in1, y.in1), oob), x.frac,
                y.frac);
}

/// `accumulate_scalar` four points per pass (DESIGN §15): the transform,
/// the six axis halves, the five blends, the gradient, the Jacobian and the
/// residual run on four lanes, unfused and in the scalar order; the sums
/// stay scalar and in point order. `px` and `py` hold the n points padded
/// to a multiple of four; padding lanes are computed and dropped. Needs a
/// grid of at least 2 x 2 cells whose flat cell indices fit an int.
__attribute__((target("avx2"))) void accumulate_avx2(
    const ProbabilityGrid& grid, const PoseFrame& frame, const double* px,
    const double* py, std::size_t n, double inv_n, NormalEquations& eq) {
  const float* cells = grid.cells();
  const int width = grid.width();
  const int height = grid.height();
  const __m128 oob = _mm_set1_ps(grid.out_of_bounds_p());
  const __m256d res = _mm256_set1_pd(grid.resolution());
  const __m256d half = _mm256_set1_pd(0.5 * grid.resolution());
  const __m256d ox = _mm256_set1_pd(grid.origin().x);
  const __m256d oy = _mm256_set1_pd(grid.origin().y);
  const __m256d ex = _mm256_set1_pd(frame.pose.x);
  const __m256d ey = _mm256_set1_pd(frame.pose.y);
  const __m256d c = _mm256_set1_pd(frame.c);
  const __m256d s = _mm256_set1_pd(frame.s);
  const __m256d neg_s = _mm256_set1_pd(-frame.s);
  const __m256d sign = _mm256_set1_pd(-0.0);
  const __m256d scale = _mm256_set1_pd(inv_n);
  // Each pass's twelve terms per point, read back lane by lane.
  alignas(32) double tb[3][4] = {};
  alignas(32) double th[3][3][4] = {};
  for (std::size_t i = 0; i < n; i += 4) {
    const __m256d x = _mm256_loadu_pd(px + i);
    const __m256d y = _mm256_loadu_pd(py + i);
    const __m256d wx =
        _mm256_sub_pd(_mm256_add_pd(ex, _mm256_mul_pd(c, x)),
                      _mm256_mul_pd(s, y));
    const __m256d wy =
        _mm256_add_pd(_mm256_add_pd(ey, _mm256_mul_pd(s, x)),
                      _mm256_mul_pd(c, y));
    const Bracket4 x0 = bracket4(axis4(wx, ox, res), width, 1);
    const Bracket4 xp =
        bracket4(axis4(_mm256_add_pd(wx, half), ox, res), width, 1);
    const Bracket4 xm =
        bracket4(axis4(_mm256_sub_pd(wx, half), ox, res), width, 1);
    const Bracket4 y0 = bracket4(axis4(wy, oy, res), height, width);
    const Bracket4 yp =
        bracket4(axis4(_mm256_add_pd(wy, half), oy, res), height, width);
    const Bracket4 ym =
        bracket4(axis4(_mm256_sub_pd(wy, half), oy, res), height, width);
    const __m256d pc = combine4(cells, width, x0, y0, oob);
    const __m256d gx =
        _mm256_div_pd(_mm256_sub_pd(combine4(cells, width, xp, y0, oob),
                                    combine4(cells, width, xm, y0, oob)),
                      res);
    const __m256d gy =
        _mm256_div_pd(_mm256_sub_pd(combine4(cells, width, x0, yp, oob),
                                    combine4(cells, width, x0, ym, oob)),
                      res);
    const __m256d dxt =
        _mm256_sub_pd(_mm256_mul_pd(neg_s, x), _mm256_mul_pd(c, y));
    const __m256d dyt = _mm256_sub_pd(_mm256_mul_pd(c, x), _mm256_mul_pd(s, y));
    const __m256d jt =
        _mm256_add_pd(_mm256_mul_pd(gx, dxt), _mm256_mul_pd(gy, dyt));
    const __m256d r = _mm256_sub_pd(_mm256_set1_pd(1.0), pc);
    // NormalEquations::add's products, four points at a time.
    const __m256d j[3] = {_mm256_xor_pd(gx, sign), _mm256_xor_pd(gy, sign),
                          _mm256_xor_pd(jt, sign)};
    for (int a = 0; a < 3; ++a) {
      _mm256_store_pd(
          tb[a],
          _mm256_mul_pd(_mm256_mul_pd(_mm256_xor_pd(j[a], sign), r), scale));
      for (int bb = 0; bb < 3; ++bb) {
        _mm256_store_pd(th[a][bb],
                        _mm256_mul_pd(_mm256_mul_pd(j[a], j[bb]), scale));
      }
    }
    const std::size_t live = std::min<std::size_t>(4, n - i);
    for (std::size_t l = 0; l < live; ++l) {
      for (int a = 0; a < 3; ++a) {
        eq.b[a] += tb[a][l];
        for (int bb = 0; bb < 3; ++bb) eq.h[a][bb] += th[a][bb][l];
      }
    }
  }
  // Clean upper-YMM state before returning to scalar code (DESIGN §15).
  _mm256_zeroupper();
}
#endif

/// Lanes per row pass: the most x-candidates, up to eight, whose cells x
/// and x + 1 span at most eight cells when the step is exact, so a pass
/// of L lanes needs (L - 1) * step / resolution <= 6.
std::size_t lanes_per_pass(double step, double resolution) {
  const double cells = step / resolution;
  if (!(cells > 6.0 / 7.0)) return kLanes;
  return 1 + static_cast<std::size_t>(6.0 / cells);
}

/// Whether the row and Gauss-Newton kernels run: AVX2, and a grid of at
/// least 2 x 2 cells (`combine`'s blending case) whose flat cell indices
/// fit an int.
bool use_avx2(simd::Backend backend, const ProbabilityGrid& grid) {
  return backend == simd::Backend::kAvx2 && grid.width() >= 2 &&
         grid.height() >= 2 &&
         static_cast<std::int64_t>(grid.width()) * grid.height() <=
             std::numeric_limits<int>::max();
}

void fill(simd::Backend backend, const ProbabilityGrid& grid, AxisTables& t) {
#if defined(SRL_SIMD_X86_AVX2)
  if (backend == simd::Backend::kAvx2) {
    fill_avx2(grid, t);
    return;
  }
#else
  (void)backend;
#endif
  fill_scalar(grid, t);
}

void score_row(bool vector_rows, const ProbabilityGrid& grid,
               const AxisTables& t, std::size_t row, std::size_t lanes,
               double* sums) {
#if defined(SRL_SIMD_X86_AVX2)
  if (vector_rows) {
    score_row_avx2(grid, t, row, lanes, sums);
    return;
  }
#else
  (void)vector_rows;
  (void)lanes;
#endif
  score_row_scalar(grid, t, row, sums);
}

}  // namespace

double score_pose(const ProbabilityGrid& grid, const Pose2& pose,
                  std::span<const Vec2> points) {
  if (points.empty()) return 0.0;
  double sum = 0.0;
  for (const Vec2& p : points) sum += grid.interpolate(pose.transform(p));
  return sum / static_cast<double>(points.size());
}

ScanMatchResult CorrelativeScanMatcher::match(
    const ProbabilityGrid& grid, const Pose2& seed,
    std::span<const Vec2> points) const {
  ScanMatchResult best;
  best.pose = seed;
  best.score = -1.0;

  const int n_ang = std::max(
      1, static_cast<int>(std::round(options_.angular_window /
                                     options_.angular_step)));
  const int n_lin = std::max(
      1,
      static_cast<int>(std::round(options_.linear_window /
                                  options_.linear_step)));

  // Rotate the point cloud once per candidate angle, then slide it across
  // the translation window (the standard CSM factorization).
  //
  // Candidates carry a tiny offset penalty so that flat score plateaus —
  // e.g. the longitudinal direction of a featureless corridor — resolve to
  // the *seed* instead of the first-visited window corner. Without it the
  // matcher acquires a systematic drift along any degenerate direction.
  //
  // Each interpolation splits into an x half and a y half that depend on
  // one axis's offset only, so they are tabulated once per angle and the
  // window's rows are scored from the tables, up to eight x-candidates per
  // pass on the AVX2 backend. A row is scored in full before its candidates
  // are compared in window order, so ties still go to the first-visited one.
  constexpr double kTieBreak = 2e-3;
  double best_penalized = -1.0;
  const simd::Backend backend = simd::active();
  const bool vector_rows = use_avx2(backend, grid);
  const std::size_t lanes =
      lanes_per_pass(options_.linear_step, grid.resolution());
  AxisTables tables{seed, n_lin, options_.linear_step, points.size()};
  std::vector<double> sums(tables.width);
  for (int ia = -n_ang; ia <= n_ang; ++ia) {
    const double theta =
        normalize_angle(seed.theta + ia * options_.angular_step);
    tables.rotate(std::cos(theta), std::sin(theta), points);
    fill(backend, grid, tables);
    const double ang_frac =
        static_cast<double>(ia) / std::max(n_ang, 1);
    for (int iy = -n_lin; iy <= n_lin; ++iy) {
      score_row(vector_rows, grid, tables,
                static_cast<std::size_t>(iy + n_lin), lanes, sums.data());
      for (int ix = -n_lin; ix <= n_lin; ++ix) {
        const double tx = seed.x + ix * options_.linear_step;
        const double ty = seed.y + iy * options_.linear_step;
        const double sum = sums[static_cast<std::size_t>(ix + n_lin)];
        const double score =
            points.empty() ? 0.0 : sum / static_cast<double>(points.size());
        const double lin_frac_sq =
            (static_cast<double>(ix) * ix + static_cast<double>(iy) * iy) /
            (static_cast<double>(n_lin) * n_lin + 1e-9);
        const double penalized =
            score - kTieBreak * (lin_frac_sq + ang_frac * ang_frac);
        if (penalized > best_penalized) {
          best_penalized = penalized;
          best.score = score;
          best.pose = Pose2{tx, ty, theta};
        }
      }
    }
  }
  best.ok = best.score >= options_.min_score;
  return best;
}

ScanMatchResult GaussNewtonMatcher::refine(const ProbabilityGrid& grid,
                                           const Pose2& anchor,
                                           const Pose2& start,
                                           std::span<const Vec2> points) const {
  Pose2 est = start;
  const Pose2& seed = anchor;
  const double inv_n =
      points.empty() ? 0.0 : 1.0 / static_cast<double>(points.size());

  // The AVX2 pass reads the points as x and y columns padded to a multiple
  // of four.
  const bool vector_points =
      !points.empty() && use_avx2(simd::active(), grid);
  std::vector<double> px;
  std::vector<double> py;
  if (vector_points) {
    px.resize(round_up4(points.size()));
    py.resize(round_up4(points.size()));
    for (std::size_t i = 0; i < points.size(); ++i) {
      px[i] = points[i].x;
      py[i] = points[i].y;
    }
  }

  for (int it = 0; it < options_.max_iterations; ++it) {
    // Accumulate the 3x3 normal equations for residuals r_i = 1 - P(T p_i),
    // J_i = -dP/dxi, plus the quadratic anchor terms about the seed.
    NormalEquations eq;
    const PoseFrame frame{est};
#if defined(SRL_SIMD_X86_AVX2)
    if (vector_points) {
      accumulate_avx2(grid, frame, px.data(), py.data(), points.size(), inv_n,
                      eq);
    } else {
      accumulate_scalar(grid, frame, points, inv_n, eq);
    }
#else
    accumulate_scalar(grid, frame, points, inv_n, eq);
#endif
    double (&h)[3][3] = eq.h;
    double (&b)[3] = eq.b;

    // Anchor residuals: sqrt(w) * (x - seed.x) etc. — Cartographer's
    // translation/rotation delta costs.
    const double wt = options_.translation_anchor;
    const double wr = options_.rotation_anchor;
    h[0][0] += wt;
    h[1][1] += wt;
    h[2][2] += wr;
    b[0] += -wt * (est.x - seed.x);
    b[1] += -wt * (est.y - seed.y);
    b[2] += -wr * angle_diff(est.theta, seed.theta);

    for (int a = 0; a < 3; ++a) h[a][a] += options_.damping;

    // Solve the 3x3 system by Cramer-free Gaussian elimination.
    double m[3][4] = {{h[0][0], h[0][1], h[0][2], b[0]},
                      {h[1][0], h[1][1], h[1][2], b[1]},
                      {h[2][0], h[2][1], h[2][2], b[2]}};
    bool singular = false;
    for (int col = 0; col < 3; ++col) {
      int piv = col;
      for (int r2 = col + 1; r2 < 3; ++r2) {
        if (std::abs(m[r2][col]) > std::abs(m[piv][col])) piv = r2;
      }
      if (std::abs(m[piv][col]) < 1e-12) {
        singular = true;
        break;
      }
      std::swap(m[piv], m[col]);
      for (int r2 = 0; r2 < 3; ++r2) {
        if (r2 == col) continue;
        const double f = m[r2][col] / m[col][col];
        for (int c2 = col; c2 < 4; ++c2) m[r2][c2] -= f * m[col][c2];
      }
    }
    if (singular) break;
    const double dx = m[0][3] / m[0][0];
    const double dy = m[1][3] / m[1][1];
    const double dt = m[2][3] / m[2][2];

    est.x += dx;
    est.y += dy;
    est.theta = normalize_angle(est.theta + dt);
    if (dx * dx + dy * dy + dt * dt <
        options_.converge_eps * options_.converge_eps) {
      break;
    }
  }

  ScanMatchResult out;
  out.pose = est;
  out.score = score_pose(grid, est, points);
  out.ok = true;
  return out;
}

}  // namespace srl
