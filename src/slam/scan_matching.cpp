#include "slam/scan_matching.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

#include "common/angles.hpp"
#include "common/simd.hpp"

#if defined(SRL_SIMD_X86_AVX2)
#include <immintrin.h>
#endif

namespace srl {
namespace {

using AxisSample = ProbabilityGrid::AxisSample;

/// The axis halves of one candidate angle: entry (k, i) is scan point i
/// under translation candidate k, counted from the window's low edge. The
/// x half is point-major, so the four x-candidates of one vector pass sit
/// side by side; the y half is candidate-major, so one row's points are
/// contiguous.
struct AxisTables {
  std::size_t width{0};   ///< translation candidates per axis
  std::size_t points{0};
  std::vector<int> x_cell;     ///< [i * width + k]
  std::vector<double> x_frac;  ///< [i * width + k]
  std::vector<AxisSample> y;   ///< [k * points + i]

  AxisTables(std::size_t w, std::size_t n)
      : width{w}, points{n}, x_cell(w * n), x_frac(w * n), y(w * n) {}

  /// Fill the tables for the scan points rotated to one candidate angle,
  /// translated by offset (k - n_lin) * step from the seed on each axis.
  /// The operations are `interpolate`'s own, so every half carries the
  /// bits the per-candidate loop computed.
  void fill(const ProbabilityGrid& grid, const Pose2& seed, int n_lin,
            double step, const std::vector<Vec2>& rotated) {
    for (std::size_t k = 0; k < width; ++k) {
      const int offset = static_cast<int>(k) - n_lin;
      const double tx = seed.x + offset * step;
      const double ty = seed.y + offset * step;
      for (std::size_t i = 0; i < points; ++i) {
        const AxisSample ax = grid.axis_x(tx + rotated[i].x);
        x_cell[i * width + k] = ax.cell;
        x_frac[i * width + k] = ax.frac;
        y[k * points + i] = grid.axis_y(ty + rotated[i].y);
      }
    }
  }
};

/// Reference row scorer: sums[k] for x-candidates k >= k_begin of y-row
/// `row` is the sum of the interpolated probabilities of all points,
/// accumulated from +0.0 in point order.
void score_row_scalar(const ProbabilityGrid& grid, const AxisTables& t,
                      std::size_t row, std::size_t k_begin, double* sums) {
  const AxisSample* y = t.y.data() + row * t.points;
  for (std::size_t k = k_begin; k < t.width; ++k) sums[k] = 0.0;
  for (std::size_t i = 0; i < t.points; ++i) {
    const std::size_t at = i * t.width;
    for (std::size_t k = k_begin; k < t.width; ++k) {
      sums[k] += grid.combine({t.x_cell[at + k], t.x_frac[at + k]}, y[i]);
    }
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

/// `score_row_scalar` four x-candidates per pass (DESIGN §15): lane l sums
/// candidate k + l's points in point order, and `combine`'s blends run
/// unfused in its order, so every sum carries the scalar bits.
/// Needs a grid of at least 2 x 2 cells (`combine`'s blending case).
__attribute__((target("avx2"))) void score_row_avx2(const ProbabilityGrid& grid,
                                                    const AxisTables& t,
                                                    std::size_t row,
                                                    double* sums) {
  const AxisSample* y = t.y.data() + row * t.points;
  const __m128 oob = _mm_set1_ps(grid.out_of_bounds_p());
  const __m128i one = _mm_set1_epi32(1);
  std::size_t k = 0;
  for (; k + 4 <= t.width; k += 4) {
    __m256d acc = _mm256_setzero_pd();
    for (std::size_t i = 0; i < t.points; ++i) {
      const std::size_t at = i * t.width + k;
      const __m128i x0 = _mm_loadu_si128(
          reinterpret_cast<const __m128i*>(t.x_cell.data() + at));
      const __m128i x1 = _mm_add_epi32(x0, one);
      const __m256d tx = _mm256_loadu_pd(t.x_frac.data() + at);
      const __m256d ty = _mm256_set1_pd(y[i].frac);
      const __m256d d00 = probability4(grid, x0, y[i].cell, oob);
      const __m256d d10 = probability4(grid, x1, y[i].cell, oob);
      const __m256d d01 = probability4(grid, x0, y[i].cell + 1, oob);
      const __m256d d11 = probability4(grid, x1, y[i].cell + 1, oob);
      const __m256d top =
          _mm256_add_pd(d00, _mm256_mul_pd(tx, _mm256_sub_pd(d10, d00)));
      const __m256d bot =
          _mm256_add_pd(d01, _mm256_mul_pd(tx, _mm256_sub_pd(d11, d01)));
      acc = _mm256_add_pd(
          acc, _mm256_add_pd(top, _mm256_mul_pd(ty, _mm256_sub_pd(bot, top))));
    }
    _mm256_storeu_pd(sums + k, acc);
  }
  // Clean upper-YMM state before the remainder and the return (DESIGN §15).
  _mm256_zeroupper();
  if (k < t.width) score_row_scalar(grid, t, row, k, sums);
}
#endif

void score_row(simd::Backend backend, const ProbabilityGrid& grid,
               const AxisTables& t, std::size_t row, double* sums) {
#if defined(SRL_SIMD_X86_AVX2)
  if (backend == simd::Backend::kAvx2 && grid.width() >= 2 &&
      grid.height() >= 2) {
    score_row_avx2(grid, t, row, sums);
    return;
  }
#else
  (void)backend;
#endif
  score_row_scalar(grid, t, row, 0, sums);
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
  // window's rows are scored from the tables, four x-candidates per pass on
  // the AVX2 backend. A row is scored in full before its candidates are
  // compared in window order, so ties still go to the first-visited one.
  constexpr double kTieBreak = 2e-3;
  double best_penalized = -1.0;
  const simd::Backend backend = simd::active();
  const auto width = static_cast<std::size_t>(2 * n_lin + 1);
  AxisTables tables{width, points.size()};
  std::vector<double> sums(width);
  std::vector<Vec2> rotated(points.size());
  for (int ia = -n_ang; ia <= n_ang; ++ia) {
    const double theta =
        normalize_angle(seed.theta + ia * options_.angular_step);
    const double c = std::cos(theta);
    const double s = std::sin(theta);
    for (std::size_t i = 0; i < points.size(); ++i) {
      rotated[i] = {c * points[i].x - s * points[i].y,
                    s * points[i].x + c * points[i].y};
    }
    tables.fill(grid, seed, n_lin, options_.linear_step, rotated);
    const double ang_frac =
        static_cast<double>(ia) / std::max(n_ang, 1);
    for (int iy = -n_lin; iy <= n_lin; ++iy) {
      score_row(backend, grid, tables, static_cast<std::size_t>(iy + n_lin),
                sums.data());
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
  const double res = grid.resolution();
  const double inv_n =
      points.empty() ? 0.0 : 1.0 / static_cast<double>(points.size());

  for (int it = 0; it < options_.max_iterations; ++it) {
    // Accumulate the 3x3 normal equations for residuals r_i = 1 - P(T p_i),
    // J_i = -dP/dxi, plus the quadratic anchor terms about the seed.
    double h[3][3] = {{0.0}};
    double b[3] = {0.0, 0.0, 0.0};
    const double c = std::cos(est.theta);
    const double s = std::sin(est.theta);

    for (const Vec2& p : points) {
      const Vec2 w = est.transform(p);
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
      const double r = 1.0 - pc;
      const double j[3] = {-gx, -gy, -jt};
      for (int a = 0; a < 3; ++a) {
        b[a] += -j[a] * r * inv_n;
        for (int bb = 0; bb < 3; ++bb) h[a][bb] += j[a] * j[bb] * inv_n;
      }
    }

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
