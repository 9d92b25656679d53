#include "range/lookup_table.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <thread>

#include "common/angles.hpp"
#include "common/parallel.hpp"
#include "range/avx2_lanes.hpp"

#if defined(SRL_SIMD_X86_AVX2)
#include <immintrin.h>
#endif

namespace srl {
namespace {

/// The map as the build walks it: one flag per cell (0xFF = blocks a ray),
/// framed by a ring of blocking cells. A walk moves one cell per step from
/// an in-map cell, so the first off-map cell it enters is in the frame and
/// ends it there, as `blocks_ray` does off the map. Cell (ix, iy) sits at
/// index (iy + 1) * pitch + ix + 1.
struct WalkGrid {
  std::vector<std::uint8_t> blocks;  ///< framed flags, then 7 guard bytes
  std::int64_t pitch{0};             ///< framed row length
  std::int64_t cells{0};             ///< framed cell count (no guard)
  double max_range{0.0};

  WalkGrid(const OccupancyGrid& grid, double range)
      : pitch{static_cast<std::int64_t>(grid.width()) + 2},
        cells{pitch * (static_cast<std::int64_t>(grid.height()) + 2)},
        max_range{range} {
    // The guard keeps the AVX2 kernel's 64-bit gather of the last flag
    // inside the allocation.
    blocks.assign(static_cast<std::size_t>(cells) + 7, 0xFF);
    for (int iy = 0; iy < grid.height(); ++iy) {
      for (int ix = 0; ix < grid.width(); ++ix) {
        blocks[static_cast<std::size_t>(index(ix, iy))] =
            grid.blocks_ray(ix, iy) ? 0xFF : 0;
      }
    }
  }

  std::int64_t index(int ix, int iy) const {
    return (static_cast<std::int64_t>(iy) + 1) * pitch + ix + 1;
  }
};

/// BresenhamCaster::range's per-heading values for one bin. They depend on
/// the heading alone, so they are the same pure functions of the same
/// input whether computed once per bin or once per ray.
struct BinRay {
  double dx{0.0};
  double dy{0.0};
  double tdelta_x{0.0};
  double tdelta_y{0.0};
  int step_x{0};
  int step_y{0};
  std::int64_t move_y{0};  ///< step_y * pitch: one framed row
};

BinRay bin_ray(int bt, int theta_bins, double res, std::int64_t pitch) {
  const double theta = kTwoPi * bt / theta_bins;
  const double inf = std::numeric_limits<double>::infinity();
  BinRay b;
  b.dx = std::cos(theta);
  b.dy = std::sin(theta);
  b.step_x = b.dx > 0.0 ? 1 : (b.dx < 0.0 ? -1 : 0);
  b.step_y = b.dy > 0.0 ? 1 : (b.dy < 0.0 ? -1 : 0);
  b.tdelta_x = b.step_x != 0 ? res / std::abs(b.dx) : inf;
  b.tdelta_y = b.step_y != 0 ? res / std::abs(b.dy) : inf;
  b.move_y = b.step_y * pitch;
  return b;
}

/// The origins the build casts from, one per cell that does not block, in
/// row order. Per axis, `ahead` and `behind` are
/// BresenhamCaster::range's numerators for a positive and a negative step,
/// (cell_min + res - p) and (cell_min - p), where cell_min is the start
/// cell's lower edge. Padded with dead lanes to a multiple of 8.
struct Origins {
  std::vector<double> ahead_x, behind_x, ahead_y, behind_y;
  /// Framed index of the start cell; -1 where the start cell blocks (every
  /// entry is then 0) and in the padding.
  std::vector<std::int64_t> cell;

  std::size_t size() const { return cell.size(); }

  void add(const OccupancyGrid& grid, const WalkGrid& g, int ix, int iy) {
    const Vec2 p = grid.grid_to_world(ix, iy);
    // The start cell as range() takes it, not assumed to be (ix, iy).
    const GridIndex s = grid.world_to_grid(p);
    if (grid.blocks_ray(s.ix, s.iy)) {
      push(0.0, 0.0, 0.0, 0.0, -1);
      return;
    }
    const double res = grid.resolution();
    const double cell_min_x = grid.origin().x + s.ix * res;
    const double cell_min_y = grid.origin().y + s.iy * res;
    push(cell_min_x + res - p.x, cell_min_x - p.x, cell_min_y + res - p.y,
         cell_min_y - p.y, g.index(s.ix, s.iy));
  }

  void pad_to_lanes() {
    while (cell.size() % 8 != 0) push(1.0, 1.0, 1.0, 1.0, -1);
  }

 private:
  void push(double ax, double bx, double ay, double by, std::int64_t c) {
    ahead_x.push_back(ax);
    behind_x.push_back(bx);
    ahead_y.push_back(ay);
    behind_y.push_back(by);
    cell.push_back(c);
  }
};

/// BresenhamCaster::range from origin k along bin b, past its start-cell
/// test: the reference, and the path without AVX2.
float walk(const WalkGrid& g, const Origins& o, std::size_t k,
           const BinRay& b) {
  if (o.cell[k] < 0) return 0.0F;
  const double inf = std::numeric_limits<double>::infinity();
  double tmax_x = b.step_x > 0   ? o.ahead_x[k] / b.dx
                  : b.step_x < 0 ? o.behind_x[k] / b.dx
                                 : inf;
  double tmax_y = b.step_y > 0   ? o.ahead_y[k] / b.dy
                  : b.step_y < 0 ? o.behind_y[k] / b.dy
                                 : inf;
  std::int64_t cell = o.cell[k];
  const double max_range = g.max_range;
  double t = 0.0;
  while (t <= max_range) {
    if (tmax_x < tmax_y) {
      t = tmax_x;
      tmax_x += b.tdelta_x;
      cell += b.step_x;
    } else {
      t = tmax_y;
      tmax_y += b.tdelta_y;
      cell += b.move_y;
    }
    if (t > max_range) break;
    if (g.blocks[static_cast<std::size_t>(cell)] != 0) {
      return static_cast<float>(t);
    }
  }
  return static_cast<float>(max_range);
}

std::uint16_t quantize(float r, double quantum) {
  return static_cast<std::uint16_t>(
      std::clamp(std::lround(r / quantum), 0L, 65535L));
}

#if defined(SRL_SIMD_X86_AVX2)

/// walk() on four lanes: four origins, one bin.
struct Walk4 {
  __m256d tmax_x, tmax_y;
  __m256i cell;
  __m256d t_last;  ///< t of the lane's last step while it walked
  __m256d live;    ///< sign bit set until the lane's walk ends
};

/// One bin's broadcasts for step4().
struct Bin4 {
  __m256d tdelta_x, tdelta_y, max_range;
  __m256i move_x, move_y;
  __m256i cells_flipped;  ///< framed cell count with its sign bit flipped
  const long long* blocks;
};

/// walk()'s first boundary crossing on one axis for lanes k..k+3: the
/// numerator choice is per bin, the divide per lane.
__attribute__((target("avx2"))) inline __m256d first_tmax4(
    int step, const std::vector<double>& ahead,
    const std::vector<double>& behind, double d, std::size_t k) {
  if (step == 0) {
    return _mm256_set1_pd(std::numeric_limits<double>::infinity());
  }
  const double* num = (step > 0 ? ahead : behind).data() + k;
  return _mm256_div_pd(_mm256_loadu_pd(num), _mm256_set1_pd(d));
}

__attribute__((target("avx2"))) inline Walk4 start4(const Origins& o,
                                                    std::size_t k,
                                                    const BinRay& b) {
  Walk4 w;
  w.tmax_x = first_tmax4(b.step_x, o.ahead_x, o.behind_x, b.dx, k);
  w.tmax_y = first_tmax4(b.step_y, o.ahead_y, o.behind_y, b.dy, k);
  w.cell = _mm256_loadu_si256(
      reinterpret_cast<const __m256i*>(o.cell.data() + k));
  w.t_last = _mm256_setzero_pd();
  // A lane whose start cell blocks (or a padding lane) ends before its
  // first step, at 0.
  w.live = _mm256_castsi256_pd(
      _mm256_cmpgt_epi64(w.cell, _mm256_set1_epi64x(-1)));
  return w;
}

/// One step of walk() on every lane, in its operation order. A lane whose
/// walk has ended keeps stepping with its result frozen, and its flag
/// gather is masked to the framed table: no gather waits on another, and
/// the loop-carried chain is the tmax compare and add alone.
__attribute__((target("avx2"))) inline void step4(const Bin4& c, Walk4& w) {
  // Strict <: a tie steps in y. min_pd(a, b) is exactly a < b ? a : b.
  const __m256d x_step = _mm256_cmp_pd(w.tmax_x, w.tmax_y, _CMP_LT_OQ);
  const __m256d t = _mm256_min_pd(w.tmax_x, w.tmax_y);
  // The stepping axis adds tdelta, the other +0.0: tmax is positive, so
  // adding +0.0 leaves its bits (and +inf) as they are.
  w.tmax_x = _mm256_add_pd(w.tmax_x, _mm256_and_pd(x_step, c.tdelta_x));
  w.tmax_y = _mm256_add_pd(w.tmax_y, _mm256_andnot_pd(x_step, c.tdelta_y));
  w.cell = _mm256_add_epi64(
      w.cell,
      _mm256_blendv_epi8(c.move_y, c.move_x, _mm256_castpd_si256(x_step)));
  // Unsigned cell < cells, as a signed compare with both sign bits flipped.
  const __m256i sign =
      _mm256_set1_epi64x(std::numeric_limits<long long>::min());
  const __m256i in_table =
      _mm256_cmpgt_epi64(c.cells_flipped, _mm256_xor_si256(w.cell, sign));
  const __m256i all = _mm256_set1_epi64x(-1);
  // Eight bytes from the lane's flag on; the low one is the flag (0xFF
  // blocks), shifted into the sign bit. Lanes outside the table read
  // all-ones, which blocks.
  const __m256d blocked = _mm256_castsi256_pd(_mm256_slli_epi64(
      _mm256_mask_i64gather_epi64(all, c.blocks, w.cell, in_table, 1), 56));
  // The over-range test comes first: a lane past max range ends there
  // whatever its cell holds.
  const __m256d over = _mm256_cmp_pd(t, c.max_range, _CMP_GT_OQ);
  w.t_last = _mm256_blendv_pd(w.t_last, t, w.live);
  // Only the sign bits of `live` are read (blends, movemask); its other
  // bits may hold anything.
  w.live = _mm256_andnot_pd(blocked, _mm256_andnot_pd(over, w.live));
}

/// The four lanes' entries: walk()'s float result (max range for a lane
/// whose last step went past it, else that step's t), then quantize().
/// lround on x >= 0 is trunc(x) plus one where x - trunc(x) >= 0.5; that
/// difference is exact.
__attribute__((target("avx2"))) inline __m128i entries4(const Walk4& w,
                                                        double max_range,
                                                        double quantum) {
  const __m256d max_r = _mm256_set1_pd(max_range);
  const __m256d r = _mm256_blendv_pd(
      w.t_last, max_r, _mm256_cmp_pd(w.t_last, max_r, _CMP_GT_OQ));
  const __m256d x = _mm256_div_pd(_mm256_cvtps_pd(_mm256_cvtpd_ps(r)),
                                  _mm256_set1_pd(quantum));
  const __m256d whole = _mm256_round_pd(x, _MM_FROUND_TO_ZERO |
                                               _MM_FROUND_NO_EXC);
  const __m256d half_up = _mm256_and_pd(
      _mm256_cmp_pd(_mm256_sub_pd(x, whole), _mm256_set1_pd(0.5),
                    _CMP_GE_OQ),
      _mm256_set1_pd(1.0));
  const __m256d q = _mm256_min_pd(
      _mm256_max_pd(_mm256_add_pd(whole, half_up), _mm256_setzero_pd()),
      _mm256_set1_pd(65535.0));
  return _mm256_cvttpd_epi32(q);
}

/// Rows of origins [k, k + lanes), lanes <= 8, from `rows` on: every bin,
/// two interleaved four-lane groups. Bitwise identical to walk() and
/// quantize() per entry.
__attribute__((target("avx2"))) void walk_rows_avx2(
    const WalkGrid& g, const Origins& o, const std::vector<BinRay>& bins,
    double quantum, std::size_t k, std::size_t lanes, std::uint16_t* rows) {
  const std::size_t n_bins = bins.size();
  Bin4 c{};
  c.max_range = _mm256_set1_pd(g.max_range);
  c.cells_flipped = _mm256_set1_epi64x(
      g.cells ^ std::numeric_limits<long long>::min());
  c.blocks = reinterpret_cast<const long long*>(g.blocks.data());
  for (std::size_t bt = 0; bt < n_bins; ++bt) {
    const BinRay& b = bins[bt];
    c.tdelta_x = _mm256_set1_pd(b.tdelta_x);
    c.tdelta_y = _mm256_set1_pd(b.tdelta_y);
    c.move_x = _mm256_set1_epi64x(b.step_x);
    c.move_y = _mm256_set1_epi64x(b.move_y);
    Walk4 lo = start4(o, k, b);
    Walk4 hi = start4(o, k + 4, b);
    // Every lane takes a first step: walk() enters its loop at t = 0.
    do {
      step4(c, lo);
      step4(c, hi);
    } while (_mm256_movemask_pd(_mm256_or_pd(lo.live, hi.live)) != 0);
    alignas(16) std::int32_t q[8];
    _mm_store_si128(reinterpret_cast<__m128i*>(q),
                    entries4(lo, g.max_range, quantum));
    _mm_store_si128(reinterpret_cast<__m128i*>(q + 4),
                    entries4(hi, g.max_range, quantum));
    for (std::size_t l = 0; l < lanes; ++l) {
      rows[l * n_bins + bt] = static_cast<std::uint16_t>(q[l]);
    }
  }
  // Clean upper-YMM state before returning to scalar code (DESIGN §15).
  _mm256_zeroupper();
}

#endif

}  // namespace

RangeLut::RangeLut(std::shared_ptr<const OccupancyGrid> map, double max_range,
                   int theta_bins)
    : RangeMethod{std::move(map), max_range},
      theta_bins_{std::max(theta_bins, 1)},
      quantum_{max_range / 65535.0} {
  SYNPF_EXPECTS_MSG(max_range > 0.0, "lut max range must be positive");
  const OccupancyGrid& grid = *map_;
  cells_x_ = grid.width();
  const int cells_y = grid.height();
  const auto bins = static_cast<std::size_t>(theta_bins_);

  // Row 0 is the shared zero row; every cell that does not block gets the
  // next row. Offsets are uint32_t, and the AVX2 batch reads one entry
  // past the last row (the guard).
  std::size_t n_rows = 1;
  for (int cy = 0; cy < cells_y; ++cy) {
    for (int cx = 0; cx < cells_x_; ++cx) {
      if (!grid.blocks_ray(cx, cy)) ++n_rows;
    }
  }
  constexpr std::size_t kMaxSlab = std::numeric_limits<std::uint32_t>::max();
  if (n_rows > (kMaxSlab - 1) / bins) {
    throw std::length_error{"lut: row slab exceeds the uint32_t offset range"};
  }
  slab_.assign(n_rows * bins + 1, 0);
  row_.assign(static_cast<std::size_t>(cells_x_) * cells_y, 0);

  const WalkGrid walk_grid{grid, max_range_};
  Origins origins;
  std::uint32_t offset = 0;
  for (int cy = 0; cy < cells_y; ++cy) {
    for (int cx = 0; cx < cells_x_; ++cx) {
      if (grid.blocks_ray(cx, cy)) continue;  // the zero row
      offset += static_cast<std::uint32_t>(bins);
      row_[static_cast<std::size_t>(cy) * cells_x_ + cx] = offset;
      origins.add(grid, walk_grid, cx, cy);
    }
  }
  const std::size_t n_origins = origins.size();
  origins.pad_to_lanes();

  std::vector<BinRay> bin_rays;
  bin_rays.reserve(bins);
  for (int bt = 0; bt < theta_bins_; ++bt) {
    bin_rays.push_back(
        bin_ray(bt, theta_bins_, grid.resolution(), walk_grid.pitch));
  }

  // Origin k's row starts at slab_[(k + 1) * bins]. Lanes claim blocks of
  // 64 origins (eight AVX2 passes); every entry depends only on its origin
  // and bin, so which lane fills a block never shows.
  constexpr std::size_t kClaim = 64;
  const std::size_t n_claims = (n_origins + kClaim - 1) / kClaim;
  [[maybe_unused]] const bool avx2 =
      simd::active() == simd::Backend::kAvx2;
  const auto fill = [&](int /*lane*/, std::size_t claim) {
    const std::size_t begin = claim * kClaim;
    const std::size_t end = std::min(n_origins, begin + kClaim);
    std::uint16_t* rows = slab_.data() + (begin + 1) * bins;
#if defined(SRL_SIMD_X86_AVX2)
    if (avx2) {
      for (std::size_t k = begin; k < end; k += 8) {
        walk_rows_avx2(walk_grid, origins, bin_rays, quantum_, k,
                       std::min<std::size_t>(8, end - k),
                       rows + (k - begin) * bins);
      }
      return;
    }
#endif
    for (std::size_t k = begin; k < end; ++k) {
      for (std::size_t bt = 0; bt < bins; ++bt) {
        rows[(k - begin) * bins + bt] =
            quantize(walk(walk_grid, origins, k, bin_rays[bt]), quantum_);
      }
    }
  };
  const unsigned hw = std::max(1U, std::thread::hardware_concurrency());
  const std::size_t lanes =
      std::clamp<std::size_t>(n_claims, 1, std::min<unsigned>(hw, 16));
  ThreadPool pool{static_cast<int>(lanes)};
  pool.claim_each(n_claims, fill);
}

float RangeLut::range(const Pose2& ray) const {
  SYNPF_EXPECTS_MSG(valid_ray_pose(ray), "lut query pose not finite");
  const OccupancyGrid& grid = *map_;
  const GridIndex g = grid.world_to_grid({ray.x, ray.y});
  // Off-grid cells block, so a cell that does not block has a row.
  if (grid.blocks_ray(g.ix, g.iy)) return 0.0F;
  const std::size_t base = row(g.ix, g.iy);
  // Angles arriving here are pose headings plus beam offsets — wrap_into is
  // a single add/subtract for those, and stays bounded for any input.
  const double phi = wrap_into(ray.theta, kTwoPi);
  int bt = static_cast<int>(phi * theta_bins_ / kTwoPi + 0.5);
  if (bt >= theta_bins_) bt -= theta_bins_;
  return static_cast<float>(slab_[base + static_cast<std::size_t>(bt)] *
                            quantum_);
}

void RangeLut::ranges_from(const Pose2& sensor,
                           std::span<const double> beam_angles,
                           std::span<float> out) const {
  SYNPF_EXPECTS_MSG(valid_ray_pose(sensor), "lut query pose not finite");
  const OccupancyGrid& grid = *map_;
  const GridIndex g = grid.world_to_grid({sensor.x, sensor.y});
  if (grid.blocks_ray(g.ix, g.iy)) {
    for (std::size_t j = 0; j < out.size(); ++j) out[j] = 0.0F;
    return;
  }
  const std::size_t base = row(g.ix, g.iy);
#if defined(SRL_SIMD_X86_AVX2)
  if (simd::active() == simd::Backend::kAvx2) {
    ranges_from_avx2(base, sensor.theta, beam_angles, out);
    return;
  }
#endif
  for (std::size_t j = 0; j < beam_angles.size(); ++j) {
    // Exactly range()'s tail on theta = sensor.theta + beam_angles[j].
    const double phi = wrap_into(sensor.theta + beam_angles[j], kTwoPi);
    int bt = static_cast<int>(phi * theta_bins_ / kTwoPi + 0.5);
    if (bt >= theta_bins_) bt -= theta_bins_;
    out[j] = static_cast<float>(slab_[base + static_cast<std::size_t>(bt)] *
                                quantum_);
  }
}

#if defined(SRL_SIMD_X86_AVX2)
__attribute__((target("avx2"))) void RangeLut::ranges_from_avx2(
    std::size_t base, double theta0, std::span<const double> beam_angles,
    std::span<float> out) const {
  // Pointer-offset the row so the 32-bit gather indices only need to span
  // theta_bins_.
  const std::uint16_t* row = slab_.data() + base;
  const auto* row32 = reinterpret_cast<const int*>(row);
  const std::size_t k = beam_angles.size();

  const __m256d v_theta0 = _mm256_set1_pd(theta0);
  const __m256d v_period = _mm256_set1_pd(kTwoPi);
  const __m256d v_half = _mm256_set1_pd(0.5);
  const __m256d v_bins = _mm256_set1_pd(static_cast<double>(theta_bins_));
  const __m128i v_bins_i = _mm_set1_epi32(theta_bins_);
  const __m128i v_bins_m1 = _mm_set1_epi32(theta_bins_ - 1);
  const __m256d v_quantum = _mm256_set1_pd(quantum_);
  const __m128i v_mask16 = _mm_set1_epi32(0xFFFF);

  const auto scalar_beam = [&](std::size_t j) {
    const double phi = wrap_into(theta0 + beam_angles[j], kTwoPi);
    int bt = static_cast<int>(phi * theta_bins_ / kTwoPi + 0.5);
    if (bt >= theta_bins_) bt -= theta_bins_;
    out[j] = static_cast<float>(row[bt] * quantum_);
  };

  std::size_t j = 0;
  for (; j + 4 <= k; j += 4) {
    const __m256d a = _mm256_add_pd(v_theta0,
                                    _mm256_loadu_pd(beam_angles.data() + j));
    // Lanes outside [-2pi, 4pi) would need the scalar fmod tail: the whole
    // group takes the scalar path (headings plus beam offsets are a few
    // radians; this is the NaN/huge-angle escape hatch, not the hot case).
    const range_avx2::Wrapped4 w = range_avx2::wrap_into(a, kTwoPi);
    if (!range_avx2::all_inside(w)) {
      for (std::size_t l = 0; l < 4; ++l) scalar_beam(j + l);
      continue;
    }
    const __m256d phi = w.value;
    // range()'s bin math, same operation order: mul, div, add, truncate.
    const __m256d t =
        _mm256_add_pd(_mm256_div_pd(_mm256_mul_pd(phi, v_bins), v_period),
                      v_half);
    __m128i bt = _mm256_cvttpd_epi32(t);
    const __m128i wrap = _mm_cmpgt_epi32(bt, v_bins_m1);
    bt = _mm_sub_epi32(bt, _mm_and_si128(wrap, v_bins_i));
    // 32-bit gather of uint16 entries (scale 2), low half masked; the +1
    // guard entry in slab_ keeps the last load in bounds.
    const __m128i raw = _mm_i32gather_epi32(row32, bt, 2);
    const __m128i q = _mm_and_si128(raw, v_mask16);
    const __m256d meters = _mm256_mul_pd(_mm256_cvtepi32_pd(q), v_quantum);
    _mm_storeu_ps(out.data() + j, _mm256_cvtpd_ps(meters));
  }
  // Clean upper-YMM state before the tail and the return (DESIGN §15); an
  // unoptimized build emits no vzeroupper of its own.
  _mm256_zeroupper();
  for (; j < k; ++j) scalar_beam(j);
}
#endif

}  // namespace srl
