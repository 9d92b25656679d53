#include "range/lookup_table.hpp"

#include <algorithm>
#include <cmath>
#include <thread>

#include "common/angles.hpp"
#include "range/avx2_lanes.hpp"
#include "range/bresenham.hpp"

#if defined(SRL_SIMD_X86_AVX2)
#include <immintrin.h>
#endif

namespace srl {

RangeLut::RangeLut(std::shared_ptr<const OccupancyGrid> map, double max_range,
                   int theta_bins, int stride)
    : RangeMethod{std::move(map), max_range},
      theta_bins_{std::max(theta_bins, 1)},
      stride_{std::max(stride, 1)},
      quantum_{max_range / 65535.0} {
  const OccupancyGrid& grid = *map_;
  cells_x_ = (grid.width() + stride_ - 1) / stride_;
  cells_y_ = (grid.height() + stride_ - 1) / stride_;
  // +1 guard entry: the AVX2 path gathers each uint16 with a 32-bit load
  // (low half masked out), so the last real entry needs two readable bytes
  // after it. The guard is never indexed.
  table_.assign(
      static_cast<std::size_t>(cells_x_) * cells_y_ * theta_bins_ + 1, 0);

  const BresenhamCaster exact{map_, max_range_};
  const auto fill_rows = [&](int y_begin, int y_end) {
    for (int cy = y_begin; cy < y_end; ++cy) {
      const int iy = cy * stride_;
      for (int cx = 0; cx < cells_x_; ++cx) {
        const int ix = cx * stride_;
        if (grid.blocks_ray(ix, iy)) continue;  // stays 0
        const Vec2 p = grid.grid_to_world(ix, iy);
        for (int bt = 0; bt < theta_bins_; ++bt) {
          const double theta = kTwoPi * bt / theta_bins_;
          const float r = exact.range({p.x, p.y, theta});
          const auto q = static_cast<std::uint16_t>(
              std::clamp(std::lround(r / quantum_), 0L, 65535L));
          table_[index(cx, cy, bt)] = q;
        }
      }
    }
  };

  const unsigned hw = std::max(1U, std::thread::hardware_concurrency());
  const int n_threads = static_cast<int>(std::min<unsigned>(hw, 16));
  if (n_threads <= 1 || cells_y_ < 2 * n_threads) {
    fill_rows(0, cells_y_);
  } else {
    std::vector<std::thread> workers;
    workers.reserve(static_cast<std::size_t>(n_threads));
    const int rows_per = (cells_y_ + n_threads - 1) / n_threads;
    for (int t = 0; t < n_threads; ++t) {
      const int y0 = t * rows_per;
      const int y1 = std::min(cells_y_, y0 + rows_per);
      if (y0 >= y1) break;
      workers.emplace_back(fill_rows, y0, y1);
    }
    for (auto& w : workers) w.join();
  }
}

float RangeLut::range(const Pose2& ray) const {
  SYNPF_EXPECTS_MSG(valid_ray_pose(ray), "lut query pose not finite");
  note_query();
  const OccupancyGrid& grid = *map_;
  const GridIndex g = grid.world_to_grid({ray.x, ray.y});
  if (grid.blocks_ray(g.ix, g.iy)) return 0.0F;

  const int cx = std::clamp(g.ix / stride_, 0, cells_x_ - 1);
  const int cy = std::clamp(g.iy / stride_, 0, cells_y_ - 1);
  // Angles arriving here are pose headings plus beam offsets — wrap_into is
  // a single add/subtract for those, and stays bounded for any input.
  const double phi = wrap_into(ray.theta, kTwoPi);
  int bt = static_cast<int>(phi * theta_bins_ / kTwoPi + 0.5);
  if (bt >= theta_bins_) bt -= theta_bins_;
  return static_cast<float>(table_[index(cx, cy, bt)] * quantum_);
}

void RangeLut::ranges_from(const Pose2& sensor,
                           std::span<const double> beam_angles,
                           std::span<float> out) const {
  SYNPF_EXPECTS_MSG(valid_ray_pose(sensor), "lut query pose not finite");
  note_queries(beam_angles.size());
  const OccupancyGrid& grid = *map_;
  const GridIndex g = grid.world_to_grid({sensor.x, sensor.y});
  if (grid.blocks_ray(g.ix, g.iy)) {
    for (std::size_t j = 0; j < out.size(); ++j) out[j] = 0.0F;
    return;
  }
  const int cx = std::clamp(g.ix / stride_, 0, cells_x_ - 1);
  const int cy = std::clamp(g.iy / stride_, 0, cells_y_ - 1);
  const std::size_t base = index(cx, cy, 0);
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
    out[j] = static_cast<float>(table_[base + static_cast<std::size_t>(bt)] *
                                quantum_);
  }
}

#if defined(SRL_SIMD_X86_AVX2)
__attribute__((target("avx2"))) void RangeLut::ranges_from_avx2(
    std::size_t base, double theta0, std::span<const double> beam_angles,
    std::span<float> out) const {
  // Pointer-offset the row so the 32-bit gather indices only need to span
  // theta_bins_ (the table itself can exceed the int32 index range).
  const std::uint16_t* row = table_.data() + base;
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
    // guard entry in table_ keeps the last load in bounds.
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
