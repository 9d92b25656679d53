#include "range/ray_marching.hpp"

#include <algorithm>
#include <cmath>

#include "common/simd.hpp"
#include "range/avx2_lanes.hpp"

#if defined(SRL_SIMD_X86_AVX2)
#include <immintrin.h>
#endif

namespace srl {

float RayMarching::range(const Pose2& ray) const {
  SYNPF_EXPECTS_MSG(valid_ray_pose(ray), "ray-marching query pose not finite");
  return march(ray.x, ray.y, std::cos(ray.theta), std::sin(ray.theta));
}

float RayMarching::march(double x, double y, double dx, double dy) const {
  double t = 0.0;
  const int steps = max_steps();
  for (int i = 0; i < steps && t < max_range_; ++i) {
    const float d = field_.at_world({x, y});
    if (d <= static_cast<float>(epsilon_)) return static_cast<float>(t);
    t += d;
    x += d * dx;
    y += d * dy;
  }
  return static_cast<float>(max_range_);
}

#if defined(SRL_SIMD_X86_AVX2)
namespace {

constexpr std::size_t kGroups = 8;           ///< four-lane groups per block
constexpr std::size_t kBlock = 4 * kGroups;  ///< rays per kernel call

/// One block's rays, structure of arrays. Lanes past the live count hold
/// zeros and never load a cell.
struct RayBlock {
  alignas(32) double x[kBlock];
  alignas(32) double y[kBlock];
  alignas(32) double dx[kBlock];
  alignas(32) double dy[kBlock];
};

/// Four rays in flight: march()'s state per lane, plus whether the lane is
/// still stepping and the result it returns.
struct MarchGroup {
  __m256d x, y, t, dx, dy;
  __m256d live;  ///< all-ones while march() would still be in its loop
  __m128 range;  ///< max range until the lane converges
};

/// The distance field and march()'s constants, broadcast.
struct MarchField {
  __m256d origin_x, origin_y, resolution;
  __m128i width, height;
  const float* cells;
  __m128 epsilon;
};

/// One march() step on every live lane of `g`: the nearest-cell distance
/// (0 outside the field, as `at_world` reads it), the convergence test,
/// then the unfused advance in march()'s order.
__attribute__((target("avx2"))) inline void march_step(const MarchField& f,
                                                       MarchGroup& g) {
  // at_world: floor((w - origin) / resolution). A NaN, infinite or far
  // cell truncates to INT_MIN and fails the bounds test, as floor_to_cell's
  // sentinels do.
  const __m128i ix = _mm256_cvttpd_epi32(_mm256_floor_pd(
      _mm256_div_pd(_mm256_sub_pd(g.x, f.origin_x), f.resolution)));
  const __m128i iy = _mm256_cvttpd_epi32(_mm256_floor_pd(
      _mm256_div_pd(_mm256_sub_pd(g.y, f.origin_y), f.resolution)));
  const __m128i minus_one = _mm_set1_epi32(-1);
  const __m128i in_x = _mm_and_si128(_mm_cmpgt_epi32(ix, minus_one),
                                     _mm_cmpgt_epi32(f.width, ix));
  const __m128i in_y = _mm_and_si128(_mm_cmpgt_epi32(iy, minus_one),
                                     _mm_cmpgt_epi32(f.height, iy));
  const __m128i live = range_avx2::narrow_mask(g.live);
  const __m128i load = _mm_and_si128(live, _mm_and_si128(in_x, in_y));
  const __m128i cell = _mm_add_epi32(_mm_mullo_epi32(iy, f.width), ix);
  const __m128 d = _mm_mask_i32gather_ps(_mm_setzero_ps(), f.cells, cell,
                                         _mm_castsi128_ps(load), 4);
  const __m128 hit = _mm_and_ps(_mm_castsi128_ps(live),
                                _mm_cmp_ps(d, f.epsilon, _CMP_LE_OQ));
  g.range = _mm_blendv_ps(g.range, _mm256_cvtpd_ps(g.t), hit);
  g.live = _mm256_andnot_pd(
      _mm256_castsi256_pd(_mm256_cvtepi32_epi64(_mm_castps_si128(hit))),
      g.live);
  const __m256d dd = _mm256_cvtps_pd(d);
  g.t = _mm256_add_pd(g.t, dd);
  g.x = _mm256_add_pd(g.x, _mm256_mul_pd(dd, g.dx));
  g.y = _mm256_add_pd(g.y, _mm256_mul_pd(dd, g.dy));
}

/// Group `at / 4` of `in` at step 0: lanes from `live` on start dead.
__attribute__((target("avx2"))) inline MarchGroup start_group(
    const RayBlock& in, std::size_t at, std::size_t live, double max_range) {
  const auto first = static_cast<double>(at);
  const __m256d lane =
      _mm256_setr_pd(first, first + 1.0, first + 2.0, first + 3.0);
  return {_mm256_load_pd(in.x + at),
          _mm256_load_pd(in.y + at),
          _mm256_setzero_pd(),
          _mm256_load_pd(in.dx + at),
          _mm256_load_pd(in.dy + at),
          _mm256_cmp_pd(lane, _mm256_set1_pd(static_cast<double>(live)),
                        _CMP_LT_OQ),
          _mm_set1_ps(static_cast<float>(max_range))};
}

/// march() on the first `live` rays of `in`, as up to eight four-lane
/// groups. A step is a dependent divide-floor-gather chain, so the groups
/// keep eight chains in flight. Every group starts at step 0 and takes one
/// step per pass until all its lanes have left, or the pass count reaches
/// max_steps; a group that is done drops out of the passes.
__attribute__((target("avx2"))) void march_block_avx2(
    const DistanceField& field, double epsilon, double max_range,
    int max_steps, const RayBlock& in, std::size_t live, float* out) {
  const MarchField f{_mm256_set1_pd(field.origin().x),
                     _mm256_set1_pd(field.origin().y),
                     _mm256_set1_pd(field.resolution()),
                     _mm_set1_epi32(field.width()),
                     _mm_set1_epi32(field.height()),
                     field.data().data(),
                     _mm_set1_ps(static_cast<float>(epsilon))};
  const std::size_t groups = (live + 3) / 4;
  const __m256d v_max_range = _mm256_set1_pd(max_range);
  MarchGroup g[kGroups];
  unsigned running = 0;
  for (std::size_t k = 0; k < groups; ++k) {
    g[k] = start_group(in, 4 * k, live, max_range);
    running |= 1U << k;
  }
  for (int i = 0; i < max_steps && running != 0; ++i) {
    for (std::size_t k = 0; k < groups; ++k) {
      if ((running & (1U << k)) == 0) continue;
      // march()'s loop test `t < max_range`; a lane that fails it returns
      // max range, which its `range` already holds.
      g[k].live = _mm256_and_pd(
          g[k].live, _mm256_cmp_pd(g[k].t, v_max_range, _CMP_LT_OQ));
      if (_mm256_movemask_pd(g[k].live) == 0) {
        running &= ~(1U << k);
        continue;
      }
      march_step(f, g[k]);
    }
  }
  alignas(16) float result[kBlock];
  for (std::size_t k = 0; k < groups; ++k) {
    _mm_store_ps(result + 4 * k, g[k].range);
  }
  // Clean upper-YMM state before the caller's libm trig (DESIGN §15).
  _mm256_zeroupper();
  std::copy_n(result, live, out);
}

}  // namespace
#endif

void RayMarching::ranges(std::span<const Pose2> rays,
                         std::span<float> out) const {
#if defined(SRL_SIMD_X86_AVX2)
  // 32-bit gather indices, and floor_to_cell's 1e9 sentinel must stay
  // outside the field: both hold for any field under 1e9 cells.
  if (simd::active() == simd::Backend::kAvx2 &&
      field_.data().size() < 1000000000U) {
    const int steps = max_steps();
    RayBlock block;
    for (std::size_t i = 0; i < rays.size(); i += kBlock) {
      const std::size_t live = std::min(kBlock, rays.size() - i);
      for (std::size_t l = 0; l < live; ++l) {
        const Pose2& ray = rays[i + l];
        SYNPF_EXPECTS_MSG(valid_ray_pose(ray),
                          "ray-marching query pose not finite");
        block.x[l] = ray.x;
        block.y[l] = ray.y;
        block.dx[l] = std::cos(ray.theta);
        block.dy[l] = std::sin(ray.theta);
      }
      for (std::size_t l = live; l < (live + 3) / 4 * 4; ++l) {
        block.x[l] = block.y[l] = block.dx[l] = block.dy[l] = 0.0;
      }
      march_block_avx2(field_, epsilon_, max_range_, steps, block, live,
                       out.data() + i);
    }
    return;
  }
#endif
  for (std::size_t i = 0; i < rays.size(); ++i) {
    const Pose2& ray = rays[i];
    SYNPF_EXPECTS_MSG(valid_ray_pose(ray),
                      "ray-marching query pose not finite");
    out[i] = march(ray.x, ray.y, std::cos(ray.theta), std::sin(ray.theta));
  }
}

}  // namespace srl
