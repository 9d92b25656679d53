#include "range/cddt.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>

#include "common/angles.hpp"
#include "range/avx2_lanes.hpp"

#if defined(SRL_SIMD_X86_AVX2)
#include <immintrin.h>
#endif

namespace srl {
namespace {

/// Only blocking cells that touch free space can be the first hit of a ray
/// cast from free space; interior fill (deep unknown/occupied regions) is
/// skipped, which is the dominant memory saving on corridor maps.
bool is_surface_cell(const OccupancyGrid& grid, int ix, int iy) {
  if (!grid.blocks_ray(ix, iy)) return false;
  for (int dy = -1; dy <= 1; ++dy) {
    for (int dx = -1; dx <= 1; ++dx) {
      if (dx == 0 && dy == 0) continue;
      if (grid.is_free(ix + dx, iy + dy)) return true;
    }
  }
  return false;
}

}  // namespace

Cddt::Cddt(std::shared_ptr<const OccupancyGrid> map, double max_range,
           int theta_bins)
    : RangeMethod{std::move(map), max_range},
      band_width_{map_->resolution()} {
  const OccupancyGrid& grid = *map_;
  const int m = std::max(theta_bins, 1);

  // Collect surface cells once.
  std::vector<Vec2> surface;
  for (int iy = 0; iy < grid.height(); ++iy) {
    for (int ix = 0; ix < grid.width(); ++ix) {
      if (is_surface_cell(grid, ix, iy)) surface.push_back(grid.grid_to_world(ix, iy));
    }
  }

  // Map corners bound the v extent for every rotation.
  const Vec2 corners[4] = {
      grid.origin(),
      grid.origin() + Vec2{grid.world_width(), 0.0},
      grid.origin() + Vec2{0.0, grid.world_height()},
      grid.origin() + Vec2{grid.world_width(), grid.world_height()},
  };

  const auto bins = static_cast<std::size_t>(m);
  cos_t_.resize(bins);
  sin_t_.resize(bins);
  angle_.resize(bins);
  v_min_.resize(bins);
  first_band_.resize(bins);
  band_count_.resize(bins);
  band_start_.push_back(0);
  for (int bin = 0; bin < m; ++bin) {
    const auto b = static_cast<std::size_t>(bin);
    const double theta = kPi * bin / m;
    const double cos_t = std::cos(theta);
    const double sin_t = std::sin(theta);
    angle_[b] = theta;
    cos_t_[b] = cos_t;
    sin_t_[b] = sin_t;

    double v_min = 0.0;
    double v_max = 0.0;
    for (int c = 0; c < 4; ++c) {
      const double v = -corners[c].x * sin_t + corners[c].y * cos_t;
      if (c == 0) {
        v_min = v_max = v;
      } else {
        v_min = std::min(v_min, v);
        v_max = std::max(v_max, v);
      }
    }
    v_min_[b] = v_min;
    const auto n_bands = static_cast<std::size_t>(
                             std::floor((v_max - v_min) / band_width_)) +
                         1;
    std::vector<std::vector<float>> bands(n_bands);

    for (const Vec2& p : surface) {
      const double u = p.x * cos_t + p.y * sin_t;
      const double v = -p.x * sin_t + p.y * cos_t;
      auto band = static_cast<std::size_t>((v - v_min) / band_width_);
      if (band >= bands.size()) band = bands.size() - 1;
      bands[band].push_back(static_cast<float>(u));
    }
    // Compress: sort each band and drop duplicates within half a cell,
    // then append it to the flat store.
    const float quantum = static_cast<float>(0.5 * band_width_);
    first_band_[b] = static_cast<std::int32_t>(band_start_.size() - 1);
    band_count_[b] = static_cast<std::int32_t>(n_bands);
    for (auto& band : bands) {
      std::sort(band.begin(), band.end());
      auto last = std::unique(band.begin(), band.end(),
                              [quantum](float a, float c) {
                                return c - a < quantum;
                              });
      obstacles_.insert(obstacles_.end(), band.begin(), last);
      band_start_.push_back(static_cast<std::uint32_t>(obstacles_.size()));
    }
    // Offsets and band indices are 32-bit, and the AVX2 batch gathers
    // them with signed indices. 2^31 entries is far beyond any track map.
    constexpr std::size_t kMaxIndex = std::numeric_limits<std::int32_t>::max();
    if (obstacles_.size() > kMaxIndex || band_start_.size() > kMaxIndex) {
      throw std::length_error{"cddt: map too large for 32-bit band offsets"};
    }
  }
  obstacles_.shrink_to_fit();
  band_start_.shrink_to_fit();
}

float Cddt::range(const Pose2& ray) const {
  SYNPF_EXPECTS_MSG(valid_ray_pose(ray), "cddt query pose not finite");
  const OccupancyGrid& grid = *map_;
  const GridIndex start = grid.world_to_grid({ray.x, ray.y});
  if (grid.blocks_ray(start.ix, start.iy)) return 0.0F;
  return range_line(ray.x, ray.y, ray.theta);
}

void Cddt::ranges_from(const Pose2& sensor,
                       std::span<const double> beam_angles,
                       std::span<float> out) const {
  SYNPF_EXPECTS_MSG(valid_ray_pose(sensor), "cddt query pose not finite");
  const OccupancyGrid& grid = *map_;
  const GridIndex start = grid.world_to_grid({sensor.x, sensor.y});
  if (grid.blocks_ray(start.ix, start.iy)) {
    for (std::size_t j = 0; j < out.size(); ++j) out[j] = 0.0F;
    return;
  }
#if defined(SRL_SIMD_X86_AVX2)
  // One bin has no trig-free direction test (range_line's libm branch).
  if (simd::active() == simd::Backend::kAvx2 && theta_bins() >= 2) {
    ranges_from_avx2(sensor, beam_angles, out);
    return;
  }
#endif
  for (std::size_t j = 0; j < beam_angles.size(); ++j) {
    out[j] = range_line(sensor.x, sensor.y, sensor.theta + beam_angles[j]);
  }
}

float Cddt::range_line(double x, double y, double theta) const {
  // Snap the ray's line direction to the nearest theta bin in [0, pi);
  // wrap_into stays bounded for any heading magnitude.
  const int m = theta_bins();
  const double line_angle = wrap_into(theta, kPi);
  int b = static_cast<int>(line_angle * m / kPi + 0.5);
  if (b >= m) b -= m;
  const auto bin = static_cast<std::size_t>(b);
  const double cos_t = cos_t_[bin];
  const double sin_t = sin_t_[bin];

  // Forward along +u if the actual ray direction agrees with the bin axis.
  // Historically this evaluated sign(cos(theta)*cos_t + sin(theta)*sin_t)
  // = sign(cos(theta - angle)) with two libm calls per query. Because
  // b is the *nearest* bin line to theta (up to rounding ties), the line
  // distance |theta - angle| mod pi is at most pi/2m + O(ulp), so
  // |cos(theta - angle)| >= cos(pi/2m) — at least ~0.7 for m >= 2 and
  // ~0.9996 at the default m = 108. The sign therefore survives absolute
  // angle errors up to ~0.7 rad, while computing theta - angle for
  // |theta| <= 1e8 is accurate to ~1e-8: the branch below is bitwise
  // equivalent to the libm form on the entire guarded domain, just
  // trig-free. Degenerate bin counts and astronomically large headings
  // (absorption could eat the margin) keep the original evaluation.
  bool forward = false;
  if (m >= 2 && std::abs(theta) <= 1e8) {
    const double d = wrap_into(theta - angle_[bin], kTwoPi);
    forward = d < 0.5 * kPi || d > 1.5 * kPi;
  } else {
    const double dir_dot = std::cos(theta) * cos_t + std::sin(theta) * sin_t;
    forward = dir_dot >= 0.0;
  }

  const double u = x * cos_t + y * sin_t;
  const double v = -x * sin_t + y * cos_t;
  const double band_f = (v - v_min_[bin]) / band_width_;
  if (band_f < 0.0) return static_cast<float>(max_range_);
  const auto band = static_cast<std::size_t>(band_f);
  if (band >= static_cast<std::size_t>(band_count_[bin])) {
    return static_cast<float>(max_range_);
  }
  const std::size_t at = static_cast<std::size_t>(first_band_[bin]) + band;
  const float* first = obstacles_.data() + band_start_[at];
  const float* last = obstacles_.data() + band_start_[at + 1];

  // Half-cell slack keeps a particle standing on a wall surface from seeing
  // "through" the obstacle it is touching.
  const float slack = static_cast<float>(0.5 * band_width_);
  float r = static_cast<float>(max_range_);
  if (forward) {
    const float* it =
        std::upper_bound(first, last, static_cast<float>(u) - slack);
    if (it != last) r = *it - static_cast<float>(u);
  } else {
    const float* it =
        std::lower_bound(first, last, static_cast<float>(u) + slack);
    if (it != first) r = static_cast<float>(u) - *std::prev(it);
  }
  return std::clamp(r, 0.0F, static_cast<float>(max_range_));
}

#if defined(SRL_SIMD_X86_AVX2)
namespace {

/// What the kernel reads of a Cddt, as raw arrays and constants.
struct CddtView {
  const double* cos_t;
  const double* sin_t;
  const double* angle;
  const double* v_min;
  const int* first_band;
  const int* band_count;
  const int* band_start;
  const float* obstacles;
  int bins;
  double band_width;
  float max_range;
};

/// Four beams of one origin between band lookup and result.
struct BeamSearch {
  __m128 forward;  ///< lanes that search ahead (upper_bound)
  __m128 uf;       ///< float(u), the origin along the bin axis
  __m128 key;      ///< u - slack ahead, u + slack behind
  __m128i in_bin;  ///< lanes whose band exists
  __m128i first, last, lo, len;
};

/// range_line's bin selection, direction test and band bounds for four
/// headings `theta` whose wrap into [0, pi) is `line`.
__attribute__((target("avx2"))) inline BeamSearch locate(const CddtView& c,
                                                         __m256d x, __m256d y,
                                                         __m256d theta,
                                                         __m256d line) {
  // Bin selection in range_line's order: mul, div, add, truncate, wrap.
  __m128i b = _mm256_cvttpd_epi32(_mm256_add_pd(
      _mm256_div_pd(_mm256_mul_pd(line, _mm256_set1_pd(c.bins)),
                    _mm256_set1_pd(kPi)),
      _mm256_set1_pd(0.5)));
  const __m128i wrap = _mm_cmpgt_epi32(b, _mm_set1_epi32(c.bins - 1));
  b = _mm_sub_epi32(b, _mm_and_si128(wrap, _mm_set1_epi32(c.bins)));
  const __m256d zero = _mm256_setzero_pd();
  const __m256d all = _mm256_castsi256_pd(_mm256_set1_epi64x(-1));
  const __m256d cos_t = _mm256_mask_i32gather_pd(zero, c.cos_t, b, all, 8);
  const __m256d sin_t = _mm256_mask_i32gather_pd(zero, c.sin_t, b, all, 8);
  const __m256d angle = _mm256_mask_i32gather_pd(zero, c.angle, b, all, 8);
  const __m256d v_min = _mm256_mask_i32gather_pd(zero, c.v_min, b, all, 8);

  // Direction test. theta in (-2pi, 2pi) and angle in [0, pi) put
  // theta - angle in (-3pi, 2pi), inside the 2pi wrap's vector regions.
  const __m256d d =
      range_avx2::wrap_into_wide(_mm256_sub_pd(theta, angle), kTwoPi)
          .value;
  const __m128 forward = _mm_castsi128_ps(range_avx2::narrow_mask(_mm256_or_pd(
      _mm256_cmp_pd(d, _mm256_set1_pd(0.5 * kPi), _CMP_LT_OQ),
      _mm256_cmp_pd(d, _mm256_set1_pd(1.5 * kPi), _CMP_GT_OQ))));

  // Band bounds; lanes outside the bin's bands load nothing.
  const __m256d u =
      _mm256_add_pd(_mm256_mul_pd(x, cos_t), _mm256_mul_pd(y, sin_t));
  const __m256d neg_x = _mm256_xor_pd(x, _mm256_set1_pd(-0.0));  // -x
  const __m256d v = _mm256_add_pd(_mm256_mul_pd(neg_x, sin_t),
                                  _mm256_mul_pd(y, cos_t));
  const __m256d band_f = _mm256_div_pd(_mm256_sub_pd(v, v_min),
                                       _mm256_set1_pd(c.band_width));
  const __m128i count = _mm_i32gather_epi32(c.band_count, b, 4);
  const __m128i in_bin = range_avx2::narrow_mask(_mm256_and_pd(
      _mm256_cmp_pd(band_f, zero, _CMP_GE_OQ),
      _mm256_cmp_pd(band_f, _mm256_cvtepi32_pd(count), _CMP_LT_OQ)));
  const __m128i at = _mm_add_epi32(_mm_i32gather_epi32(c.first_band, b, 4),
                                   _mm256_cvttpd_epi32(band_f));
  const __m128i none = _mm_setzero_si128();
  const __m128i first =
      _mm_mask_i32gather_epi32(none, c.band_start, at, in_bin, 4);
  const __m128i last =
      _mm_mask_i32gather_epi32(none, c.band_start + 1, at, in_bin, 4);

  const __m128 slack = _mm_set1_ps(static_cast<float>(0.5 * c.band_width));
  const __m128 uf = _mm256_cvtpd_ps(u);
  const __m128 key =
      _mm_blendv_ps(_mm_add_ps(uf, slack), _mm_sub_ps(uf, slack), forward);
  return {forward, uf, key, in_bin, first, last, first,
          _mm_sub_epi32(last, first)};
}

/// One step of the binary search, branch-free across lanes, in libstdc++'s
/// std::upper_bound / std::lower_bound steps. Forward lanes look for
/// upper_bound(u - slack): they step right unless key < e. Backward lanes
/// look for lower_bound(u + slack): they step right while e < key. Lanes
/// with nothing left to search load nothing. Returns false once every
/// lane is done.
__attribute__((target("avx2"))) inline bool search_step(const CddtView& c,
                                                        BeamSearch& s) {
  const __m128i active = _mm_cmpgt_epi32(s.len, _mm_setzero_si128());
  if (_mm_movemask_epi8(active) == 0) return false;
  const __m128i half = _mm_srli_epi32(s.len, 1);
  const __m128i mid = _mm_add_epi32(s.lo, half);
  const __m128 e = _mm_mask_i32gather_ps(_mm_setzero_ps(), c.obstacles, mid,
                                         _mm_castsi128_ps(active), 4);
  const __m128 right =
      _mm_blendv_ps(_mm_cmp_ps(e, s.key, _CMP_LT_OQ),
                    _mm_cmp_ps(s.key, e, _CMP_NLT_UQ), s.forward);
  const __m128i step = _mm_and_si128(active, _mm_castps_si128(right));
  const __m128i one = _mm_set1_epi32(1);
  s.lo = _mm_blendv_epi8(s.lo, _mm_add_epi32(mid, one), step);
  s.len = _mm_blendv_epi8(
      half, _mm_sub_epi32(_mm_sub_epi32(s.len, half), one), step);
  return true;
}

/// range_line's result from a finished search: the obstacle at lo ahead
/// (unless lo == last), the one before lo behind (unless lo == first),
/// clamped; max range, unclamped, outside the bin's bands.
__attribute__((target("avx2"))) inline __m128 finish(const CddtView& c,
                                                     const BeamSearch& s) {
  const __m128i fwd = _mm_castps_si128(s.forward);
  const __m128i none =
      _mm_cmpeq_epi32(s.lo, _mm_blendv_epi8(s.first, s.last, fwd));
  const __m128i found = _mm_andnot_si128(none, s.in_bin);
  const __m128i idx =
      _mm_sub_epi32(s.lo, _mm_andnot_si128(fwd, _mm_set1_epi32(1)));
  const __m128 zero = _mm_setzero_ps();
  const __m128 max_r = _mm_set1_ps(c.max_range);
  const __m128 e = _mm_mask_i32gather_ps(zero, c.obstacles, idx,
                                         _mm_castsi128_ps(found), 4);
  __m128 r = _mm_blendv_ps(_mm_sub_ps(s.uf, e), _mm_sub_ps(e, s.uf), s.forward);
  r = _mm_blendv_ps(max_r, r, _mm_castsi128_ps(found));
  // std::clamp(r, 0, max_r) as libstdc++ writes it: min(max(r, 0), max_r).
  r = _mm_blendv_ps(r, zero, _mm_cmp_ps(r, zero, _CMP_LT_OQ));
  r = _mm_blendv_ps(r, max_r, _mm_cmp_ps(max_r, r, _CMP_LT_OQ));
  return _mm_blendv_ps(max_r, r, _mm_castsi128_ps(s.in_bin));
}

}  // namespace

__attribute__((target("avx2"))) void Cddt::ranges_from_avx2(
    const Pose2& sensor, std::span<const double> beam_angles,
    std::span<float> out) const {
  const CddtView c{cos_t_.data(),
                   sin_t_.data(),
                   angle_.data(),
                   v_min_.data(),
                   first_band_.data(),
                   band_count_.data(),
                   // Same bits, signed: every offset is below 2^31.
                   reinterpret_cast<const int*>(band_start_.data()),
                   obstacles_.data(),
                   theta_bins(),
                   band_width_,
                   static_cast<float>(max_range_)};
  const __m256d theta0 = _mm256_set1_pd(sensor.theta);
  const __m256d x = _mm256_set1_pd(sensor.x);
  const __m256d y = _mm256_set1_pd(sensor.y);
  const std::size_t k = beam_angles.size();
  const double* angles = beam_angles.data();

  std::size_t j = 0;
  while (j + 4 <= k) {
    // Eight beams as two groups: a search step is a dependent gather
    // chain, so the second group fills the core while the first waits.
    if (j + 8 <= k) {
      const __m256d theta_a =
          _mm256_add_pd(theta0, _mm256_loadu_pd(angles + j));
      const __m256d theta_b =
          _mm256_add_pd(theta0, _mm256_loadu_pd(angles + j + 4));
      const range_avx2::Wrapped4 line_a =
          range_avx2::wrap_into_wide(theta_a, kPi);
      const range_avx2::Wrapped4 line_b =
          range_avx2::wrap_into_wide(theta_b, kPi);
      if (range_avx2::all_inside(line_a) && range_avx2::all_inside(line_b)) {
        BeamSearch a = locate(c, x, y, theta_a, line_a.value);
        BeamSearch b = locate(c, x, y, theta_b, line_b.value);
        for (bool more = true; more;) {
          const bool a_more = search_step(c, a);
          more = search_step(c, b) || a_more;
        }
        _mm_storeu_ps(out.data() + j, finish(c, a));
        _mm_storeu_ps(out.data() + j + 4, finish(c, b));
        j += 8;
        continue;
      }
    }
    // One group. Lanes outside (-2pi, 2pi) need wrap_into's fmod: the
    // whole group takes range_line (NaN and huge headings; never a
    // filter's beams).
    const __m256d theta = _mm256_add_pd(theta0, _mm256_loadu_pd(angles + j));
    const range_avx2::Wrapped4 line =
        range_avx2::wrap_into_wide(theta, kPi);
    if (range_avx2::all_inside(line)) {
      BeamSearch a = locate(c, x, y, theta, line.value);
      while (search_step(c, a)) {
      }
      _mm_storeu_ps(out.data() + j, finish(c, a));
    } else {
      for (std::size_t l = j; l < j + 4; ++l) {
        out[l] = range_line(sensor.x, sensor.y, sensor.theta + beam_angles[l]);
      }
    }
    j += 4;
  }
  // Clean upper-YMM state before the tail and the return (DESIGN §15).
  _mm256_zeroupper();
  for (; j < k; ++j) {
    out[j] = range_line(sensor.x, sensor.y, sensor.theta + beam_angles[j]);
  }
}
#endif

std::size_t Cddt::total_entries() const { return obstacles_.size(); }

}  // namespace srl
