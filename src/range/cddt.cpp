#include "range/cddt.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
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
  bins_.resize(bins);
  angle_.resize(bins);
  band_start_.push_back(0);
  for (int bin = 0; bin < m; ++bin) {
    const auto b = static_cast<std::size_t>(bin);
    const double theta = kPi * bin / m;
    const double cos_t = std::cos(theta);
    const double sin_t = std::sin(theta);
    angle_[b] = theta;
    bins_[b].cos_t = cos_t;
    bins_[b].sin_t = sin_t;

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
    bins_[b].v_min = v_min;
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
    // Compress: sort each band and keep a value only when it lies at least
    // half a cell above the last value kept, then append the band to the
    // flat store.
    const float quantum = static_cast<float>(0.5 * band_width_);
    bins_[b].first_band = static_cast<std::int32_t>(band_start_.size() - 1);
    bins_[b].band_count = static_cast<std::int32_t>(n_bands);
    for (auto& band : bands) {
      std::sort(band.begin(), band.end());
      std::size_t kept = 0;
      for (const float u : band) {
        if (kept == 0 || !(u - band[kept - 1] < quantum)) band[kept++] = u;
      }
      obstacles_.insert(obstacles_.end(), band.begin(),
                        band.begin() + static_cast<std::ptrdiff_t>(kept));
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
  const Bin& rec = bins_[bin];
  const double cos_t = rec.cos_t;
  const double sin_t = rec.sin_t;

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
  const double band_f = (v - rec.v_min) / band_width_;
  if (band_f < 0.0) return static_cast<float>(max_range_);
  const auto band = static_cast<std::size_t>(band_f);
  if (band >= static_cast<std::size_t>(rec.band_count)) {
    return static_cast<float>(max_range_);
  }
  const std::size_t at = static_cast<std::size_t>(rec.first_band) + band;
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

/// Four-lane groups a batch keeps in flight; longer fans run in batches.
constexpr std::size_t kMaxGroups = 16;

/// What the kernel reads of a Cddt, as raw arrays and constants.
struct CddtView {
  const double* bins;  ///< Cddt::Bin records, four doubles each
  const long long* band_start;  ///< read as {start, end} pairs
  const float* obstacles;
  int bins_count;
  double band_width;
  float max_range;
};

/// Four beams of one origin between band lookup and result.
struct BeamSearch {
  __m128 forward;  ///< lanes that search ahead (upper_bound)
  __m128 uf;       ///< float(u), the origin along the bin axis
  __m128 key;      ///< u - slack ahead, u + slack behind
  __m128i in_bin;  ///< live lanes whose band exists
  __m128i first, last, lo, len;
};

/// range_line's bin selection, direction test and band bounds for the
/// headings wrapped into `line`, on the lanes set in `lanes`.
__attribute__((target("avx2"))) inline BeamSearch locate(
    const CddtView& c, __m256d x, __m256d y, const range_avx2::Wrapped4& line,
    __m128i lanes) {
  // Bin selection in range_line's order: mul, div, add, truncate, wrap.
  const __m256d scaled =
      _mm256_mul_pd(line.value, _mm256_set1_pd(c.bins_count));
  const __m256d bin_f = _mm256_add_pd(
      _mm256_div_pd(scaled, _mm256_set1_pd(kPi)), _mm256_set1_pd(0.5));
  // A lane past the end of the fan reads bin 0.
  __m128i b = _mm_and_si128(_mm256_cvttpd_epi32(bin_f), lanes);
  const __m128i wrapped = _mm_cmpgt_epi32(b, _mm_set1_epi32(c.bins_count - 1));
  b = _mm_sub_epi32(b, _mm_and_si128(wrapped, _mm_set1_epi32(c.bins_count)));

  // Direction: the ray runs along the bin axis when the heading is the
  // axis angle plus an even multiple of pi, counting the wrap into [0, pi)
  // and the bin wrap (DESIGN §15).
  const __m128i forward =
      _mm_cmpeq_epi32(range_avx2::narrow_mask(line.odd), wrapped);

  // One 32-byte record per lane, transposed: cos, sin, v_min and the
  // {first band, band count} pairs.
  const __m256d r0 = _mm256_load_pd(c.bins + 4 * _mm_cvtsi128_si32(b));
  const __m256d r1 = _mm256_load_pd(c.bins + 4 * _mm_extract_epi32(b, 1));
  const __m256d r2 = _mm256_load_pd(c.bins + 4 * _mm_extract_epi32(b, 2));
  const __m256d r3 = _mm256_load_pd(c.bins + 4 * _mm_extract_epi32(b, 3));
  const __m256d lo01 = _mm256_unpacklo_pd(r0, r1);
  const __m256d hi01 = _mm256_unpackhi_pd(r0, r1);
  const __m256d lo23 = _mm256_unpacklo_pd(r2, r3);
  const __m256d hi23 = _mm256_unpackhi_pd(r2, r3);
  const __m256d cos_t = _mm256_permute2f128_pd(lo01, lo23, 0x20);
  const __m256d sin_t = _mm256_permute2f128_pd(hi01, hi23, 0x20);
  const __m256d v_min = _mm256_permute2f128_pd(lo01, lo23, 0x31);
  const __m256i pairs = _mm256_permutevar8x32_epi32(
      _mm256_castpd_si256(_mm256_permute2f128_pd(hi01, hi23, 0x31)),
      _mm256_setr_epi32(0, 2, 4, 6, 1, 3, 5, 7));
  const __m128i first_band = _mm256_castsi256_si128(pairs);
  const __m128i count = _mm256_extracti128_si256(pairs, 1);

  // Band bounds; lanes outside the bin's bands load nothing.
  const __m256d u =
      _mm256_add_pd(_mm256_mul_pd(x, cos_t), _mm256_mul_pd(y, sin_t));
  const __m256d neg_x = _mm256_xor_pd(x, _mm256_set1_pd(-0.0));  // -x
  const __m256d v = _mm256_add_pd(_mm256_mul_pd(neg_x, sin_t),
                                  _mm256_mul_pd(y, cos_t));
  const __m256d offset = _mm256_sub_pd(v, v_min);
  const __m256d band_f =
      _mm256_div_pd(offset, _mm256_set1_pd(c.band_width));
  const __m256d zero = _mm256_setzero_pd();
  const __m128i in_bin = _mm_and_si128(
      lanes, range_avx2::narrow_mask(_mm256_and_pd(
                 _mm256_cmp_pd(band_f, zero, _CMP_GE_OQ),
                 _mm256_cmp_pd(band_f, _mm256_cvtepi32_pd(count),
                               _CMP_LT_OQ))));
  const __m128i at =
      _mm_add_epi32(first_band, _mm256_cvttpd_epi32(band_f));
  // One 64-bit gather reads both bounds: band_start[at], band_start[at + 1].
  const __m256i bounds = _mm256_permutevar8x32_epi32(
      _mm256_mask_i32gather_epi64(_mm256_setzero_si256(), c.band_start, at,
                                  _mm256_cvtepi32_epi64(in_bin), 4),
      _mm256_setr_epi32(0, 2, 4, 6, 1, 3, 5, 7));
  const __m128i first = _mm256_castsi256_si128(bounds);
  const __m128i last = _mm256_extracti128_si256(bounds, 1);

  const __m128 slack = _mm_set1_ps(static_cast<float>(0.5 * c.band_width));
  const __m128 uf = _mm256_cvtpd_ps(u);
  const __m128 fwd = _mm_castsi128_ps(forward);
  const __m128 key =
      _mm_blendv_ps(_mm_add_ps(uf, slack), _mm_sub_ps(uf, slack), fwd);
  return {fwd, uf, key, in_bin, first, last, first,
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
  const CddtView c{reinterpret_cast<const double*>(bins_.data()),
                   // Same bits, signed: every offset is below 2^31.
                   reinterpret_cast<const long long*>(band_start_.data()),
                   obstacles_.data(),
                   theta_bins(),
                   band_width_,
                   static_cast<float>(max_range_)};
  const __m256d theta0 = _mm256_set1_pd(sensor.theta);
  const __m256d x = _mm256_set1_pd(sensor.x);
  const __m256d y = _mm256_set1_pd(sensor.y);
  const std::size_t k = beam_angles.size();
  const double* angles = beam_angles.data();

  for (std::size_t batch = 0; batch < k; batch += 4 * kMaxGroups) {
    const std::size_t groups =
        (std::min(k - batch, 4 * kMaxGroups) + 3) / 4;
    // Locate every group of the batch, then run their searches side by
    // side: a search step is a dependent gather chain, so each group
    // fills the core while the others wait. The last group of the fan may
    // have fewer than four live lanes.
    BeamSearch s[kMaxGroups];
    unsigned searching = 0;
    unsigned scalar = 0;
    for (std::size_t g = 0; g < groups; ++g) {
      const std::size_t at = batch + 4 * g;
      const auto live = static_cast<int>(std::min<std::size_t>(k - at, 4));
      const __m128i lanes = _mm_cmpgt_epi32(_mm_set1_epi32(live),
                                            _mm_setr_epi32(0, 1, 2, 3));
      const __m256d theta = _mm256_add_pd(
          theta0,
          _mm256_maskload_pd(angles + at, _mm256_cvtepi32_epi64(lanes)));
      // Lanes outside (-2pi, 2pi) need wrap_into's fmod: the whole group
      // takes range_line (NaN and huge headings; never a filter's beams).
      const range_avx2::Wrapped4 line = range_avx2::wrap_into_wide(theta, kPi);
      if ((_mm256_movemask_pd(line.inside) | ((0xF << live) & 0xF)) != 0xF) {
        scalar |= 1U << g;
        continue;
      }
      s[g] = locate(c, x, y, line, lanes);
      searching |= 1U << g;
    }
    for (unsigned more = searching; more != 0;) {
      for (unsigned left = more; left != 0; left &= left - 1) {
        const auto g = static_cast<std::size_t>(__builtin_ctz(left));
        if (!search_step(c, s[g])) more &= ~(1U << g);
      }
    }
    for (unsigned left = searching; left != 0; left &= left - 1) {
      const auto g = static_cast<std::size_t>(__builtin_ctz(left));
      const std::size_t at = batch + 4 * g;
      const __m128 r = finish(c, s[g]);
      if (at + 4 <= k) {
        _mm_storeu_ps(out.data() + at, r);
      } else {
        alignas(16) float tail[4];
        _mm_store_ps(tail, r);
        std::copy(tail, tail + (k - at), out.data() + at);
      }
    }
    if (scalar != 0) {
      // Clean upper-YMM state before the scalar beams (DESIGN §15).
      _mm256_zeroupper();
      for (unsigned left = scalar; left != 0; left &= left - 1) {
        const std::size_t at =
            batch + 4 * static_cast<std::size_t>(__builtin_ctz(left));
        for (std::size_t l = at; l < std::min(at + 4, k); ++l) {
          out[l] = range_line(sensor.x, sensor.y, sensor.theta + angles[l]);
        }
      }
    }
  }
  // Clean upper-YMM state before the return (DESIGN §15).
  _mm256_zeroupper();
}
#endif

std::size_t Cddt::total_entries() const { return obstacles_.size(); }

}  // namespace srl
