#pragma once

/// \file avx2_lanes.hpp
/// \brief Lane helpers shared by the AVX2 range kernels (the LUT and CDDT
/// batches and the ray-marching cast, DESIGN §15). Private to src/range.
///
/// `wrap_into` on four doubles. The scalar `wrap_into(a, p)` takes one or
/// two exact steps on four regions of the line:
///
///   region      result
///   [0, p)      a
///   [-p, 0)     a + p, or +0.0 where that rounds up to p
///   [p, 2p)     a - p
///   (-2p, -p)   (a + p) + p, or +0.0 where that rounds up to p
///
/// `wrap_into` covers the first three, the same single addition or
/// subtraction per lane. `wrap_into_wide` adds the last: there the scalar
/// `fmod(a, p)` is `a + p`, and that sum is exact (Sterbenz), so the wide
/// form adds p first and hands the lane to the three-region form. The
/// LUT batch, whose headings never leave [-p, p), uses the narrow form:
/// the wide one's extra compare, add and blend showed in its per-query
/// cost (DESIGN §15). CDDT, whose headings near -pi plus a negative beam
/// offset reach (-2p, -p), uses the wide one. Lanes outside a form's
/// regions, NaN and +-Inf among them, are clear in `inside` and carry a
/// meaningless value: the kernels send a group with any such lane to their
/// scalar path.

#include "common/simd.hpp"

#if defined(SRL_SIMD_X86_AVX2)
#include <immintrin.h>

namespace srl::range_avx2 {

struct Wrapped4 {
  __m256d value;   ///< wrap_into(a, period) on the lanes set in `inside`
  __m256d inside;  ///< all-ones on the lanes the form covers
  /// All-ones on the lanes whose `value` is `a` moved by an odd number of
  /// periods, where a +0.0 that replaces a sum rounded up to p counts as
  /// one period more (it stands for p): [-p, 0) and [p, 2p) are odd and
  /// [0, p) and (-2p, -p) even, and the +0.0 case flips the two negative
  /// regions. CDDT's direction test reads it.
  __m256d odd;
};

/// The three regions [-period, 2 period).
__attribute__((target("avx2"))) inline Wrapped4 wrap_into(__m256d a,
                                                          double period) {
  const __m256d p = _mm256_set1_pd(period);
  const __m256d inside = _mm256_and_pd(
      _mm256_cmp_pd(a, _mm256_set1_pd(-period), _CMP_GE_OQ),
      _mm256_cmp_pd(a, _mm256_set1_pd(2.0 * period), _CMP_LT_OQ));
  // The scalar branches' single addition or subtraction, unfused. A sum
  // that rounds up to exactly p becomes +0.0 (AND with its "< p" mask).
  const __m256d plus = _mm256_add_pd(a, p);
  const __m256d plus_below_p = _mm256_cmp_pd(plus, p, _CMP_LT_OQ);
  const __m256d plus_ok = _mm256_and_pd(plus, plus_below_p);
  const __m256d minus = _mm256_sub_pd(a, p);
  const __m256d negative = _mm256_cmp_pd(a, _mm256_setzero_pd(), _CMP_LT_OQ);
  const __m256d high = _mm256_cmp_pd(a, p, _CMP_GE_OQ);
  __m256d v = _mm256_blendv_pd(a, plus_ok, negative);
  v = _mm256_blendv_pd(v, minus, high);
  return {v, inside,
          _mm256_or_pd(_mm256_and_pd(negative, plus_below_p), high)};
}

/// All four regions, (-2 period, 2 period).
__attribute__((target("avx2"))) inline Wrapped4 wrap_into_wide(
    __m256d a, double period) {
  const __m256d below =
      _mm256_cmp_pd(a, _mm256_set1_pd(-period), _CMP_LT_OQ);
  const __m256d a_up = _mm256_add_pd(a, _mm256_set1_pd(period));
  const Wrapped4 w = wrap_into(_mm256_blendv_pd(a, a_up, below), period);
  return {w.value,
          _mm256_and_pd(
              _mm256_cmp_pd(a, _mm256_set1_pd(-2.0 * period), _CMP_GT_OQ),
              _mm256_cmp_pd(a, _mm256_set1_pd(2.0 * period), _CMP_LT_OQ)),
          _mm256_xor_pd(w.odd, below)};
}

/// True when every lane of a `Wrapped4::inside` mask is set.
__attribute__((target("avx2"))) inline bool all_inside(const Wrapped4& w) {
  return _mm256_movemask_pd(w.inside) == 0xF;
}

/// A 4 x 64-bit lane mask narrowed to 4 x 32-bit lanes, for the 128-bit
/// gathers and blends.
__attribute__((target("avx2"))) inline __m128i narrow_mask(__m256d mask) {
  const __m256i even = _mm256_setr_epi32(0, 2, 4, 6, 0, 2, 4, 6);
  return _mm256_castsi256_si128(
      _mm256_permutevar8x32_epi32(_mm256_castpd_si256(mask), even));
}

}  // namespace srl::range_avx2
#endif
