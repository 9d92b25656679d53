#include "core/pf_kernels.hpp"

#include <cstddef>

#if defined(SRL_SIMD_X86_AVX2)
#include <immintrin.h>
#endif

namespace srl::pf_kernels {

void ScanContext::build(const BeamModel& model, const LaserScan& scan,
                        std::span<const int> beam_indices) {
  log_table = model.log_table_data();
  inv_resolution = model.inv_resolution();
  table_dim = model.table_dim();
  columns.clear();
  row_offsets.clear();
  columns.reserve(beam_indices.size());
  row_offsets.reserve(beam_indices.size());
  for (std::size_t j = 0; j < beam_indices.size(); ++j) {
    const auto idx = static_cast<std::size_t>(beam_indices[j]);
    if (idx >= scan.ranges.size()) continue;
    columns.push_back(static_cast<std::int32_t>(j));
    row_offsets.push_back(model.range_bin(scan.ranges[idx]) * table_dim);
  }
  // Sequential pushes of j mean columns is the identity iff nothing was
  // skipped.
  dense_columns = columns.size() == beam_indices.size();
}

void accumulate_log_weights_scalar(const ScanContext& ctx,
                                   const float* expected, std::size_t k,
                                   std::size_t begin, std::size_t end,
                                   double* out) {
  const double* table = ctx.log_table;
  const double inv_res = ctx.inv_resolution;
  const std::int32_t dim_m1 = ctx.table_dim - 1;
  const std::int32_t* cols = ctx.columns.data();
  const std::int32_t* rows = ctx.row_offsets.data();
  const std::size_t m = ctx.scored_beams();
  for (std::size_t i = begin; i < end; ++i) {
    const float* row = expected + i * k;
    double log_w = 0.0;
    for (std::size_t j = 0; j < m; ++j) {
      // Exactly BeamModel::range_bin on the expected value, bounds compared
      // before the cast; the measured half of the lookup is already folded
      // into rows[j].
      const double x = static_cast<double>(row[cols[j]]) * inv_res + 0.5;
      const std::int32_t b = !(x < dim_m1)
                                 ? dim_m1
                                 : (x < 0.0 ? 0 : static_cast<std::int32_t>(x));
      log_w += table[static_cast<std::size_t>(rows[j] + b)];
    }
    out[i] = log_w;
  }
}

#if defined(SRL_SIMD_X86_AVX2)
// GCC's gather intrinsics seed their destination register with
// _mm256_undefined_pd(), which -Wmaybe-uninitialized flags under -Werror
// (GCC PR105593). The gathers here use the all-ones-mask forms, so every
// lane is written; the warning is a false positive.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
__attribute__((target("avx2"))) void accumulate_log_weights_avx2(
    const ScanContext& ctx, const float* expected, std::size_t k,
    std::size_t begin, std::size_t end, double* out) {
  const double* table = ctx.log_table;
  const std::int32_t* cols = ctx.columns.data();
  const std::int32_t* rows = ctx.row_offsets.data();
  const std::size_t m = ctx.scored_beams();
  const __m256d inv_res = _mm256_set1_pd(ctx.inv_resolution);
  const __m256d half = _mm256_set1_pd(0.5);
  const __m128i zero = _mm_setzero_si128();
  const __m256d dim_m1 = _mm256_set1_pd(ctx.table_dim - 1);
  const auto kk = static_cast<std::int32_t>(k);
  // Lane l reads particle (i + l)'s row: stride k floats apart.
  const __m128i row_stride = _mm_setr_epi32(0, kk, 2 * kk, 3 * kk);

  std::size_t i = begin;
  for (; i + 4 <= end; i += 4) {
    const float* base = expected + i * k;
    __m256d acc = _mm256_setzero_pd();
    std::size_t j = 0;
    // Dense hot path: the four particles' scored ranges are contiguous
    // rows, so four plain 16-byte loads plus a 4x4 transpose replace four
    // strided `_mm_i32gather_ps` per beam group (gathers are the
    // bottleneck on gather-slow cores). Lanes receive the same values in
    // the same ascending beam order — bitwise identical, just cheaper.
    if (ctx.dense_columns) {
      for (; j + 4 <= m; j += 4) {
        __m128 e0 = _mm_loadu_ps(base + 0 * k + j);
        __m128 e1 = _mm_loadu_ps(base + 1 * k + j);
        __m128 e2 = _mm_loadu_ps(base + 2 * k + j);
        __m128 e3 = _mm_loadu_ps(base + 3 * k + j);
        _MM_TRANSPOSE4_PS(e0, e1, e2, e3);
        const __m128 beams[4] = {e0, e1, e2, e3};
        for (int l = 0; l < 4; ++l) {
          __m256d ed = _mm256_cvtps_pd(beams[l]);
          // Unfused mul then add — same two roundings as the scalar path.
          ed = _mm256_add_pd(_mm256_mul_pd(ed, inv_res), half);
          // range_bin's clamp: the top bound (NaN included: min_pd returns
          // its second operand) before the truncation, 0 after it.
          const __m128i b = _mm_max_epi32(
              _mm256_cvttpd_epi32(_mm256_min_pd(ed, dim_m1)), zero);
          const __m128i idx =
              _mm_add_epi32(b, _mm_set1_epi32(rows[j + static_cast<std::size_t>(l)]));
          acc = _mm256_add_pd(acc, _mm256_i32gather_pd(table, idx, 8));
        }
      }
    }
    // Sparse columns, and the dense tail of fewer than four beams.
    for (; j < m; ++j) {
      const __m128 e4 = _mm_i32gather_ps(base + cols[j], row_stride, 4);
      __m256d ed = _mm256_cvtps_pd(e4);
      // Unfused mul then add — same two roundings as the scalar path.
      ed = _mm256_add_pd(_mm256_mul_pd(ed, inv_res), half);
      const __m128i b =
          _mm_max_epi32(_mm256_cvttpd_epi32(_mm256_min_pd(ed, dim_m1)), zero);
      const __m128i idx = _mm_add_epi32(b, _mm_set1_epi32(rows[j]));
      acc = _mm256_add_pd(acc, _mm256_i32gather_pd(table, idx, 8));
    }
    _mm256_storeu_pd(out + i, acc);
  }
  // Clean upper-YMM state before any non-VEX code runs (DESIGN §15): dirty
  // state would slow every later SSE instruction on this lane. GCC's own
  // vzeroupper covers neither the remainder's tail call nor an unoptimized
  // build.
  _mm256_zeroupper();
  if (i < end) {
    accumulate_log_weights_scalar(ctx, expected, k, i, end, out);
  }
}
#pragma GCC diagnostic pop
#endif

void accumulate_log_weights(simd::Backend backend, const ScanContext& ctx,
                            const float* expected, std::size_t k,
                            std::size_t begin, std::size_t end, double* out) {
#if defined(SRL_SIMD_X86_AVX2)
  if (backend == simd::Backend::kAvx2 && simd::cpu_has_avx2()) {
    accumulate_log_weights_avx2(ctx, expected, k, begin, end, out);
    return;
  }
#else
  (void)backend;
#endif
  accumulate_log_weights_scalar(ctx, expected, k, begin, end, out);
}

}  // namespace srl::pf_kernels
