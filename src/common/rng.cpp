#include "common/rng.hpp"

#include "common/simd.hpp"

#if defined(SRL_SIMD_X86_AVX2)
#include <immintrin.h>
#endif

namespace srl {
namespace {

using Word = MersenneTwister64::result_type;
constexpr std::size_t kN = MersenneTwister64::kStateSize;
constexpr std::size_t kM = MersenneTwister64::kShift;
constexpr Word kUpper = ~Word{0} << 31;
constexpr Word kLower = ~kUpper;
constexpr Word kMatrix = 0xB5026F5AA96619E9ULL;

/// One word of the recurrence: the top bit of `hi`, the low 31 of `lo`,
/// shifted and xored into `far`, with the matrix where y is odd. The
/// matrix term `(y & 1) ? a : 0` is taken as a mask: a branch on a random
/// bit mispredicts half the time.
inline Word next_word(Word far, Word hi, Word lo) {
  const Word y = (hi & kUpper) | (lo & kLower);
  return far ^ (y >> 1) ^ ((Word{0} - (y & 1U)) & kMatrix);
}

/// libstdc++'s `_M_gen_rand`, loop for loop: the reference and the
/// non-AVX2 path.
void twist_scalar(Word* x) {
  for (std::size_t k = 0; k < kN - kM; ++k) {
    x[k] = next_word(x[k + kM], x[k], x[k + 1]);
  }
  for (std::size_t k = kN - kM; k < kN - 1; ++k) {
    x[k] = next_word(x[k - (kN - kM)], x[k], x[k + 1]);
  }
  x[kN - 1] = next_word(x[kM - 1], x[kN - 1], x[0]);
}

#if defined(SRL_SIMD_X86_AVX2)
/// Words k..k+3 from `far` (four words 156 away) and words k..k+4.
__attribute__((target("avx2"))) inline void next_four(Word* x, std::size_t k,
                                                      const Word* far) {
  const __m256i upper = _mm256_set1_epi64x(static_cast<long long>(kUpper));
  const __m256i one = _mm256_set1_epi64x(1);
  const __m256i here =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(x + k));
  const __m256i next =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(x + k + 1));
  const __m256i y = _mm256_or_si256(_mm256_and_si256(here, upper),
                                    _mm256_andnot_si256(upper, next));
  // (y & 1) ? a : 0 as a mask: 0 - (y & 1) is all ones or zero.
  const __m256i odd =
      _mm256_sub_epi64(_mm256_setzero_si256(), _mm256_and_si256(y, one));
  const __m256i word = _mm256_xor_si256(
      _mm256_xor_si256(
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(far)),
          _mm256_srli_epi64(y, 1)),
      _mm256_and_si256(
          odd, _mm256_set1_epi64x(static_cast<long long>(kMatrix))));
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(x + k), word);
}

/// twist_scalar four words per pass. The first 156 words read only old
/// words; the next 152 read new words at least 156 back, written by an
/// earlier pass, and old words at k..k+4, which no pass has reached yet.
/// The last four words run the scalar steps: the final one reads the new
/// word 0.
__attribute__((target("avx2"))) void twist_avx2(Word* x) {
  constexpr std::size_t kVector = kN - 4;  // 308: 39 + 38 passes
  static_assert((kN - kM) % 4 == 0 && kVector % 4 == 0);
  for (std::size_t k = 0; k < kN - kM; k += 4) next_four(x, k, x + k + kM);
  for (std::size_t k = kN - kM; k < kVector; k += 4) {
    next_four(x, k, x + k - (kN - kM));
  }
  // Clean upper-YMM state before the scalar steps and the caller's
  // sampler arithmetic (DESIGN §15).
  _mm256_zeroupper();
  for (std::size_t k = kVector; k < kN - 1; ++k) {
    x[k] = next_word(x[k - (kN - kM)], x[k], x[k + 1]);
  }
  x[kN - 1] = next_word(x[kM - 1], x[kN - 1], x[0]);
}
#endif

}  // namespace

void MersenneTwister64::twist() {
#if defined(SRL_SIMD_X86_AVX2)
  if (simd::active() == simd::Backend::kAvx2) {
    twist_avx2(state_);
    index_ = 0;
    return;
  }
#endif
  twist_scalar(state_);
  index_ = 0;
}

}  // namespace srl
