#pragma once

/// \file rng.hpp
/// \brief Deterministic random number generation for simulation and
/// particle filtering. All stochastic components of the library draw from an
/// explicitly passed `Rng` so experiments are reproducible from a seed.
///
/// Beyond the single sequential stream, an `Rng` can derive *substreams*:
/// independent child generators keyed by a (stream tag, index) pair and the
/// master seed only — never by the parent's draw history. Substreams are the
/// foundation of the bitwise-deterministic parallel particle filter
/// (DESIGN.md §9): particle *i* draws its prediction noise from
/// `substream(kTag, i)`, so the noise it sees is a pure function of the seed
/// and its slot index, regardless of which thread advances it or how many
/// draws other components have made.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <ios>
#include <istream>
#include <limits>
#include <ostream>
#include <random>

namespace srl {

/// MT19937-64 (Nishimura 2000), the standard's `mt19937_64`: the same seeding,
/// output sequence and stream text as libstdc++'s engine, with the state
/// twist vectorized (DESIGN.md §15). The twist rewrites the 312-word state
/// in place. New word k reads words k and k + 1 and one word 156 positions
/// away: word k + 156 while k < 156, both still old, and word k - 156 after,
/// already new. So four neighbouring words never read each other and one
/// AVX2 pass computes them together; `twist()` dispatches through
/// `simd::active()`, and libstdc++'s scalar loop is the reference.
class MersenneTwister64 {
 public:
  using result_type = std::uint64_t;
  static constexpr std::size_t kStateSize = 312;
  static constexpr std::size_t kShift = 156;  ///< libstdc++'s `shift_size`

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  explicit MersenneTwister64(result_type seed) {
    state_[0] = seed;
    for (std::size_t i = 1; i < kStateSize; ++i) {
      const result_type prev = state_[i - 1];
      state_[i] = (prev ^ (prev >> 62)) * 6364136223846793005ULL + i;
    }
  }

  /// The next tempered word; twists the state first once it is used up.
  result_type operator()() {
    if (index_ >= kStateSize) twist();
    result_type z = state_[index_++];
    z ^= (z >> 29) & 0x5555555555555555ULL;
    z ^= (z << 17) & 0x71D67FFFEDA60000ULL;
    z ^= (z << 37) & 0xFFF7EEE000000000ULL;
    return z ^ (z >> 43);
  }

  /// libstdc++'s text: the 312 words and the index, decimal, one space
  /// apart; the stream's flags and fill come back unchanged.
  friend std::ostream& operator<<(std::ostream& os,
                                  const MersenneTwister64& engine) {
    const std::ios_base::fmtflags flags = os.flags();
    const char fill = os.fill();
    os.flags(std::ios_base::dec | std::ios_base::fixed | std::ios_base::left);
    os.fill(' ');
    for (const result_type word : engine.state_) os << word << ' ';
    os << engine.index_;
    os.flags(flags);
    os.fill(fill);
    return os;
  }
  /// Reads what operator<< writes, as libstdc++ reads it: no check on the
  /// index, and any index from 312 up twists at the next draw.
  friend std::istream& operator>>(std::istream& is,
                                  MersenneTwister64& engine) {
    const std::ios_base::fmtflags flags = is.flags();
    is.flags(std::ios_base::dec | std::ios_base::skipws);
    for (result_type& word : engine.state_) is >> word;
    is >> engine.index_;
    is.flags(flags);
    return is;
  }

 private:
  /// Regenerates all 312 words and rewinds the index (rng.cpp).
  void twist();

  result_type state_[kStateSize];
  std::size_t index_{kStateSize};
};

/// SplitMix64 finalizer (Steele, Lea & Flood 2014): bijective 64-bit mixing
/// used to derive substream seeds. This derivation is *pinned*: changing it
/// silently re-keys every substream and breaks replay compatibility
/// (test_determinism hardcodes known outputs to catch exactly that).
constexpr std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// `static_cast<double>(x)`, correctly rounded, without the branch GCC emits
/// for `uint64_t -> double` on x86-64 (it tests the top bit first). Both
/// 32-bit halves convert exactly, hi * 2^32 is exact, and the one addition
/// rounds the exact sum x once, to nearest even, as the cast does.
inline double uint64_to_double(std::uint64_t x) {
  return static_cast<double>(static_cast<std::uint32_t>(x >> 32)) * 0x1p32 +
         static_cast<double>(static_cast<std::uint32_t>(x));
}

/// A seeded pseudo-random generator with the distributions the library needs.
/// A MersenneTwister64 engine under samplers that reproduce libstdc++'s
/// `uniform_real_distribution` and `normal_distribution` over
/// `std::mt19937_64` bit for bit (DESIGN.md §15); copyable, so particle
/// clouds can fork deterministic sub-streams if needed.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x5eed5eedULL)
      : seed_{seed}, engine_{seed} {}

  /// Uniform double in [lo, hi), as `uniform_real_distribution` computes it.
  double uniform(double lo = 0.0, double hi = 1.0) {
    return canonical() * (hi - lo) + lo;
  }

  /// Uniform integer in [lo, hi] inclusive.
  int uniform_int(int lo, int hi) {
    return std::uniform_int_distribution<int>{lo, hi}(engine_);
  }

  /// Zero-mean Gaussian with the given standard deviation; draws nothing
  /// when `stddev <= 0`. The standard normal keeps its second deviate across
  /// calls (this sits in the particle filter's prediction hot loop).
  double gaussian(double stddev) {
    if (stddev <= 0.0) return 0.0;
    return stddev * standard_normal();
  }

  /// Gaussian with explicit mean.
  double gaussian(double mean, double stddev) {
    return mean + gaussian(stddev);
  }

  /// Bernoulli trial.
  bool chance(double p) { return uniform() < p; }

  /// Fresh 64-bit value (e.g. to seed a child Rng).
  std::uint64_t next_seed() { return engine_(); }

  /// The seed this generator (and all its substreams) derive from.
  std::uint64_t master_seed() const { return seed_; }

  /// Deterministic child stream keyed by (stream, index): a fresh Rng whose
  /// seed is a SplitMix64 chain over the *master seed* and the key. Pure —
  /// does not advance this engine and does not depend on how many draws the
  /// parent has made. Distinct keys yield independent streams; the same key
  /// always yields the same stream, so callers that need per-call freshness
  /// must fold an epoch counter into `index` (the particle filter documents
  /// its key schedule in core/particle_filter.hpp).
  Rng substream(std::uint64_t stream, std::uint64_t index = 0) const {
    std::uint64_t s = splitmix64(seed_ ^ (0x9E3779B97F4A7C15ULL * (stream + 1)));
    s = splitmix64(s ^ (0xBF58476D1CE4E5B9ULL * (index + 1)));
    return Rng{s};
  }

  /// Serialize the *complete* generator state — the master seed (which keys
  /// every substream derivation), the engine, and the cached second normal
  /// deviate — so a restored Rng reproduces the exact remaining stream, and
  /// every substream, bit for bit (the determinism checker round-trips this
  /// across a save/restore). The normal state is written as libstdc++
  /// writes a standard `std::normal_distribution<double>`: mean, stddev,
  /// flag and cached value, scientific, left-aligned, at max_digits10.
  friend std::ostream& operator<<(std::ostream& os, const Rng& rng) {
    os << rng.seed_ << ' ' << rng.engine_ << ' ';
    const std::ios_base::fmtflags flags = os.flags();
    const char fill = os.fill();
    const std::streamsize precision = os.precision();
    os.flags(std::ios_base::scientific | std::ios_base::left);
    os.fill(' ');
    os.precision(std::numeric_limits<double>::max_digits10);
    os << 0.0 << ' ' << 1.0 << ' ' << rng.saved_available_;
    if (rng.saved_available_) os << ' ' << rng.saved_;
    os.flags(flags);
    os.fill(fill);
    os.precision(precision);
    return os;
  }
  /// Reads what operator<< writes. A normal state whose mean and stddev are
  /// not 0 and 1 was not written by an Rng and sets failbit.
  friend std::istream& operator>>(std::istream& is, Rng& rng) {
    is >> rng.seed_ >> rng.engine_;
    const std::ios_base::fmtflags flags = is.flags();
    is.flags(std::ios_base::dec | std::ios_base::skipws);
    double mean = 0.0;
    double stddev = 0.0;
    bool available = false;
    if (is >> mean >> stddev >> available) {
      double saved = 0.0;
      if (mean != 0.0 || stddev != 1.0) {
        is.setstate(std::ios_base::failbit);
      } else if (!available || (is >> saved)) {
        rng.saved_available_ = available;
        rng.saved_ = saved;
      }
    }
    is.flags(flags);
    return is;
  }

 private:
  static constexpr double kBelowOne = 0x1.fffffffffffffp-1;  // nextafter(1, 0)

  /// Uniform double in [0, 1): `std::generate_canonical<double, 53>` over
  /// the engine, which is one draw x as double(x) * 2^-64, clamped to the
  /// largest double below 1 (x near 2^64 rounds up to 2^64).
  double canonical() {
    return std::min(uint64_to_double(engine_()) * 0x1p-64, kBelowOne);
  }

  /// libstdc++'s Marsaglia polar method, draw for draw: a pair of
  /// 2u - 1 deviates, rejected while r2 > 1 or r2 == 0, yields y * mult
  /// now and caches x * mult for the next call.
  double standard_normal() {
    double z;
    if (saved_available_) {
      saved_available_ = false;
      z = saved_;
    } else {
      double x;
      double y;
      double r2;
      do {
        x = 2.0 * canonical() - 1.0;
        y = 2.0 * canonical() - 1.0;
        r2 = x * x + y * y;
      } while (r2 > 1.0 || r2 == 0.0);
      const double mult = std::sqrt(-2 * std::log(r2) / r2);
      saved_ = x * mult;
      saved_available_ = true;
      z = y * mult;
    }
    // The distribution's `z * stddev + mean` with (0, 1): the product is z
    // itself, and adding +0.0 turns a -0.0 into +0.0.
    return z + 0.0;
  }

  std::uint64_t seed_;
  MersenneTwister64 engine_;
  double saved_{0.0};
  bool saved_available_{false};
};

}  // namespace srl
