#pragma once

/// \file fnv1a.hpp
/// \brief 64-bit FNV-1a, the one fingerprint hash behind the determinism
/// gates: `trace_hash` (eval/fault_replay), `estimates_hash` and the folded
/// throughput-document hash (eval/throughput_json), and the flight
/// recorder's estimate-trajectory hash all fold their bytes through it.
///
/// Values are hashed by their in-memory bytes, so a double contributes its
/// exact bits. Fingerprints are compared across runs of one build and
/// against baselines from little-endian hosts.

#include <cstddef>
#include <cstdint>
#include <type_traits>

namespace srl {

/// Start value of every FNV-1a fold.
inline constexpr std::uint64_t kFnv1aOffset = 0xcbf29ce484222325ULL;

/// Fold `n` raw bytes at `data` into the running hash `h`.
inline std::uint64_t fnv1a_bytes(std::uint64_t h, const void* data,
                                 std::size_t n) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= bytes[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Fold one arithmetic value's bytes into the running hash `h`.
template <typename T>
std::uint64_t fnv1a(std::uint64_t h, T value) {
  static_assert(std::is_arithmetic_v<T>, "fnv1a folds scalar values");
  return fnv1a_bytes(h, &value, sizeof(T));
}

}  // namespace srl
