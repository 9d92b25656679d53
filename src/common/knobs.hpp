#pragma once

/// \file knobs.hpp
/// \brief The one checked reader for numeric knobs: the programs'
/// environment variables (SRL_LAPS, SRL_SEED, SRL_BUDGET_MS, ...) and
/// numeric command-line flags. A value passes only when the whole text
/// parses, the number is finite and it lies in the knob's range.
/// `std::atoi` and `std::atof`, which this replaces, are undefined on
/// out-of-range text and read a non-number as 0.

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string_view>

namespace srl {

/// `text` as a whole decimal integer in [lo, hi]; nullopt otherwise (a
/// sign, a blank, a trailing character or a value past 2^64 - 1 included).
std::optional<std::uint64_t> parse_uint(std::string_view text,
                                        std::uint64_t lo, std::uint64_t hi);

/// `text` as a whole finite decimal number in [lo, hi]; nullopt otherwise
/// ("nan", "inf" and a value past the double range included).
std::optional<double> parse_real(std::string_view text, double lo, double hi);

/// A knob whose text its reader rejects; `what()` names the knob, its text
/// and the range it must lie in.
struct KnobError : std::invalid_argument {
  using std::invalid_argument::invalid_argument;
};

/// Environment knob `name` through `parse_uint`: `fallback` when it is unset
/// or empty (CI sets some knobs to empty strings), its value when it
/// passes. Throws KnobError otherwise.
std::uint64_t env_uint(const char* name, std::uint64_t fallback,
                       std::uint64_t lo, std::uint64_t hi);

/// Environment knob `name` through `parse_real`, as `env_uint`.
double env_real(const char* name, double fallback, double lo, double hi);

}  // namespace srl
