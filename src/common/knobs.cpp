#include "common/knobs.hpp"

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <string>

#include "common/json.hpp"

namespace srl {

namespace {

/// `text` through `std::from_chars`: nullopt unless every character was
/// consumed and the value is representable.
template <typename T>
std::optional<T> parse_whole(std::string_view text) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [stop, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc{} || stop != end) return std::nullopt;
  return value;
}

/// The knob's text, or nullptr when it is unset or empty.
const char* env_text(const char* name) {
  const char* text = std::getenv(name);
  return text != nullptr && text[0] != '\0' ? text : nullptr;
}

[[noreturn]] void reject(const char* name, const char* text, const char* what,
                         const std::string& lo, const std::string& hi) {
  throw KnobError{std::string{name} + "='" + text + "' is not " + what +
                  " in [" + lo + ", " + hi + "]"};
}

}  // namespace

std::optional<std::uint64_t> parse_uint(std::string_view text,
                                        std::uint64_t lo, std::uint64_t hi) {
  const std::optional<std::uint64_t> value = parse_whole<std::uint64_t>(text);
  if (!value || *value < lo || *value > hi) return std::nullopt;
  return value;
}

std::optional<double> parse_real(std::string_view text, double lo,
                                 double hi) {
  const std::optional<double> value = parse_whole<double>(text);
  if (!value || !std::isfinite(*value) || *value < lo || *value > hi) {
    return std::nullopt;
  }
  return value;
}

std::uint64_t env_uint(const char* name, std::uint64_t fallback,
                       std::uint64_t lo, std::uint64_t hi) {
  const char* text = env_text(name);
  if (text == nullptr) return fallback;
  if (const auto value = parse_uint(text, lo, hi)) return *value;
  reject(name, text, "an integer", std::to_string(lo), std::to_string(hi));
}

double env_real(const char* name, double fallback, double lo, double hi) {
  const char* text = env_text(name);
  if (text == nullptr) return fallback;
  if (const auto value = parse_real(text, lo, hi)) return *value;
  reject(name, text, "a finite number", json::format_number(lo),
         json::format_number(hi));
}

}  // namespace srl
