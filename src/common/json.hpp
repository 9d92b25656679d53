#pragma once

/// \file json.hpp
/// \brief Minimal dependency-free JSON: an ordered document model, a stable
/// pretty-printer, and a strict recursive-descent parser.
///
/// Built for the machine-readable benchmark pipeline (BENCH_*.json and the
/// `bench_compare` CI gate), where two properties matter more than feature
/// count:
///
///  - **Stable output.** Object members serialize in insertion order and
///    numbers print with up-to-17-significant-digit round-trip formatting,
///    so identical documents produce identical bytes and diffs stay
///    readable across commits.
///  - **Strict round-trip.** `parse(dump(v))` reconstructs `v` exactly
///    (numbers bit-for-bit); malformed input yields nullopt, never a
///    partially-filled document.
///
/// Not a general-purpose JSON library: no comments, no NaN/Inf (rejected on
/// both ends — encode them out-of-band), numbers are doubles.

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace srl::json {

class Value {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Value() : kind_{Kind::kNull} {}
  static Value null() { return Value{}; }
  static Value boolean(bool b);
  static Value number(double d);
  static Value string(std::string s);
  static Value array();
  static Value object();

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  /// Typed readers; the fallback is returned on kind mismatch.
  bool as_bool(bool fallback = false) const;
  double as_double(double fallback = 0.0) const;
  const std::string& as_string() const;  ///< empty string on mismatch
  /// A whole number in [0, max] as an integer; nullopt for any other kind
  /// or value. The checked way to read a count or seed from a document
  /// that came from outside the program: casting a double that the target
  /// type cannot hold is undefined behaviour.
  std::optional<std::uint64_t> as_uint(
      std::uint64_t max = std::numeric_limits<std::uint64_t>::max()) const;

  // -- array --
  /// Append to an array (no-op on other kinds).
  void push_back(Value v);
  std::size_t size() const;  ///< array/object element count, else 0
  /// Array element i; nullptr out of range or not an array.
  const Value* at(std::size_t i) const;

  // -- object --
  /// Insert or overwrite member `key` (keeps first-insertion order).
  void set(const std::string& key, Value v);
  /// Member lookup; nullptr when absent or not an object.
  const Value* find(const std::string& key) const;
  /// Members in insertion order (empty for non-objects).
  const std::vector<std::pair<std::string, Value>>& members() const;

  /// Serialize. `indent` spaces per level; 0 = compact single line.
  std::string dump(int indent = 2) const;

  /// Strict parse of a complete JSON document (trailing garbage rejected).
  static std::optional<Value> parse(const std::string& text);

  /// File convenience wrappers.
  bool save(const std::string& path, int indent = 2) const;
  static std::optional<Value> load(const std::string& path);

 private:
  void dump_to(std::string& out, int indent, int depth) const;

  Kind kind_;
  bool bool_{false};
  double number_{0.0};
  std::string string_{};
  std::vector<Value> array_{};
  std::vector<std::pair<std::string, Value>> object_{};
};

/// Member `key` of `object` into `out` through `Value::as_uint`, bounded by
/// what `Int` can hold. `out` keeps its value when the member is absent.
/// False, with `error` naming the member, when it is present but is no
/// such number.
template <typename Int>
bool read_uint(const Value& object, const std::string& key, Int& out,
               std::string& error) {
  const Value* member = object.find(key);
  if (member == nullptr) return true;
  const std::optional<std::uint64_t> n = member->as_uint(
      static_cast<std::uint64_t>(std::numeric_limits<Int>::max()));
  if (!n.has_value()) {
    error = key + ": not a whole number in range";
    return false;
  }
  out = static_cast<Int>(*n);
  return true;
}

/// Member `key` of `object` through `Value::as_double`; `fallback` when it
/// is absent.
inline double num_field(const Value& object, const char* key,
                        double fallback) {
  const Value* member = object.find(key);
  return member != nullptr ? member->as_double(fallback) : fallback;
}

/// Member `key` of `object` through `Value::as_string`; empty when absent.
inline std::string str_field(const Value& object, const char* key) {
  const Value* member = object.find(key);
  return member != nullptr ? member->as_string() : std::string{};
}

/// Round-trip double formatting, the one number format used across every
/// benchmark JSON: a finite whole number below 2^53 in magnitude as an
/// integer ("270", "-0"), any other number in the shortest "%.*g" form
/// that parses back to the same bits.
std::string format_number(double d);

/// 64-bit hashes and seeds do not fit a double exactly, so every benchmark
/// JSON carries them as fixed-width hex strings: "0x%016" PRIx64.
std::string format_hex64(std::uint64_t v);

// -- NDJSON (newline-delimited JSON) ----------------------------------------
// The append-only sink format of the telemetry event journal: one compact
// document per line, so a crash mid-write loses at most the last line and a
// reader can stream a journal without holding it in memory.

/// Append `v` to `path` as one compact line (file created when absent).
bool append_ndjson(const std::string& path, const Value& v);

/// Parse every non-empty line of an NDJSON file. Strict like `parse`: any
/// malformed line fails the whole load (nullopt), so a truncated tail line
/// is detected rather than silently dropped. Blank lines are permitted.
std::optional<std::vector<Value>> load_ndjson(const std::string& path);

}  // namespace srl::json
