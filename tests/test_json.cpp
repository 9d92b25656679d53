#include "common/json.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

namespace srl::json {
namespace {

// RAII scratch file for the file-backed round-trip tests.
struct TempFile {
  std::string path;
  explicit TempFile(const char* name)
      : path{std::string{::testing::TempDir()} + name} {
    std::remove(path.c_str());
  }
  ~TempFile() { std::remove(path.c_str()); }
};

// ------------------------------------------------------------ happy paths

TEST(JsonParse, RoundTripsEveryKind) {
  Value root = Value::object();
  root.set("null", Value::null());
  root.set("t", Value::boolean(true));
  root.set("f", Value::boolean(false));
  root.set("n", Value::number(-12.5));
  root.set("s", Value::string("a\"b\\c\n\t\x01"));
  Value arr = Value::array();
  arr.push_back(Value::number(1.0));
  arr.push_back(Value::string("two"));
  arr.push_back(Value::array());
  root.set("a", std::move(arr));
  root.set("empty_obj", Value::object());

  for (const int indent : {0, 2, 4}) {
    const auto parsed = Value::parse(root.dump(indent));
    ASSERT_TRUE(parsed.has_value()) << "indent=" << indent;
    EXPECT_EQ(parsed->dump(0), root.dump(0));
  }
}

TEST(JsonParse, NumbersRoundTripBitwise) {
  const double cases[] = {0.0,
                          -0.0,
                          1.0,
                          -1.0,
                          0.1,
                          1e-300,
                          1e300,
                          std::numeric_limits<double>::min(),
                          std::numeric_limits<double>::max(),
                          std::numeric_limits<double>::denorm_min(),
                          std::numeric_limits<double>::epsilon(),
                          4097.000000000001,
                          -2.2250738585072014e-308};
  for (const double d : cases) {
    const auto parsed = Value::parse(format_number(d));
    ASSERT_TRUE(parsed.has_value()) << format_number(d);
    const double back = parsed->as_double();
    EXPECT_EQ(std::memcmp(&back, &d, sizeof(double)), 0)
        << format_number(d) << " re-parsed as " << format_number(back);
  }
}

TEST(JsonParse, WholeNumbersBelowTwoToThe53PrintAsIntegers) {
  const struct {
    double value;
    const char* text;
  } cases[] = {
      {270.0, "270"},
      {800.0, "800"},
      {0x1p53 - 1.0, "9007199254740991"},
      {-(0x1p53 - 1.0), "-9007199254740991"},
      {-0.0, "-0"},
      {0.0, "0"},
      // From 2^53 on, and for every number that is not whole, the shortest
      // round-trip form stays (2^53 happens to need all 16 digits).
      {0x1p53, "9007199254740992"},
      {1e20, "1e+20"},
      {0.5, "0.5"},
      {1e-300, "1e-300"},
  };
  for (const auto& c : cases) {
    EXPECT_EQ(format_number(c.value), c.text);
    const auto parsed = Value::parse(format_number(c.value));
    ASSERT_TRUE(parsed.has_value()) << c.text;
    const double back = parsed->as_double();
    EXPECT_EQ(std::memcmp(&back, &c.value, sizeof(double)), 0) << c.text;
  }
}

TEST(JsonParse, AcceptsSurroundingWhitespaceOnly) {
  EXPECT_TRUE(Value::parse("  \t\n true \r\n ").has_value());
  EXPECT_TRUE(Value::parse("[1 , 2 ,\t3]").has_value());
}

TEST(JsonParse, UnicodeEscapes) {
  const auto bmp = Value::parse("\"\\u00e9\\u20ac\"");  // é €
  ASSERT_TRUE(bmp.has_value());
  EXPECT_EQ(bmp->as_string(), "\xc3\xa9\xe2\x82\xac");
  const auto astral = Value::parse("\"\\ud83d\\ude00\"");  // 😀 (pair)
  ASSERT_TRUE(astral.has_value());
  EXPECT_EQ(astral->as_string(), "\xf0\x9f\x98\x80");
}

TEST(JsonParse, NestsToDepthLimitExactly) {
  auto nested = [](int depth) {
    return std::string(static_cast<std::size_t>(depth), '[') + "1" +
           std::string(static_cast<std::size_t>(depth), ']');
  };
  EXPECT_TRUE(Value::parse(nested(64)).has_value());
  EXPECT_FALSE(Value::parse(nested(65)).has_value());
}

// ----------------------------------------------------- strict error paths

TEST(JsonParse, RejectsEmptyAndTrailingGarbage) {
  EXPECT_FALSE(Value::parse("").has_value());
  EXPECT_FALSE(Value::parse("   ").has_value());
  EXPECT_FALSE(Value::parse("true false").has_value());
  EXPECT_FALSE(Value::parse("{} x").has_value());
  EXPECT_FALSE(Value::parse("1 2").has_value());
  EXPECT_FALSE(Value::parse("[1],").has_value());
}

TEST(JsonParse, RejectsMalformedLiterals) {
  EXPECT_FALSE(Value::parse("tru").has_value());
  EXPECT_FALSE(Value::parse("falsey").has_value());
  EXPECT_FALSE(Value::parse("nul").has_value());
  EXPECT_FALSE(Value::parse("None").has_value());
  EXPECT_FALSE(Value::parse("TRUE").has_value());
}

TEST(JsonParse, RejectsMalformedNumbers) {
  EXPECT_FALSE(Value::parse("-").has_value());
  EXPECT_FALSE(Value::parse("1.").has_value());
  EXPECT_FALSE(Value::parse(".5").has_value());
  EXPECT_FALSE(Value::parse("1e").has_value());
  EXPECT_FALSE(Value::parse("1e+").has_value());
  EXPECT_FALSE(Value::parse("+1").has_value());
  EXPECT_FALSE(Value::parse("0x10").has_value());
  // NaN/Inf are rejected on both ends by design.
  EXPECT_FALSE(Value::parse("NaN").has_value());
  EXPECT_FALSE(Value::parse("Infinity").has_value());
  EXPECT_FALSE(Value::parse("-Infinity").has_value());
  EXPECT_FALSE(Value::parse("1e999").has_value());  // overflows to inf
}

TEST(JsonParse, RejectsMalformedStrings) {
  EXPECT_FALSE(Value::parse("\"unterminated").has_value());
  EXPECT_FALSE(Value::parse("\"bad escape \\q\"").has_value());
  EXPECT_FALSE(Value::parse("\"\\u12\"").has_value());      // short hex
  EXPECT_FALSE(Value::parse("\"\\uZZZZ\"").has_value());    // non-hex
  EXPECT_FALSE(Value::parse("\"\\ud800\"").has_value());    // lone high
  EXPECT_FALSE(Value::parse("\"\\udc00\"").has_value());    // lone low
  EXPECT_FALSE(Value::parse("\"\\ud800\\u0041\"").has_value());
  EXPECT_FALSE(Value::parse(std::string{"\"raw\nnewline\""}).has_value());
  EXPECT_FALSE(Value::parse("'single'").has_value());
}

TEST(JsonParse, RejectsMalformedContainers) {
  EXPECT_FALSE(Value::parse("[1,]").has_value());
  EXPECT_FALSE(Value::parse("[,1]").has_value());
  EXPECT_FALSE(Value::parse("[1 2]").has_value());
  EXPECT_FALSE(Value::parse("[1").has_value());
  EXPECT_FALSE(Value::parse("{\"a\":1,}").has_value());
  EXPECT_FALSE(Value::parse("{\"a\" 1}").has_value());
  EXPECT_FALSE(Value::parse("{\"a\":}").has_value());
  EXPECT_FALSE(Value::parse("{a:1}").has_value());  // unquoted key
  EXPECT_FALSE(Value::parse("{\"a\":1").has_value());
  EXPECT_FALSE(Value::parse("}").has_value());
}

TEST(JsonDump, NonFiniteNumbersSerializeAsNull) {
  // dump() must never emit tokens parse() rejects.
  Value v = Value::array();
  v.push_back(Value::number(std::numeric_limits<double>::quiet_NaN()));
  v.push_back(Value::number(std::numeric_limits<double>::infinity()));
  const std::string out = v.dump(0);
  EXPECT_TRUE(Value::parse(out).has_value()) << out;
}

// ----------------------------------------------------------------- files

TEST(JsonRead, WholeNumbersOnlyWithinTheBound) {
  EXPECT_EQ(Value::number(0.0).as_uint(), 0U);
  EXPECT_EQ(Value::number(-0.0).as_uint(), 0U);
  EXPECT_EQ(Value::number(1200.0).as_uint(), 1200U);
  // The largest double below 2^64 is the largest value that converts.
  EXPECT_EQ(Value::number(18446744073709549568.0).as_uint(),
            18446744073709549568ULL);
  for (const double bad : {-1.0, 0.5, -0.5, 1e30, 18446744073709551616.0}) {
    EXPECT_FALSE(Value::number(bad).as_uint().has_value()) << bad;
  }
  EXPECT_FALSE(Value::string("7").as_uint().has_value());
  EXPECT_FALSE(Value{}.as_uint().has_value());
  EXPECT_EQ(Value::number(7.0).as_uint(7), 7U);
  EXPECT_FALSE(Value::number(8.0).as_uint(7).has_value());

  // read_uint bounds by the field's type, leaves an absent field alone and
  // names the member it rejects.
  Value doc = Value::object();
  doc.set("small", Value::number(2147483647.0));
  doc.set("big", Value::number(2147483648.0));
  int field = 5;
  std::string error;
  EXPECT_TRUE(read_uint(doc, "absent", field, error));
  EXPECT_EQ(field, 5);
  EXPECT_TRUE(read_uint(doc, "small", field, error));
  EXPECT_EQ(field, 2147483647);
  EXPECT_FALSE(read_uint(doc, "big", field, error));
  EXPECT_EQ(field, 2147483647);
  EXPECT_EQ(error, "big: not a whole number in range");
  std::uint64_t wide = 0;
  EXPECT_TRUE(read_uint(doc, "big", wide, error));
  EXPECT_EQ(wide, 2147483648U);
}

TEST(JsonFile, SaveLoadRoundTrip) {
  TempFile f{"srl_json_roundtrip.json"};
  Value v = Value::object();
  v.set("x", Value::number(0.1));
  ASSERT_TRUE(v.save(f.path));
  const auto back = Value::load(f.path);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->dump(0), v.dump(0));
}

TEST(JsonFile, LoadMissingFileIsNullopt) {
  EXPECT_FALSE(Value::load("/nonexistent/srl/no_such.json").has_value());
}

// ---------------------------------------------------------------- NDJSON

TEST(Ndjson, AppendAndLoadRoundTrip) {
  TempFile f{"srl_ndjson_roundtrip.ndjson"};
  std::vector<Value> docs;
  for (int i = 0; i < 5; ++i) {
    Value v = Value::object();
    v.set("seq", Value::number(i));
    v.set("msg", Value::string("line " + std::to_string(i)));
    ASSERT_TRUE(append_ndjson(f.path, v));
    docs.push_back(std::move(v));
  }
  const auto loaded = load_ndjson(f.path);
  ASSERT_TRUE(loaded.has_value());
  ASSERT_EQ(loaded->size(), docs.size());
  for (std::size_t i = 0; i < docs.size(); ++i) {
    EXPECT_EQ((*loaded)[i].dump(0), docs[i].dump(0)) << "line " << i;
  }
}

TEST(Ndjson, BlankLinesArePermitted) {
  TempFile f{"srl_ndjson_blank.ndjson"};
  std::ofstream out{f.path};
  out << "{\"a\":1}\n\n  \n{\"b\":2}\n";
  out.close();
  const auto loaded = load_ndjson(f.path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->size(), 2u);
}

TEST(Ndjson, TruncatedTailLineFailsTheWholeLoad) {
  TempFile f{"srl_ndjson_trunc.ndjson"};
  std::ofstream out{f.path};
  out << "{\"a\":1}\n{\"b\":";  // crash mid-write
  out.close();
  EXPECT_FALSE(load_ndjson(f.path).has_value());
}

TEST(Ndjson, MalformedInteriorLineFailsTheWholeLoad) {
  TempFile f{"srl_ndjson_bad.ndjson"};
  std::ofstream out{f.path};
  out << "{\"a\":1}\nnot json\n{\"b\":2}\n";
  out.close();
  EXPECT_FALSE(load_ndjson(f.path).has_value());
}

TEST(Ndjson, MissingFileIsNullopt) {
  EXPECT_FALSE(load_ndjson("/nonexistent/srl/no_such.ndjson").has_value());
}

// --------------------------------------------------- committed fuzz corpus
// Deterministic parser fuzzing: the corpus under tests/data/json/ is
// committed (not generated at test time), so every run — local, CI, every
// sanitizer flavor — chews the exact same byte streams. The file lists are
// spelled out here on purpose: adding a corpus document means deciding
// which verdict it pins.

#ifndef SRL_JSON_CORPUS_DIR
#define SRL_JSON_CORPUS_DIR "tests/data/json"
#endif

std::string read_corpus_file(const std::string& relative) {
  std::ifstream is{std::string{SRL_JSON_CORPUS_DIR "/"} + relative,
                   std::ios::binary};
  EXPECT_TRUE(is.good()) << "missing corpus file " << relative;
  std::string text{std::istreambuf_iterator<char>{is},
                   std::istreambuf_iterator<char>{}};
  return text;
}

const char* const kValidCorpus[] = {
    "valid/all_kinds.json",    "valid/depth_64.json",
    "valid/numbers_edge.json", "valid/unicode.json",
    "valid/whitespace.json",
};

const char* const kInvalidCorpus[] = {
    "invalid/depth_65.json",
    "invalid/depth_bomb.json",
    "invalid/trailing_garbage.json",
    "invalid/nan.json",
    "invalid/infinity.json",
    "invalid/plus_sign.json",
    "invalid/bare_dot.json",
    "invalid/dot_lead.json",
    "invalid/exp_empty.json",
    "invalid/exp_sign_only.json",
    "invalid/minus_only.json",
    "invalid/hex.json",
    "invalid/single_quotes.json",
    "invalid/unterminated_string.json",
    "invalid/raw_control_char.json",
    "invalid/unpaired_high_surrogate.json",
    "invalid/unpaired_low_surrogate.json",
    "invalid/bad_hex_escape.json",
    "invalid/bad_escape.json",
    "invalid/trailing_comma_array.json",
    "invalid/trailing_comma_object.json",
    "invalid/missing_colon.json",
    "invalid/missing_value.json",
    "invalid/unclosed_array.json",
    "invalid/unclosed_object.json",
    "invalid/comma_only.json",
    "invalid/nonstring_key.json",
    "invalid/empty.json",
    "invalid/byte_order_mark.json",
};

TEST(JsonCorpus, ValidDocumentsParseAndRoundTripStably) {
  for (const char* name : kValidCorpus) {
    const std::string text = read_corpus_file(name);
    ASSERT_FALSE(text.empty()) << name;
    const std::optional<Value> v = Value::parse(text);
    ASSERT_TRUE(v.has_value()) << name << " must parse";
    // Stability: dump -> parse -> dump is a fixed point (numbers included,
    // via the shortest-round-trip formatter).
    const std::string once = v->dump();
    const std::optional<Value> again = Value::parse(once);
    ASSERT_TRUE(again.has_value()) << name << " must re-parse its own dump";
    EXPECT_EQ(again->dump(), once) << name;
  }
}

TEST(JsonCorpus, InvalidDocumentsAreRejected) {
  // Includes the depth bomb (100 kB of '['): the recursion guard must
  // reject it without exhausting the stack, never half-build a document.
  for (const char* name : kInvalidCorpus) {
    const std::string text = read_corpus_file(name);
    EXPECT_FALSE(Value::parse(text).has_value()) << name << " must be rejected";
  }
}

TEST(JsonCorpus, TruncationAtEveryByteOffsetIsRejected) {
  // The committed source doc is compact with no trailing whitespace, so
  // *every* strict prefix is an incomplete document; the strict parser must
  // reject each one (a lenient parser would accept some prefix and
  // silently drop the tail — exactly the corruption mode a crashed
  // artifact writer produces).
  const std::string text = read_corpus_file("truncation_source.json");
  ASSERT_FALSE(text.empty());
  ASSERT_EQ(text.back(), '}') << "source must end compact";
  ASSERT_TRUE(Value::parse(text).has_value()) << "full doc must parse";
  for (std::size_t len = 0; len < text.size(); ++len) {
    EXPECT_FALSE(Value::parse(text.substr(0, len)).has_value())
        << "prefix of length " << len << " must be rejected";
  }
}

}  // namespace
}  // namespace srl::json
