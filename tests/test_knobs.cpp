/// The checked knob reader (common/knobs.hpp): a value passes only when the
/// whole text parses, the number is finite and it lies in the knob's range;
/// an unset or empty environment knob keeps its fallback.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <limits>
#include <string>

#include "common/knobs.hpp"

namespace srl {
namespace {

constexpr std::uint64_t kIntMax = std::numeric_limits<int>::max();
constexpr std::uint64_t kU64Max = std::numeric_limits<std::uint64_t>::max();

TEST(ParseUint, AcceptsWholeIntegersInRange) {
  EXPECT_EQ(parse_uint("0", 0, 1), 0U);
  EXPECT_EQ(parse_uint("1", 0, 1), 1U);
  EXPECT_EQ(parse_uint("10", 1, kIntMax), 10U);
  EXPECT_EQ(parse_uint("18446744073709551615", 0, kU64Max), kU64Max);
}

TEST(ParseUint, RejectsMalformedAndOutOfRangeText) {
  for (const char* text :
       {"", "abc", "12abc", "nan", "inf", "-1", "1e999", "99999999999", " 1",
        "+1", "1.5", "18446744073709551616"}) {
    EXPECT_FALSE(parse_uint(text, 1, kIntMax).has_value()) << text;
  }
  EXPECT_FALSE(parse_uint("0", 1, kIntMax).has_value());
  EXPECT_FALSE(parse_uint("2", 0, 1).has_value());
}

TEST(ParseReal, AcceptsFiniteNumbersInRange) {
  EXPECT_EQ(parse_real("0.8", 0.0, 1.0), 0.8);
  EXPECT_EQ(parse_real("0", 0.0, 1.0), 0.0);
  EXPECT_EQ(parse_real("2", 0.0, 10.0), 2.0);
  EXPECT_EQ(parse_real("1e-3", 0.0, 1.0), 1e-3);
}

TEST(ParseReal, RejectsMalformedNonFiniteAndOutOfRangeText) {
  const double max = std::numeric_limits<double>::max();
  for (const char* text : {"", "abc", "12abc", "nan", "inf", "-inf", "1e999",
                           " 1", "0x10", "1,5"}) {
    EXPECT_FALSE(parse_real(text, -max, max).has_value()) << text;
  }
  EXPECT_FALSE(parse_real("-1", 0.0, 1.0).has_value());
  EXPECT_FALSE(parse_real("99999999999", 0.0, 1.0).has_value());
  EXPECT_FALSE(
      parse_real("0", std::numeric_limits<double>::denorm_min(), max)
          .has_value());
}

TEST(EnvKnob, UnsetOrEmptyKeepsTheFallback) {
  ::unsetenv("SRL_TEST_KNOB");
  EXPECT_EQ(env_uint("SRL_TEST_KNOB", 7, 1, 10), 7U);
  EXPECT_EQ(env_real("SRL_TEST_KNOB", 0.5, 0.0, 1.0), 0.5);
  ::setenv("SRL_TEST_KNOB", "", 1);
  EXPECT_EQ(env_uint("SRL_TEST_KNOB", 7, 1, 10), 7U);
  EXPECT_EQ(env_real("SRL_TEST_KNOB", 0.5, 0.0, 1.0), 0.5);
  ::unsetenv("SRL_TEST_KNOB");
}

TEST(EnvKnob, ReadsAValueThatPasses) {
  ::setenv("SRL_TEST_KNOB", "3", 1);
  EXPECT_EQ(env_uint("SRL_TEST_KNOB", 7, 1, 10), 3U);
  EXPECT_EQ(env_real("SRL_TEST_KNOB", 0.5, 0.0, 10.0), 3.0);
  ::unsetenv("SRL_TEST_KNOB");
}

TEST(EnvKnob, RejectedTextThrowsNamingTheKnobAndItsText) {
  ::setenv("SRL_TEST_KNOB", "abc", 1);
  try {
    (void)env_uint("SRL_TEST_KNOB", 7, 1, 10);
    ADD_FAILURE() << "no KnobError";
  } catch (const KnobError& e) {
    EXPECT_EQ(std::string{e.what()},
              "SRL_TEST_KNOB='abc' is not an integer in [1, 10]");
  }
  ::setenv("SRL_TEST_KNOB", "nan", 1);
  try {
    (void)env_real("SRL_TEST_KNOB", 0.5, 0.0, 1.0);
    ADD_FAILURE() << "no KnobError";
  } catch (const KnobError& e) {
    EXPECT_EQ(std::string{e.what()},
              "SRL_TEST_KNOB='nan' is not a finite number in [0, 1]");
  }
  ::setenv("SRL_TEST_KNOB", "11", 1);
  EXPECT_THROW((void)env_uint("SRL_TEST_KNOB", 7, 1, 10), KnobError);
  ::unsetenv("SRL_TEST_KNOB");
}

}  // namespace
}  // namespace srl
