#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "common/flags.h"

namespace roadpart {
namespace {

const std::vector<std::string> kKnown = {"k", "scheme", "verbose", "ratio"};

FlagParser ParseOk(std::initializer_list<const char*> args) {
  std::vector<const char*> argv(args);
  auto parser =
      FlagParser::Parse(static_cast<int>(argv.size()), argv.data(), kKnown);
  EXPECT_TRUE(parser.ok()) << parser.status().ToString();
  return std::move(parser).value();
}

TEST(FlagParserTest, EqualsForm) {
  FlagParser p = ParseOk({"--k=5", "--scheme=ASG", "input.net"});
  EXPECT_EQ(p.GetInt("k", 0).value(), 5);
  EXPECT_EQ(p.GetString("scheme", ""), "ASG");
  ASSERT_EQ(p.positional().size(), 1u);
  EXPECT_EQ(p.positional()[0], "input.net");
}

TEST(FlagParserTest, SpaceForm) {
  FlagParser p = ParseOk({"--k", "7", "file"});
  EXPECT_EQ(p.GetInt("k", 0).value(), 7);
  EXPECT_EQ(p.positional().size(), 1u);
}

TEST(FlagParserTest, BooleanFlag) {
  FlagParser p = ParseOk({"--verbose", "--k=2"});
  EXPECT_TRUE(p.GetBool("verbose", false));
  EXPECT_FALSE(p.GetBool("absent", false));
  EXPECT_TRUE(p.GetBool("absent", true));
}

TEST(FlagParserTest, DoubleValues) {
  FlagParser p = ParseOk({"--ratio=0.75"});
  EXPECT_DOUBLE_EQ(p.GetDouble("ratio", 0.0).value(), 0.75);
  EXPECT_DOUBLE_EQ(p.GetDouble("absent", 1.5).value(), 1.5);
}

TEST(FlagParserTest, UnknownFlagRejected) {
  const char* argv[] = {"--bogus=1"};
  EXPECT_FALSE(FlagParser::Parse(1, argv, kKnown).ok());
}

TEST(FlagParserTest, MalformedNumberReported) {
  FlagParser p = ParseOk({"--k=abc"});
  EXPECT_FALSE(p.GetInt("k", 0).ok());
}

TEST(FlagParserTest, IntFlagsNarrowCheckedAndNameTheFlag) {
  // 4294967300 would wrap to 4 through a 32-bit cast.
  for (const char* arg : {"--k=4294967300", "--k=2147483648",
                          "--k=-2147483649", "--k=99999999999999999999"}) {
    FlagParser p = ParseOk({arg});
    auto k = p.GetInt("k", 0);
    ASSERT_FALSE(k.ok()) << arg;
    EXPECT_EQ(k.status().code(), StatusCode::kInvalidArgument) << arg;
    EXPECT_NE(k.status().message().find("--k"), std::string::npos)
        << k.status().ToString();
  }
  EXPECT_EQ(ParseOk({"--k=2147483647"}).GetInt("k", 0).value(), INT32_MAX);
  EXPECT_EQ(ParseOk({"--k=-2147483648"}).GetInt("k", 0).value(), INT32_MIN);
}

TEST(FlagParserTest, Int64FlagsKeepTheirFullRange) {
  FlagParser p = ParseOk({"--k=9223372036854775807"});
  EXPECT_EQ(p.GetInt64("k", 0).value(), INT64_MAX);
  EXPECT_EQ(p.GetInt64("absent", -5).value(), -5);
  auto wrapped = ParseOk({"--k=99999999999999999999"}).GetInt64("k", 0);
  ASSERT_FALSE(wrapped.ok());
  EXPECT_NE(wrapped.status().message().find("--k"), std::string::npos);
}

TEST(FlagParserTest, PositionalOrderPreserved) {
  FlagParser p = ParseOk({"a", "--k=1", "b", "c"});
  ASSERT_EQ(p.positional().size(), 3u);
  EXPECT_EQ(p.positional()[0], "a");
  EXPECT_EQ(p.positional()[2], "c");
}

TEST(FlagParserTest, HasReflectsPresence) {
  FlagParser p = ParseOk({"--k=1"});
  EXPECT_TRUE(p.Has("k"));
  EXPECT_FALSE(p.Has("scheme"));
}

}  // namespace
}  // namespace roadpart
