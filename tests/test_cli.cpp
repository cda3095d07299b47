// Unit tests for the command-line flag parser (common/cli).
#include "common/cli.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

namespace gbo {
namespace {

CliParser make_parser() {
  CliParser cli("bench_test", "Test harness.");
  cli.add_flag("quick", "Reduced workload");
  cli.add_option("sigma", "Noise sigma", "calibrated");
  cli.add_option("epochs", "Training epochs", "10");
  cli.add_option("out", "Output CSV path");
  return cli;
}

bool parse(CliParser& cli, std::vector<const char*> args) {
  args.insert(args.begin(), "bench_test");
  return cli.parse(static_cast<int>(args.size()), args.data());
}

TEST(Cli, DefaultsWhenNoArgs) {
  CliParser cli = make_parser();
  ASSERT_TRUE(parse(cli, {}));
  EXPECT_FALSE(cli.get_bool("quick"));
  EXPECT_DOUBLE_EQ(cli.get_double("sigma", -1.0), -1.0);
  EXPECT_EQ(cli.get_int("epochs", 10), 10);
  EXPECT_EQ(cli.get_string("out", "default.csv"), "default.csv");
  EXPECT_FALSE(cli.has("sigma"));
}

TEST(Cli, FlagPresence) {
  CliParser cli = make_parser();
  ASSERT_TRUE(parse(cli, {"--quick"}));
  EXPECT_TRUE(cli.get_bool("quick"));
  EXPECT_TRUE(cli.has("quick"));
}

TEST(Cli, FlagExplicitFalse) {
  CliParser cli = make_parser();
  ASSERT_TRUE(parse(cli, {"--quick=false"}));
  EXPECT_FALSE(cli.get_bool("quick"));
  EXPECT_TRUE(cli.has("quick"));  // present, value false
}

TEST(Cli, EqualsSyntax) {
  CliParser cli = make_parser();
  ASSERT_TRUE(parse(cli, {"--sigma=1.5", "--epochs=20"}));
  EXPECT_DOUBLE_EQ(cli.get_double("sigma", -1.0), 1.5);
  EXPECT_EQ(cli.get_int("epochs", 10), 20);
}

TEST(Cli, SpaceSyntax) {
  CliParser cli = make_parser();
  ASSERT_TRUE(parse(cli, {"--sigma", "2.25", "--out", "x.csv"}));
  EXPECT_DOUBLE_EQ(cli.get_double("sigma", -1.0), 2.25);
  EXPECT_EQ(cli.get_string("out", ""), "x.csv");
}

TEST(Cli, PositionalArgumentsCollected) {
  CliParser cli = make_parser();
  ASSERT_TRUE(parse(cli, {"run", "--quick", "alpha"}));
  ASSERT_EQ(cli.positional().size(), 2u);
  EXPECT_EQ(cli.positional()[0], "run");
  EXPECT_EQ(cli.positional()[1], "alpha");
}

TEST(Cli, UnknownFlagFails) {
  CliParser cli = make_parser();
  EXPECT_FALSE(parse(cli, {"--bogus"}));
  EXPECT_EQ(cli.exit_code(), 2);
}

TEST(Cli, MissingValueFails) {
  CliParser cli = make_parser();
  EXPECT_FALSE(parse(cli, {"--sigma"}));
  EXPECT_EQ(cli.exit_code(), 2);
}

TEST(Cli, HelpStopsParsing) {
  CliParser cli = make_parser();
  EXPECT_FALSE(parse(cli, {"--help"}));
  EXPECT_EQ(cli.exit_code(), 0);
}

TEST(Cli, HelpTextListsAllFlags) {
  CliParser cli = make_parser();
  const std::string help = cli.help_text();
  EXPECT_NE(help.find("--quick"), std::string::npos);
  EXPECT_NE(help.find("--sigma"), std::string::npos);
  EXPECT_NE(help.find("default: calibrated"), std::string::npos);
  EXPECT_NE(help.find("--help"), std::string::npos);
}

TEST(Cli, MalformedNumberThrows) {
  CliParser cli = make_parser();
  ASSERT_TRUE(parse(cli, {"--sigma=abc"}));
  EXPECT_THROW(cli.get_double("sigma", 0.0), std::invalid_argument);
  CliParser cli2 = make_parser();
  ASSERT_TRUE(parse(cli2, {"--epochs=1.5x"}));
  EXPECT_THROW(cli2.get_int("epochs", 0), std::invalid_argument);
}

TEST(Cli, TypedNumericOptionFailsAtParse) {
  // A malformed or out-of-range value of a numeric option ends parsing like
  // an unknown flag (exit code 2), before any get_* could throw.
  for (const char* arg : {"--n=99999999999999999999", "--n=12abc", "--n=",
                          "--x=fast", "--x=1e5e"}) {
    CliParser cli("bench_test", "Test harness.");
    cli.add_option("n", "Count", "1", CliParser::Value::kInt);
    cli.add_option("x", "Rate", "1.0", CliParser::Value::kNumber);
    EXPECT_FALSE(parse(cli, {arg})) << arg;
    EXPECT_EQ(cli.exit_code(), 2) << arg;
  }
  CliParser cli("bench_test", "Test harness.");
  cli.add_option("n", "Count", "1", CliParser::Value::kInt);
  cli.add_option("x", "Rate", "1.0", CliParser::Value::kNumber);
  ASSERT_TRUE(parse(cli, {"--n", "-9223372036854775808", "--x=2.5e3"}));
  EXPECT_EQ(cli.get_int("n", 0), INT64_MIN);
  EXPECT_EQ(cli.get_double("x", 0.0), 2500.0);
}

TEST(Cli, OverflowingIntegerThrows) {
  // strtoll clamps these to LLONG_MAX/LLONG_MIN; the parser must not.
  for (const char* arg : {"--epochs=9223372036854775808",
                          "--epochs=-9223372036854775809",
                          "--epochs=99999999999999999999999"}) {
    CliParser cli = make_parser();
    ASSERT_TRUE(parse(cli, {arg}));
    EXPECT_THROW(cli.get_int("epochs", 0), std::invalid_argument) << arg;
  }
  // The extremes themselves are in range.
  CliParser cli = make_parser();
  ASSERT_TRUE(parse(cli, {"--epochs=9223372036854775807"}));
  EXPECT_EQ(cli.get_int("epochs", 0), INT64_MAX);
  CliParser cli2 = make_parser();
  ASSERT_TRUE(parse(cli2, {"--epochs=-9223372036854775808"}));
  EXPECT_EQ(cli2.get_int("epochs", 0), INT64_MIN);
}

TEST(Cli, FirstValueWinsOnRepeat) {
  CliParser cli = make_parser();
  ASSERT_TRUE(parse(cli, {"--sigma=1", "--sigma=2"}));
  // raw_value returns the first match; define the contract as first-wins.
  // This pins the behaviour so harness scripts cannot silently depend on
  // the opposite.
  EXPECT_DOUBLE_EQ(cli.get_double("sigma", 0.0), 1.0);
}

}  // namespace
}  // namespace gbo
