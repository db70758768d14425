#include "src/util/cli.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace summagen::util {
namespace {

Cli make(std::initializer_list<const char*> args) {
  std::vector<const char*> argv = {"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return Cli(static_cast<int>(argv.size()), argv.data());
}

TEST(Cli, SpaceSeparatedValue) {
  const auto cli = make({"--n", "512"});
  EXPECT_TRUE(cli.has("n"));
  EXPECT_EQ(cli.get_int("n", 0), 512);
}

TEST(Cli, EqualsSeparatedValue) {
  const auto cli = make({"--shape=square_corner"});
  EXPECT_EQ(cli.get("shape", ""), "square_corner");
}

TEST(Cli, BooleanSwitch) {
  const auto cli = make({"--csv", "--n", "8"});
  EXPECT_TRUE(cli.get_bool("csv", false));
  EXPECT_EQ(cli.get_int("n", 0), 8);
}

TEST(Cli, BooleanSwitchAtEnd) {
  const auto cli = make({"--verbose"});
  EXPECT_TRUE(cli.get_bool("verbose", false));
}

TEST(Cli, FallbacksWhenAbsent) {
  const auto cli = make({});
  EXPECT_FALSE(cli.has("n"));
  EXPECT_EQ(cli.get_int("n", 77), 77);
  EXPECT_EQ(cli.get_double("x", 1.5), 1.5);
  EXPECT_EQ(cli.get("s", "dflt"), "dflt");
  EXPECT_FALSE(cli.get_bool("b", false));
  EXPECT_TRUE(cli.get_bool("b", true));
}

TEST(Cli, IntList) {
  const auto cli = make({"--sizes", "1024,2048,4096"});
  const auto v = cli.get_int_list("sizes", {});
  ASSERT_EQ(v.size(), 3u);
  EXPECT_EQ(v[0], 1024);
  EXPECT_EQ(v[2], 4096);
}

TEST(Cli, DoubleList) {
  const auto cli = make({"--speeds=1.0,2.0,0.9"});
  const auto v = cli.get_double_list("speeds", {});
  ASSERT_EQ(v.size(), 3u);
  EXPECT_DOUBLE_EQ(v[1], 2.0);
  EXPECT_DOUBLE_EQ(v[2], 0.9);
}

TEST(Cli, ListFallback) {
  const auto cli = make({});
  const auto v = cli.get_int_list("sizes", {7, 8});
  ASSERT_EQ(v.size(), 2u);
  EXPECT_EQ(v[0], 7);
}

TEST(Cli, PositionalArguments) {
  const auto cli = make({"input.txt", "--n", "4", "other"});
  ASSERT_EQ(cli.positional().size(), 2u);
  EXPECT_EQ(cli.positional()[0], "input.txt");
  EXPECT_EQ(cli.positional()[1], "other");
}

TEST(Cli, NegativeNumericValue) {
  const auto cli = make({"--offset=-3"});
  EXPECT_EQ(cli.get_int("offset", 0), -3);
}

TEST(Cli, GetIntMinAcceptsValidValues) {
  const auto cli = make({"--kernel-block", "16", "--kernel-threads=0"});
  EXPECT_EQ(cli.get_int_min("kernel-block", 64, 1), 16);
  EXPECT_EQ(cli.get_int_min("kernel-threads", 0, 0), 0);
  EXPECT_EQ(cli.get_int_min("absent", 42, 1), 42);  // fallback bypasses min
}

TEST(Cli, GetIntMinRejectsBelowMinimum) {
  const auto cli = make({"--kernel-block=0", "--kernel-threads=-2"});
  try {
    cli.get_int_min("kernel-block", 64, 1);
    FAIL() << "expected CliError";
  } catch (const CliError& e) {
    EXPECT_NE(std::string(e.what()).find("--kernel-block"),
              std::string::npos);
    EXPECT_NE(std::string(e.what()).find(">= 1"), std::string::npos);
  }
  EXPECT_THROW(cli.get_int_min("kernel-threads", 0, 0), CliError);
}

TEST(Cli, GetIntMinRejectsMalformedValues) {
  const auto cli = make({"--kernel-block=fast", "--kernel-threads=3x"});
  try {
    cli.get_int_min("kernel-block", 64, 1);
    FAIL() << "expected CliError";
  } catch (const CliError& e) {
    EXPECT_NE(std::string(e.what()).find("'fast'"), std::string::npos);
  }
  // Trailing junk after digits must not silently parse as 3.
  EXPECT_THROW(cli.get_int_min("kernel-threads", 0, 0), CliError);
}

TEST(Cli, RejectUnreadPassesWhenEveryFlagWasRead) {
  const auto cli = make({"--n", "8", "--csv", "--shape=layered", "pos"});
  EXPECT_EQ(cli.get_int("n", 0), 8);
  EXPECT_TRUE(cli.get_bool("csv", false));
  EXPECT_TRUE(cli.has("shape"));  // has() counts as a read
  EXPECT_NO_THROW(cli.reject_unread());
  EXPECT_NO_THROW(make({}).reject_unread());
}

TEST(Cli, RejectUnreadNamesFirstUnreadFlagInCommandLineOrder) {
  const auto cli = make({"--zeta", "1", "--n", "8", "--enginee=x", "--alpha"});
  EXPECT_EQ(cli.get_int("n", 0), 8);
  try {
    cli.reject_unread();
    FAIL() << "expected CliError";
  } catch (const CliError& e) {
    EXPECT_EQ(std::string(e.what()).rfind("--zeta: unknown flag", 0), 0u)
        << e.what();
  }
  cli.get("zeta", "");
  try {
    cli.reject_unread();
    FAIL() << "expected CliError";
  } catch (const CliError& e) {
    EXPECT_EQ(std::string(e.what()).rfind("--enginee: unknown flag", 0), 0u)
        << e.what();
  }
  cli.get("enginee", "");
  EXPECT_THROW(cli.reject_unread(), CliError);  // --alpha still unread
  cli.get_bool("alpha", false);
  EXPECT_NO_THROW(cli.reject_unread());
}

TEST(Cli, ReadingAnAbsentFlagDoesNotHideAnotherOne) {
  // Every typed accessor marks only the name it was asked for.
  const auto cli = make({"--sizes", "1,2", "--speeds", "1.5", "--x", "2.5"});
  EXPECT_EQ(cli.get_int_list("sizes", {}), (std::vector<std::int64_t>{1, 2}));
  EXPECT_EQ(cli.get_double_list("speeds", {}), std::vector<double>{1.5});
  EXPECT_EQ(cli.get_int_min("absent", 3, 0), 3);
  EXPECT_THROW(cli.reject_unread(), CliError);
  EXPECT_EQ(cli.get_double("x", 0.0), 2.5);
  EXPECT_NO_THROW(cli.reject_unread());
}

}  // namespace
}  // namespace summagen::util
