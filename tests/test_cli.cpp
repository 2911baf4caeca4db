// CliFlags strictness tests: the unknown-flag wall (check_unknown) and the
// full-token numeric parsing that keeps `--threads 4abc` from silently
// running with 4.  The basic parsing forms are covered in test_common.cpp;
// this suite pins the fail-loud contract the bench/example binaries rely on,
// and run_cli's mapping of those failures to exit status 2.
#include "common/cli.hpp"
#include "common/codec.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <stdexcept>
#include <string>
#include <vector>

namespace ecthub {
namespace {

TEST(CliFlagsUnknown, UnconsumedFlagThrowsByName) {
  // The motivating bug: `--lockstep-treads 4` parsed fine and silently ran
  // defaults because nothing ever asked for the typo'd key.
  const char* argv[] = {"prog", "--lockstep-treads", "4"};
  const CliFlags flags(3, argv);
  (void)flags.get_int("lockstep-threads", 1);
  try {
    flags.check_unknown();
    FAIL() << "check_unknown accepted an unconsumed flag";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("--lockstep-treads"), std::string::npos)
        << "the error must name the offending flag: " << e.what();
  }
}

TEST(CliFlagsUnknown, ConsumedFlagsPass) {
  const char* argv[] = {"prog", "--alpha", "3", "--beta=x", "--gamma"};
  const CliFlags flags(5, argv);
  (void)flags.get_int("alpha", 0);
  (void)flags.get_string("beta", "");
  (void)flags.get_bool("gamma");
  EXPECT_NO_THROW(flags.check_unknown());
}

TEST(CliFlagsUnknown, HasCountsAsConsumption) {
  // Conditional readers probe with has() first; the probe alone must mark
  // the flag recognized even when the branch never reads the value.
  const char* argv[] = {"prog", "--metro", "8"};
  const CliFlags flags(3, argv);
  EXPECT_TRUE(flags.has("metro"));
  EXPECT_NO_THROW(flags.check_unknown());
}

TEST(CliFlagsUnknown, AbsentFlagReadsDoNotMaskOtherUnknowns) {
  const char* argv[] = {"prog", "--oops", "1"};
  const CliFlags flags(3, argv);
  (void)flags.get_int("days", 7);  // absent: returns the default
  EXPECT_THROW(flags.check_unknown(), std::invalid_argument);
}

TEST(CliFlagsUnknown, ListsEveryUnknownFlag) {
  const char* argv[] = {"prog", "--first-typo", "1", "--second-typo", "2"};
  const CliFlags flags(5, argv);
  try {
    flags.check_unknown();
    FAIL() << "check_unknown accepted two unconsumed flags";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("--first-typo"), std::string::npos) << what;
    EXPECT_NE(what.find("--second-typo"), std::string::npos) << what;
  }
}

TEST(CliFlagsUnknown, NoArgumentsIsVacuouslyClean) {
  const char* argv[] = {"prog"};
  const CliFlags flags(1, argv);
  EXPECT_NO_THROW(flags.check_unknown());
}

TEST(CliFlagsUnknown, StrayPositionalsThrowUnlessRead) {
  // `stations=2500` without the leading -- parses as a positional and used
  // to silently run defaults — the same bug class as a typo'd flag name.
  const char* argv[] = {"prog", "stations=2500", "--seed", "7"};
  const CliFlags flags(4, argv);
  (void)flags.get_int("seed", 0);
  try {
    flags.check_unknown();
    FAIL() << "check_unknown accepted a stray positional";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("stations=2500"), std::string::npos)
        << "the error must name the stray argument: " << e.what();
  }
}

TEST(CliFlagsUnknown, ReadingPositionalsWaivesTheStrayCheck) {
  // A binary that consumes positionals declares so by reading positional().
  const char* argv[] = {"prog", "input.ecsh", "--seed", "7"};
  const CliFlags flags(4, argv);
  (void)flags.get_int("seed", 0);
  ASSERT_EQ(flags.positional().size(), 1u);
  EXPECT_NO_THROW(flags.check_unknown());
}

TEST(CliFlagsStrict, IntRejectsTrailingGarbage) {
  // std::stoll("4abc") yields 4; the accessor must reject the partial parse.
  const char* argv[] = {"prog", "--threads", "4abc"};
  const CliFlags flags(3, argv);
  EXPECT_THROW((void)flags.get_int("threads", 1), std::invalid_argument);
}

TEST(CliFlagsStrict, DoubleRejectsTrailingGarbage) {
  const char* argv[] = {"prog", "--discount", "0.2x", "--rate", "1e3junk"};
  const CliFlags flags(5, argv);
  EXPECT_THROW((void)flags.get_double("discount", 0.0), std::invalid_argument);
  EXPECT_THROW((void)flags.get_double("rate", 0.0), std::invalid_argument);
}

TEST(CliFlagsStrict, CleanNumbersStillParse) {
  const char* argv[] = {"prog", "--threads", "-4", "--discount", "0.25", "--rate", "1e3"};
  const CliFlags flags(7, argv);
  EXPECT_EQ(flags.get_int("threads", 0), -4);
  EXPECT_DOUBLE_EQ(flags.get_double("discount", 0.0), 0.25);
  EXPECT_DOUBLE_EQ(flags.get_double("rate", 0.0), 1000.0);
  EXPECT_NO_THROW(flags.check_unknown());
}

TEST(CliFlagsStrict, SizeListParsesEveryItemWhole) {
  const char* argv[] = {"prog", "--threads-list", "1,0,16", "--clients-list=7"};
  const CliFlags flags(4, argv);
  EXPECT_EQ(flags.get_size_list("threads-list", "9"), (std::vector<std::size_t>{1, 0, 16}));
  EXPECT_EQ(flags.get_size_list("clients-list", "9"), (std::vector<std::size_t>{7}));
  EXPECT_EQ(flags.get_size_list("wait-list", "0,100,400"),
            (std::vector<std::size_t>{0, 100, 400}));  // absent: the default text
  EXPECT_NO_THROW(flags.check_unknown());
}

TEST(CliFlagsStrict, SizeListRejectsMalformedItems) {
  for (const char* bad : {"1abc", "x", "", "1,,8", "4,", ",4", "-1", "+2", " 3", "1.5",
                          "99999999999999999999999"}) {
    const char* argv[] = {"prog", "--threads-list", bad};
    const CliFlags flags(3, argv);
    EXPECT_THROW((void)flags.get_size_list("threads-list", "1"), std::invalid_argument)
        << "'" << bad << "'";
  }
}

TEST(CliFlagsStrict, BooleanSwitchValueIsNotAnInteger) {
  // `--n` with no value parses as the switch value "true"; asking for an
  // integer must fail loud, not yield some truncation of "true".
  const char* argv[] = {"prog", "--n"};
  const CliFlags flags(2, argv);
  EXPECT_THROW((void)flags.get_int("n", 0), std::invalid_argument);
}

// ------------------------------------------------------------- run_cli

int read_level(const CliFlags& flags) {
  const auto level = static_cast<int>(flags.get_int("level", 0));
  flags.check_unknown();
  return level;
}

int throw_codec_error(const CliFlags&) { throw codec::MagicError("not an ECDR checkpoint"); }

int throw_runtime_error(const CliFlags&) { throw std::runtime_error("not a CLI error"); }

TEST(RunCli, ReturnsTheBodysStatus) {
  const char* argv[] = {"prog", "--level", "7"};
  EXPECT_EQ(run_cli(3, argv, read_level), 7);
}

TEST(RunCli, UnknownFlagIsStatusTwoWithOneLine) {
  const char* argv[] = {"prog", "--bogus", "1"};
  testing::internal::CaptureStderr();
  EXPECT_EQ(run_cli(3, argv, read_level), 2);
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_EQ(err.rfind("prog: unrecognized flag(s): --bogus", 0), 0u) << err;
  EXPECT_EQ(std::count(err.begin(), err.end(), '\n'), 1) << err;
}

TEST(RunCli, MalformedValueIsStatusTwo) {
  const char* argv[] = {"prog", "--level", "4abc"};
  testing::internal::CaptureStderr();
  EXPECT_EQ(run_cli(3, argv, read_level), 2);
  EXPECT_NE(testing::internal::GetCapturedStderr().find("--level"), std::string::npos);
}

TEST(RunCli, CodecErrorIsStatusTwo) {
  const char* argv[] = {"prog"};
  testing::internal::CaptureStderr();
  EXPECT_EQ(run_cli(1, argv, throw_codec_error), 2);
  EXPECT_EQ(testing::internal::GetCapturedStderr(), "prog: not an ECDR checkpoint\n");
}

TEST(RunCli, OtherExceptionsPropagate) {
  const char* argv[] = {"prog"};
  EXPECT_THROW((void)run_cli(1, argv, throw_runtime_error), std::runtime_error);
}

}  // namespace
}  // namespace ecthub
