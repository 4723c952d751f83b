// Fuzz-ish malformed-argv coverage for exp::Options::parse.
//
// parse() owns the process-exiting error path (usage() + exit 2), so the
// malformed cases run as gtest death tests: the statement must *exit* —
// not overflow argv, not crash, not limp on with half-parsed options. This
// pins the ASan finding fixed in the allocation-free-core PR (reading one
// past argv when a flag's value was missing at the end of the array).
#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <string>
#include <vector>

#include "exp/options.hpp"

namespace son::exp {
namespace {

/// Builds a mutable, null-terminated argv from string literals, mirroring
/// what the C runtime hands main().
class Argv {
 public:
  explicit Argv(std::vector<std::string> args) : strings_{std::move(args)} {
    for (auto& s : strings_) ptrs_.push_back(s.data());
    ptrs_.push_back(nullptr);
  }
  [[nodiscard]] int argc() const { return static_cast<int>(strings_.size()); }
  char** data() { return ptrs_.data(); }

 private:
  std::vector<std::string> strings_;
  std::vector<char*> ptrs_;
};

Options parse(Argv& a, int& argc) {
  argc = a.argc();
  return Options::parse(argc, a.data(), "t", 3, 1);
}

int parse_and_exit_code(std::vector<std::string> args) {
  Argv a{std::move(args)};
  int argc = 0;
  (void)parse(a, argc);
  return 0;  // unreachable for malformed input: parse() exits 2
}

using OptionsDeath = ::testing::Test;

TEST(OptionsDeath, MissingValueAtEndOfArgvExits) {
  // The regression ASan caught: "--reps" as the last argument must not read
  // argv[argc]. Every value-taking flag gets the same treatment.
  for (const char* flag : {"--reps", "--jobs", "--shards", "--flows", "--load-curve",
                           "--churn", "--seed-base", "--seeds", "--json-out"}) {
    EXPECT_EXIT(parse_and_exit_code({"bench", flag}), ::testing::ExitedWithCode(2),
                "needs a value")
        << flag;
  }
}

TEST(OptionsDeath, NonNumericValueExits) {
  EXPECT_EXIT(parse_and_exit_code({"bench", "--reps", "many"}),
              ::testing::ExitedWithCode(2), "bad numeric argument");
  EXPECT_EXIT(parse_and_exit_code({"bench", "--seed-base", "0x"}),
              ::testing::ExitedWithCode(2), "bad numeric argument");
}

TEST(OptionsDeath, MalformedSeedListsExit) {
  EXPECT_EXIT(parse_and_exit_code({"bench", "--seeds", ""}),
              ::testing::ExitedWithCode(2), "empty seed list");
  EXPECT_EXIT(parse_and_exit_code({"bench", "--seeds", ","}),
              ::testing::ExitedWithCode(2), "bad seed list");
  EXPECT_EXIT(parse_and_exit_code({"bench", "--seeds", "1,,2"}),
              ::testing::ExitedWithCode(2), "bad seed list");
  EXPECT_EXIT(parse_and_exit_code({"bench", "--seeds", "1,x"}),
              ::testing::ExitedWithCode(2), "bad seed list");
}

TEST(OptionsDeath, MalformedShardsExit) {
  EXPECT_EXIT(parse_and_exit_code({"bench", "--shards", "x"}),
              ::testing::ExitedWithCode(2), "bad numeric argument");
  // strtoull would silently wrap "-1" into a huge worker count; the explicit
  // sign check turns it into a usage error instead.
  EXPECT_EXIT(parse_and_exit_code({"bench", "--shards", "-1"}),
              ::testing::ExitedWithCode(2), "non-negative");
  EXPECT_EXIT(parse_and_exit_code({"bench", "--shards", "4096"}),
              ::testing::ExitedWithCode(2), "too many shards");
}

TEST(OptionsDeath, MalformedFlowsExit) {
  // Same discipline as --shards: reject garbage, wrapped negatives and
  // absurd counts instead of limping on.
  EXPECT_EXIT(parse_and_exit_code({"bench", "--flows", "x"}),
              ::testing::ExitedWithCode(2), "bad numeric argument");
  EXPECT_EXIT(parse_and_exit_code({"bench", "--flows", "-1"}),
              ::testing::ExitedWithCode(2), "non-negative");
  EXPECT_EXIT(parse_and_exit_code({"bench", "--flows", "200000000"}),
              ::testing::ExitedWithCode(2), "too many flows");
}

TEST(OptionsDeath, UnknownLoadCurveExits) {
  EXPECT_EXIT(parse_and_exit_code({"bench", "--load-curve", "sawtooth"}),
              ::testing::ExitedWithCode(2), "const, diurnal or flash");
  EXPECT_EXIT(parse_and_exit_code({"bench", "--load-curve", ""}),
              ::testing::ExitedWithCode(2), "const, diurnal or flash");
}

TEST(Options, FlowsAndLoadCurveParse) {
  {
    Argv a{{"bench", "--flows", "100000", "--load-curve", "flash"}};
    int argc = 0;
    const Options o = parse(a, argc);
    EXPECT_EQ(o.flows, 100000);
    EXPECT_EQ(o.load_curve, "flash");
    EXPECT_EQ(argc, 1);  // all four tokens consumed
  }
  {
    Argv a{{"bench"}};
    int argc = 0;
    const Options o = parse(a, argc);
    EXPECT_EQ(o.flows, 0);  // default: the bench's own flow counts
    EXPECT_EQ(o.load_curve, "const");
  }
  for (const char* name : {"const", "diurnal", "flash"}) {
    Argv a{{"bench", "--load-curve", name}};
    int argc = 0;
    EXPECT_EQ(parse(a, argc).load_curve, name);
  }
}

TEST(Options, ShardsParsesAndResolves) {
  {
    Argv a{{"bench", "--shards", "4"}};
    int argc = 0;
    const Options o = parse(a, argc);
    EXPECT_EQ(o.shards, 4);
    EXPECT_EQ(o.resolved_shards(), 4u);
    EXPECT_EQ(argc, 1);  // flag and value consumed
  }
  {
    Argv a{{"bench"}};
    int argc = 0;
    EXPECT_EQ(parse(a, argc).shards, 1);  // default: single-threaded kernel
  }
  {
    Argv a{{"bench", "--shards", "0"}};  // 0 = auto (hardware concurrency)
    int argc = 0;
    const Options o = parse(a, argc);
    EXPECT_EQ(o.shards, 0);
    EXPECT_GE(o.resolved_shards(), 1u);
  }
}

TEST(Options, ChurnParses) {
  {
    Argv a{{"bench", "--churn", "1.5"}};
    int argc = 0;
    const Options o = parse(a, argc);
    EXPECT_DOUBLE_EQ(o.churn_rate, 1.5);
    EXPECT_EQ(o.churn_model, "poisson");  // default model
    EXPECT_EQ(argc, 1);
  }
  {
    Argv a{{"bench", "--churn", "0.25,periodic"}};
    int argc = 0;
    const Options o = parse(a, argc);
    EXPECT_DOUBLE_EQ(o.churn_rate, 0.25);
    EXPECT_EQ(o.churn_model, "periodic");
  }
  {
    Argv a{{"bench"}};
    int argc = 0;
    const Options o = parse(a, argc);
    EXPECT_DOUBLE_EQ(o.churn_rate, 0.0);  // default: bench's own churn policy
    EXPECT_EQ(o.churn_model, "poisson");
  }
}

TEST(OptionsDeath, MalformedChurnExits) {
  EXPECT_EXIT(parse_and_exit_code({"bench", "--churn", "fast"}),
              ::testing::ExitedWithCode(2), "RATE");
  EXPECT_EXIT(parse_and_exit_code({"bench", "--churn", "-1"}),
              ::testing::ExitedWithCode(2), "RATE");
  EXPECT_EXIT(parse_and_exit_code({"bench", "--churn", "nan"}),
              ::testing::ExitedWithCode(2), "RATE");
  EXPECT_EXIT(parse_and_exit_code({"bench", "--churn", "1.5;periodic"}),
              ::testing::ExitedWithCode(2), "RATE");
  EXPECT_EXIT(parse_and_exit_code({"bench", "--churn", "1.5,weibull"}),
              ::testing::ExitedWithCode(2), "poisson or periodic");
  EXPECT_EXIT(parse_and_exit_code({"bench", "--churn", "1.5,"}),
              ::testing::ExitedWithCode(2), "poisson or periodic");
}

TEST(OptionsDeath, HelpExitsZero) {
  // usage() prints to stdout (EXPECT_EXIT matches stderr only), so assert
  // just the exit code.
  EXPECT_EXIT(parse_and_exit_code({"bench", "--help"}), ::testing::ExitedWithCode(0), "");
}

TEST(Options, DuplicateFlagsLastOneWins) {
  Argv a{{"bench", "--reps", "2", "--reps", "9", "--seed-base", "5", "--seed-base", "6"}};
  int argc = 0;
  const Options o = parse(a, argc);
  EXPECT_EQ(o.reps, 9);
  EXPECT_EQ(o.seed_base, 6u);
  EXPECT_EQ(argc, 1);
}

TEST(Options, EmptyStringArgumentPassesThrough) {
  Argv a{{"bench", "", "--quick", ""}};
  int argc = 0;
  const Options o = parse(a, argc);
  EXPECT_TRUE(o.quick);
  ASSERT_EQ(argc, 3);  // program name + the two empty strings
  EXPECT_STREQ(a.data()[1], "");
  EXPECT_STREQ(a.data()[2], "");
  EXPECT_EQ(a.data()[3], nullptr);  // compacted argv stays null-terminated
}

TEST(Options, FlagLikeValuesAreConsumedAsValues) {
  // "--json-out --quick" consumes "--quick" as the path: greedy but
  // predictable; the remaining argv is untouched.
  Argv a{{"bench", "--json-out", "--quick"}};
  int argc = 0;
  const Options o = parse(a, argc);
  EXPECT_EQ(o.json_out, "--quick");
  EXPECT_FALSE(o.quick);
  EXPECT_EQ(argc, 1);
}

TEST(Options, ZeroRepsClampsToOne) {
  Argv a{{"bench", "--reps", "0"}};
  int argc = 0;
  const Options o = parse(a, argc);
  EXPECT_EQ(o.reps, 1);
}

TEST(Options, MixedKnownAndUnknownPreservesUnknownOrder) {
  Argv a{{"bench", "--alpha", "--reps", "4", "--beta", "7", "--quick", "--gamma"}};
  int argc = 0;
  const Options o = parse(a, argc);
  EXPECT_EQ(o.reps, 4);
  EXPECT_TRUE(o.quick);
  ASSERT_EQ(argc, 5);
  EXPECT_STREQ(a.data()[1], "--alpha");
  EXPECT_STREQ(a.data()[2], "--beta");
  EXPECT_STREQ(a.data()[3], "7");
  EXPECT_STREQ(a.data()[4], "--gamma");
  EXPECT_EQ(a.data()[5], nullptr);
}

}  // namespace
}  // namespace son::exp
