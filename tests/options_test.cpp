// Unit tests for flag value parsing in util/options.h: scalar getters and
// comma-separated lists share one malformed-value error contract.
#include <gtest/gtest.h>

#include <vector>

#include "util/assert.h"
#include "util/options.h"

namespace hyco {
namespace {

Options parse(std::initializer_list<const char*> args) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return Options(static_cast<int>(argv.size()), argv.data());
}

TEST(OptionsIntList, ParsesCommaSeparatedIntegers) {
  const auto opts = parse({"--n=8,16,32"});
  EXPECT_EQ(opts.get_int_list("n"),
            (std::vector<std::int64_t>{8, 16, 32}));
}

TEST(OptionsIntList, SingleValueAndNegatives) {
  const auto opts = parse({"--n=8", "--delta=-3,4"});
  EXPECT_EQ(opts.get_int_list("n"), (std::vector<std::int64_t>{8}));
  EXPECT_EQ(opts.get_int_list("delta"), (std::vector<std::int64_t>{-3, 4}));
}

TEST(OptionsIntList, FallbackWhenAbsent) {
  const auto opts = parse({});
  EXPECT_EQ(opts.get_int_list("n", {1, 2}),
            (std::vector<std::int64_t>{1, 2}));
  EXPECT_TRUE(opts.get_int_list("n").empty());
}

TEST(OptionsIntList, RejectsMalformedInput) {
  EXPECT_THROW(parse({"--n=8,banana"}).get_int_list("n"), ContractViolation);
  EXPECT_THROW(parse({"--n=8,,16"}).get_int_list("n"), ContractViolation);
  EXPECT_THROW(parse({"--n=8,16,"}).get_int_list("n"), ContractViolation);
  EXPECT_THROW(parse({"--n=12junk"}).get_int_list("n"), ContractViolation);
}

TEST(OptionsIntList, RejectsOutOfRangeValues) {
  EXPECT_THROW(parse({"--n=99999999999999999999"}).get_int_list("n"),
               ContractViolation);
  EXPECT_THROW(parse({"--eps=1e999"}).get_double_list("eps"),
               ContractViolation);
}

TEST(OptionsIntList, ErrorNamesKeyAndToken) {
  try {
    (void)parse({"--n=8,oops"}).get_int_list("n");
    FAIL() << "expected ContractViolation";
  } catch (const ContractViolation& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("--n"), std::string::npos);
    EXPECT_NE(what.find("oops"), std::string::npos);
  }
}

TEST(OptionsDoubleList, ParsesAndRejects) {
  const auto opts = parse({"--eps=0,0.25,0.5"});
  EXPECT_EQ(opts.get_double_list("eps"),
            (std::vector<double>{0.0, 0.25, 0.5}));
  EXPECT_THROW(parse({"--eps=0.1,x"}).get_double_list("eps"),
               ContractViolation);
}

TEST(OptionsStringList, SplitsAndRejectsEmptyItems) {
  const auto opts = parse({"--alg=local_coin,common_coin"});
  EXPECT_EQ(opts.get_string_list("alg"),
            (std::vector<std::string>{"local_coin", "common_coin"}));
  EXPECT_THROW(parse({"--alg=a,,b"}).get_string_list("alg"),
               ContractViolation);
}

TEST(OptionsScalar, ParsesWholeValues) {
  const auto opts = parse({"--runs=40", "--delta=-3", "--loss=0.25",
                           "--rate=1e3"});
  EXPECT_EQ(opts.get_int("runs"), 40);
  EXPECT_EQ(opts.get_int("delta"), -3);
  EXPECT_DOUBLE_EQ(opts.get_double("loss"), 0.25);
  EXPECT_DOUBLE_EQ(opts.get_double("rate"), 1000.0);
  EXPECT_EQ(opts.get_int("absent", 7), 7);
  EXPECT_DOUBLE_EQ(opts.get_double("absent", 0.5), 0.5);
}

TEST(OptionsScalar, RejectsMalformedIntegers) {
  EXPECT_THROW(parse({"--runs=abc"}).get_int("runs"), ContractViolation);
  EXPECT_THROW(parse({"--runs=12junk"}).get_int("runs"), ContractViolation);
  EXPECT_THROW(parse({"--runs=1.5"}).get_int("runs"), ContractViolation);
  EXPECT_THROW(parse({"--runs="}).get_int("runs"), ContractViolation);
  // A bare --runs reads as "true", which is not a number either.
  EXPECT_THROW(parse({"--runs"}).get_int("runs"), ContractViolation);
  EXPECT_THROW(parse({"--seed=99999999999999999999"}).get_int("seed"),
               ContractViolation);
}

TEST(OptionsScalar, RejectsMalformedNumbers) {
  EXPECT_THROW(parse({"--loss=abc"}).get_double("loss"), ContractViolation);
  EXPECT_THROW(parse({"--loss=0.1x"}).get_double("loss"), ContractViolation);
  EXPECT_THROW(parse({"--loss="}).get_double("loss"), ContractViolation);
  EXPECT_THROW(parse({"--loss"}).get_double("loss"), ContractViolation);
  EXPECT_THROW(parse({"--loss=1e999"}).get_double("loss"), ContractViolation);
}

TEST(OptionsScalar, ErrorNamesKeyAndValue) {
  try {
    (void)parse({"--runs=abc"}).get_int("runs");
    FAIL() << "expected ContractViolation";
  } catch (const ContractViolation& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("--runs"), std::string::npos);
    EXPECT_NE(what.find("abc"), std::string::npos);
  }
}

}  // namespace
}  // namespace hyco
