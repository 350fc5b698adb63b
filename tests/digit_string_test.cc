#include <gtest/gtest.h>

#include <ostream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "labels/digit_string.h"

namespace xmlup::labels {
namespace {

// Builds a digit string from human-readable digits, e.g. D("011") for
// binary or D("123") for quaternary (bytes, not chars).
std::string D(const std::string& digits) {
  std::string out;
  for (char c : digits) out.push_back(static_cast<char>(c - '0'));
  return out;
}

constexpr DigitDomain kBinary{0, 1, 1};
constexpr DigitDomain kQuaternary{1, 3, 2};

TEST(DigitCompareTest, LexicographicWithPrefixFirst) {
  EXPECT_LT(DigitCompare(D("01"), D("011")), 0);
  EXPECT_LT(DigitCompare(D("0101"), D("011")), 0);
  EXPECT_GT(DigitCompare(D("1"), D("011")), 0);
  EXPECT_EQ(DigitCompare(D("01"), D("01")), 0);
}

TEST(DigitValidityTest, TerminalConstraint) {
  EXPECT_TRUE(IsValidDigitCode(kBinary, D("01")));
  EXPECT_FALSE(IsValidDigitCode(kBinary, D("010")));
  EXPECT_FALSE(IsValidDigitCode(kBinary, D("")));
  EXPECT_TRUE(IsValidDigitCode(kQuaternary, D("132")));
  EXPECT_FALSE(IsValidDigitCode(kQuaternary, D("131")));
  EXPECT_FALSE(IsValidDigitCode(kQuaternary, D("102")));  // 0 not a digit.
}

// --- Published per-scheme rules reproduced by the generic algebra -------

TEST(DigitAfterTest, BinaryAppendsOne) {
  // ImprovedBinary: insert after the last sibling concatenates an extra 1.
  EXPECT_EQ(DigitAfter(kBinary, D("011")), D("0111"));
  EXPECT_EQ(DigitAfter(kBinary, D("")), D("1"));
}

TEST(DigitAfterTest, QuaternaryIncrementsOrAppends) {
  // QED: ...2 -> ...3; ...3 -> append 2.
  EXPECT_EQ(DigitAfter(kQuaternary, D("2")), D("3"));
  EXPECT_EQ(DigitAfter(kQuaternary, D("3")), D("32"));
  EXPECT_EQ(DigitAfter(kQuaternary, D("12")), D("13"));
}

TEST(DigitBeforeTest, BinaryChangesTrailingOneToZeroOne) {
  // ImprovedBinary: identifier of the first sibling with last 1 -> 01.
  EXPECT_EQ(DigitBefore(kBinary, D("01")).value(), D("001"));
  EXPECT_EQ(DigitBefore(kBinary, D("1")).value(), D("01"));
  EXPECT_EQ(DigitBefore(kBinary, D("011")).value(), D("001"))
      << "drop below at the first 1 (shortest valid form)";
}

TEST(DigitBeforeTest, QuaternaryRules) {
  // QED: before 2 -> 12; before 3 -> 2.
  EXPECT_EQ(DigitBefore(kQuaternary, D("2")).value(), D("12"));
  EXPECT_EQ(DigitBefore(kQuaternary, D("3")).value(), D("2"));
  EXPECT_EQ(DigitBefore(kQuaternary, D("112")).value(), D("1112"));
}

TEST(DigitBeforeTest, FailsOnAllMinimumDigits) {
  EXPECT_FALSE(DigitBefore(kBinary, D("000")).ok());
}

TEST(DigitBetweenTest, ReproducesFigure6MiddleLabel) {
  // Figure 6: the middle child between 01 and 011 is 0101.
  EXPECT_EQ(DigitBetween(kBinary, D("01"), D("011")).value(), D("0101"));
}

TEST(DigitBetweenTest, InvalidBoundsRejected) {
  EXPECT_FALSE(DigitBetween(kBinary, D("011"), D("01")).ok());
  EXPECT_FALSE(DigitBetween(kBinary, D("01"), D("01")).ok());
}

TEST(DigitBetweenTest, EmptyBounds) {
  EXPECT_EQ(DigitBetween(kBinary, "", "").value(), D("1"));
  EXPECT_EQ(DigitBetween(kQuaternary, "", "").value(), D("2"));
}

// --- Property tests -----------------------------------------------------

struct DomainParam {
  const char* name;
  DigitDomain domain;
};

// gtest prints each parameter into its test's listed name; the default
// print dumps the struct's bytes, addresses included, so the ctest names
// would change on every run.
void PrintTo(const DomainParam& param, std::ostream* os) { *os << param.name; }

class DigitStringPropertyTest : public ::testing::TestWithParam<DomainParam> {
};

TEST_P(DigitStringPropertyTest, RandomInsertionChainsStayOrderedAndValid) {
  const DigitDomain& domain = GetParam().domain;
  // Start with two codes and repeatedly insert at random gaps, checking
  // strict order and validity throughout.
  std::vector<std::string> codes;
  codes.push_back(DigitBetween(domain, "", "").value());
  codes.push_back(DigitAfter(domain, codes[0]));
  common::SplitMix64 rng(123);
  for (int i = 0; i < 2000; ++i) {
    size_t gap = rng.NextBelow(codes.size() + 1);
    std::string left = gap == 0 ? std::string() : codes[gap - 1];
    std::string right = gap == codes.size() ? std::string() : codes[gap];
    auto fresh = DigitBetween(domain, left, right);
    ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
    ASSERT_TRUE(IsValidDigitCode(domain, *fresh))
        << "iteration " << i;
    if (!left.empty()) {
      ASSERT_LT(DigitCompare(left, *fresh), 0) << "iteration " << i;
    }
    if (!right.empty()) {
      ASSERT_LT(DigitCompare(*fresh, right), 0) << "iteration " << i;
    }
    codes.insert(codes.begin() + static_cast<long>(gap), *fresh);
  }
  for (size_t i = 1; i < codes.size(); ++i) {
    ASSERT_LT(DigitCompare(codes[i - 1], codes[i]), 0);
  }
}

TEST_P(DigitStringPropertyTest, SkewedChainsStayOrdered) {
  const DigitDomain& domain = GetParam().domain;
  std::string anchor = DigitAfter(domain, DigitBetween(domain, "", "").value());
  std::string left = DigitBetween(domain, "", anchor).value();
  for (int i = 0; i < 500; ++i) {
    auto fresh = DigitBetween(domain, left, anchor);
    ASSERT_TRUE(fresh.ok());
    ASSERT_LT(DigitCompare(left, *fresh), 0);
    ASSERT_LT(DigitCompare(*fresh, anchor), 0);
    ASSERT_TRUE(IsValidDigitCode(domain, *fresh));
    left = *fresh;
  }
}

TEST_P(DigitStringPropertyTest, PrependChainsStayOrdered) {
  const DigitDomain& domain = GetParam().domain;
  std::string right = DigitBetween(domain, "", "").value();
  for (int i = 0; i < 500; ++i) {
    auto fresh = DigitBefore(domain, right);
    ASSERT_TRUE(fresh.ok());
    ASSERT_LT(DigitCompare(*fresh, right), 0);
    ASSERT_TRUE(IsValidDigitCode(domain, *fresh));
    right = *fresh;
  }
}

TEST_P(DigitStringPropertyTest, AppendChainsStayOrdered) {
  const DigitDomain& domain = GetParam().domain;
  std::string left = DigitBetween(domain, "", "").value();
  for (int i = 0; i < 500; ++i) {
    std::string fresh = DigitAfter(domain, left);
    ASSERT_LT(DigitCompare(left, fresh), 0);
    ASSERT_TRUE(IsValidDigitCode(domain, fresh));
    left = fresh;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Domains, DigitStringPropertyTest,
    ::testing::Values(DomainParam{"binary", {0, 1, 1}},
                      DomainParam{"quaternary", {1, 3, 2}},
                      DomainParam{"dln4bit", {0, 15, 1}},
                      DomainParam{"wide", {0, 63, 1}}),
    [](const ::testing::TestParamInfo<DomainParam>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace xmlup::labels
