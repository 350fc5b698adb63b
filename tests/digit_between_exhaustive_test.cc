// Exhaustive validation of the digit-string algebra: for every ordered
// pair of valid codes up to a small length, DigitBetween must produce a
// valid code strictly between them. This is the load-bearing invariant
// under ImprovedBinary, CDBS, QED, CDQS and DLN.

#include <gtest/gtest.h>

#include <ostream>
#include <string>
#include <vector>

#include "labels/digit_string.h"

namespace xmlup::labels {
namespace {

std::vector<std::string> AllValidCodes(const DigitDomain& domain,
                                       size_t max_len) {
  std::vector<std::string> out;
  std::vector<std::string> frontier = {""};
  for (size_t len = 1; len <= max_len; ++len) {
    std::vector<std::string> next;
    for (const std::string& prefix : frontier) {
      for (int d = domain.min_digit; d <= domain.max_digit; ++d) {
        std::string code = prefix;
        code.push_back(static_cast<char>(d));
        if (static_cast<uint8_t>(code.back()) >= domain.min_terminal) {
          out.push_back(code);
        }
        next.push_back(code);
      }
    }
    frontier = std::move(next);
  }
  return out;
}

struct DomainCase {
  const char* name;
  DigitDomain domain;
  size_t max_len;
};

// gtest prints each parameter into its test's listed name; the default
// print dumps the struct's bytes, addresses included, so the ctest names
// would change on every run.
void PrintTo(const DomainCase& param, std::ostream* os) { *os << param.name; }

class DigitBetweenExhaustiveTest
    : public ::testing::TestWithParam<DomainCase> {};

TEST_P(DigitBetweenExhaustiveTest, EveryOrderedPairHasAValidBetween) {
  const DigitDomain& domain = GetParam().domain;
  std::vector<std::string> codes =
      AllValidCodes(domain, GetParam().max_len);
  ASSERT_FALSE(codes.empty());
  size_t pairs = 0;
  for (const std::string& left : codes) {
    for (const std::string& right : codes) {
      if (DigitCompare(left, right) >= 0) continue;
      auto mid = DigitBetween(domain, left, right);
      ASSERT_TRUE(mid.ok())
          << "no code between two valid codes: " << mid.status().ToString();
      ASSERT_TRUE(IsValidDigitCode(domain, *mid));
      ASSERT_LT(DigitCompare(left, *mid), 0);
      ASSERT_LT(DigitCompare(*mid, right), 0);
      ++pairs;
    }
  }
  EXPECT_GT(pairs, 100u) << "enumeration too small to be meaningful";
}

TEST_P(DigitBetweenExhaustiveTest, EveryCodeHasBeforeAndAfter) {
  const DigitDomain& domain = GetParam().domain;
  for (const std::string& code : AllValidCodes(domain, GetParam().max_len)) {
    auto before = DigitBefore(domain, code);
    ASSERT_TRUE(before.ok()) << "no code before a valid code";
    ASSERT_TRUE(IsValidDigitCode(domain, *before));
    ASSERT_LT(DigitCompare(*before, code), 0);
    std::string after = DigitAfter(domain, code);
    ASSERT_TRUE(IsValidDigitCode(domain, after));
    ASSERT_LT(DigitCompare(code, after), 0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Domains, DigitBetweenExhaustiveTest,
    ::testing::Values(DomainCase{"binary", {0, 1, 1}, 7},
                      DomainCase{"quaternary", {1, 3, 2}, 4},
                      DomainCase{"dln", {0, 3, 1}, 4}),
    [](const ::testing::TestParamInfo<DomainCase>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace xmlup::labels
