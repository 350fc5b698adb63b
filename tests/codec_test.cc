#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <ostream>

#include "common/rng.h"
#include "labels/binary_codec.h"
#include "labels/dewey_codec.h"
#include "labels/dln_codec.h"
#include "labels/lsdx_codec.h"
#include "labels/order_codec.h"
#include "labels/ordpath_codec.h"
#include "labels/quaternary_codec.h"
#include "labels/vector_codec.h"

namespace xmlup::labels {
namespace {

struct CodecParam {
  const char* name;
  std::function<std::unique_ptr<OrderCodec>()> make;
  // LSDX's published rules violate order/uniqueness in corner cases by
  // design; its property tests are relaxed accordingly.
  bool order_reliable = true;
};

// gtest prints each parameter into its test's listed name; the default
// print dumps the struct's bytes, addresses included, so the ctest names
// would change on every run.
void PrintTo(const CodecParam& param, std::ostream* os) { *os << param.name; }

class CodecTest : public ::testing::TestWithParam<CodecParam> {
 protected:
  std::unique_ptr<OrderCodec> codec_ = GetParam().make();
};

TEST_P(CodecTest, InitialCodesAreStrictlyIncreasingAndUnique) {
  for (size_t n : {0u, 1u, 2u, 3u, 7u, 30u, 200u}) {
    std::vector<std::string> codes;
    auto status = codec_->InitialCodes(n, &codes, nullptr);
    ASSERT_TRUE(status.ok()) << codec_->name() << " n=" << n << ": "
                             << status.ToString();
    ASSERT_EQ(codes.size(), n);
    for (size_t i = 1; i < n; ++i) {
      ASSERT_LT(codec_->Compare(codes[i - 1], codes[i]), 0)
          << codec_->name() << " n=" << n << " i=" << i;
    }
  }
}

TEST_P(CodecTest, CompareIsAntisymmetricAndReflexive) {
  std::vector<std::string> codes;
  ASSERT_TRUE(codec_->InitialCodes(20, &codes, nullptr).ok());
  for (const auto& a : codes) {
    EXPECT_EQ(codec_->Compare(a, a), 0);
    for (const auto& b : codes) {
      EXPECT_EQ(codec_->Compare(a, b), -codec_->Compare(b, a));
    }
  }
}

TEST_P(CodecTest, RenderAndStorageAreDefined) {
  std::vector<std::string> codes;
  ASSERT_TRUE(codec_->InitialCodes(10, &codes, nullptr).ok());
  for (const auto& code : codes) {
    EXPECT_FALSE(codec_->Render(code).empty()) << codec_->name();
    EXPECT_GT(codec_->StorageBits(code), 0u) << codec_->name();
  }
}

TEST_P(CodecTest, RandomInsertionChainsStayOrdered) {
  if (!GetParam().order_reliable) {
    GTEST_SKIP() << "scheme is non-unique by design";
  }
  std::vector<std::string> codes;
  ASSERT_TRUE(codec_->InitialCodes(4, &codes, nullptr).ok());
  common::SplitMix64 rng(7);
  int inserted = 0;
  for (int i = 0; i < 400; ++i) {
    size_t gap = rng.NextBelow(codes.size() + 1);
    std::string left = gap == 0 ? std::string() : codes[gap - 1];
    std::string right = gap == codes.size() ? std::string() : codes[gap];
    auto fresh = codec_->Between(left, right, nullptr);
    if (!fresh.ok()) {
      // Overflow means "host must relabel" — legitimate for Dewey, DLN,
      // fixed slots. Any other error is a bug.
      ASSERT_EQ(fresh.status().code(), common::StatusCode::kOverflow)
          << codec_->name() << ": " << fresh.status().ToString();
      continue;
    }
    if (!left.empty()) {
      ASSERT_LT(codec_->Compare(left, *fresh), 0) << codec_->name();
    }
    if (!right.empty()) {
      ASSERT_LT(codec_->Compare(*fresh, right), 0) << codec_->name();
    }
    codes.insert(codes.begin() + static_cast<long>(gap), *fresh);
    ++inserted;
  }
  // Every codec must support at least appends.
  EXPECT_GT(inserted, 0) << codec_->name();
}

TEST_P(CodecTest, AppendChainAlwaysWorksUntilBudget) {
  std::vector<std::string> codes;
  ASSERT_TRUE(codec_->InitialCodes(1, &codes, nullptr).ok());
  std::string last = codes[0];
  for (int i = 0; i < 100; ++i) {
    auto fresh = codec_->Between(last, "", nullptr);
    if (!fresh.ok()) {
      ASSERT_EQ(fresh.status().code(), common::StatusCode::kOverflow);
      return;  // Budgeted codecs may legitimately stop.
    }
    ASSERT_LT(codec_->Compare(last, *fresh), 0) << codec_->name();
    last = *fresh;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllCodecs, CodecTest,
    ::testing::Values(
        CodecParam{"improved_binary",
                   [] { return std::make_unique<ImprovedBinaryCodec>(); }},
        CodecParam{"cdbs", [] { return std::make_unique<CdbsCodec>(); }},
        CodecParam{"qed", [] { return std::make_unique<QedCodec>(); }},
        CodecParam{"cdqs", [] { return std::make_unique<CdqsCodec>(); }},
        CodecParam{"vector", [] { return std::make_unique<VectorCodec>(); }},
        CodecParam{"dewey", [] { return std::make_unique<DeweyCodec>(); }},
        CodecParam{"dln", [] { return std::make_unique<DlnCodec>(); }},
        CodecParam{"ordpath",
                   [] { return std::make_unique<OrdpathCodec>(); }},
        CodecParam{"lsdx", [] { return std::make_unique<LsdxCodec>(); },
                   /*order_reliable=*/false},
        CodecParam{"com_d", [] { return std::make_unique<ComDCodec>(); },
                   /*order_reliable=*/false}),
    [](const ::testing::TestParamInfo<CodecParam>& info) {
      return info.param.name;
    });

// --- Codec-specific behaviour -------------------------------------------

TEST(DeweyCodecTest, OnlyAppendsSucceed) {
  DeweyCodec codec;
  std::vector<std::string> codes;
  ASSERT_TRUE(codec.InitialCodes(3, &codes, nullptr).ok());
  EXPECT_EQ(codec.Render(codes[0]), "1");
  EXPECT_EQ(codec.Render(codes[2]), "3");
  auto after = codec.Between(codes[2], "", nullptr);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(codec.Render(*after), "4");
  auto between = codec.Between(codes[0], codes[1], nullptr);
  ASSERT_FALSE(between.ok());
  EXPECT_EQ(between.status().code(), common::StatusCode::kOverflow);
  auto before = codec.Between("", codes[0], nullptr);
  EXPECT_FALSE(before.ok());
}

TEST(ImprovedBinaryCodecTest, LengthFieldBudgetOverflows) {
  ImprovedBinaryCodec codec(/*length_field_bits=*/3);  // Max 7-bit codes.
  std::vector<std::string> codes;
  ASSERT_TRUE(codec.InitialCodes(2, &codes, nullptr).ok());
  std::string last = codes[1];
  bool overflowed = false;
  for (int i = 0; i < 20; ++i) {
    auto fresh = codec.Between(last, "", nullptr);
    if (!fresh.ok()) {
      EXPECT_EQ(fresh.status().code(), common::StatusCode::kOverflow);
      overflowed = true;
      break;
    }
    last = *fresh;
  }
  EXPECT_TRUE(overflowed);
}

TEST(ImprovedBinaryCodecTest, CountsDivisionsAndRecursion) {
  ImprovedBinaryCodec codec;
  std::vector<std::string> codes;
  common::OpCounters stats;
  ASSERT_TRUE(codec.InitialCodes(10, &codes, &stats).ok());
  EXPECT_GT(stats.recursive_calls, 0u);
  EXPECT_GT(stats.divisions, 0u);
}

TEST(QedCodecTest, CodesNeverEndInOne) {
  QedCodec codec;
  std::vector<std::string> codes;
  ASSERT_TRUE(codec.InitialCodes(100, &codes, nullptr).ok());
  for (const auto& code : codes) {
    ASSERT_FALSE(code.empty());
    EXPECT_GE(static_cast<int>(code.back()), 2) << codec.Render(code);
  }
}

TEST(QedCodecTest, StorageIncludesSeparator) {
  QedCodec codec;
  std::vector<std::string> codes;
  ASSERT_TRUE(codec.InitialCodes(1, &codes, nullptr).ok());
  // One quaternary number (2 bits) + separator (2 bits).
  EXPECT_EQ(codec.StorageBits(codes[0]), 4u);
}

TEST(CdqsCodecTest, UsesShortestCodesFirst) {
  CdqsCodec codec;
  std::vector<std::string> two, eight;
  ASSERT_TRUE(codec.InitialCodes(2, &two, nullptr).ok());
  ASSERT_TRUE(codec.InitialCodes(8, &eight, nullptr).ok());
  EXPECT_EQ(codec.Render(two[0]), "2");
  EXPECT_EQ(codec.Render(two[1]), "3");
  // n=8 uses the two single-digit codes plus six two-digit codes.
  size_t singles = 0;
  for (const auto& code : eight) singles += code.size() == 1 ? 1 : 0;
  EXPECT_EQ(singles, 2u);
}

TEST(CdqsCodecTest, MoreCompactThanQedOnWideFanouts) {
  CdqsCodec cdqs;
  QedCodec qed;
  for (size_t n : {50u, 200u, 1000u}) {
    std::vector<std::string> a, b;
    ASSERT_TRUE(cdqs.InitialCodes(n, &a, nullptr).ok());
    ASSERT_TRUE(qed.InitialCodes(n, &b, nullptr).ok());
    size_t cdqs_bits = 0, qed_bits = 0;
    for (const auto& code : a) cdqs_bits += cdqs.StorageBits(code);
    for (const auto& code : b) qed_bits += qed.StorageBits(code);
    EXPECT_LE(cdqs_bits, qed_bits) << "n=" << n;
  }
}

TEST(VectorCodecTest, MediantBetweenBounds) {
  VectorCodec codec;
  auto mid = codec.Between("", "", nullptr);
  ASSERT_TRUE(mid.ok());
  EXPECT_EQ(codec.Render(*mid), "(1,1)");
  auto upper = codec.Between(*mid, "", nullptr);
  ASSERT_TRUE(upper.ok());
  EXPECT_EQ(codec.Render(*upper), "(1,2)");
  auto between = codec.Between(*mid, *upper, nullptr);
  ASSERT_TRUE(between.ok());
  EXPECT_EQ(codec.Render(*between), "(2,3)");
  EXPECT_LT(codec.Compare(*mid, *between), 0);
  EXPECT_LT(codec.Compare(*between, *upper), 0);
}

TEST(VectorCodecTest, GradientComparisonAvoidsOverflowErrors) {
  VectorCodec codec;
  std::string huge = VectorCodec::Pack(UINT64_MAX / 2, UINT64_MAX / 2 - 1);
  std::string huger = VectorCodec::Pack(UINT64_MAX / 2 - 1, UINT64_MAX / 2);
  EXPECT_LT(codec.Compare(huge, huger), 0);
}

TEST(VectorCodecTest, ComponentOverflowIsReported) {
  VectorCodec codec;
  std::string top = VectorCodec::Pack(1, UINT64_MAX);
  auto result = codec.Between(top, "", nullptr);  // y + 1 wraps.
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), common::StatusCode::kOverflow);
}

TEST(DlnCodecTest, AppendOverflowsAtComponentMax) {
  DlnCodec codec(/*component_bits=*/2, /*max_components=*/8);  // Max 3.
  std::vector<std::string> codes;
  ASSERT_TRUE(codec.InitialCodes(3, &codes, nullptr).ok());
  EXPECT_EQ(codec.Render(codes[2]), "3");
  auto append = codec.Between(codes[2], "", nullptr);
  ASSERT_FALSE(append.ok());
  EXPECT_EQ(append.status().code(), common::StatusCode::kOverflow);
}

TEST(DlnCodecTest, BetweenUsesSubValues) {
  DlnCodec codec;
  std::vector<std::string> codes;
  ASSERT_TRUE(codec.InitialCodes(2, &codes, nullptr).ok());
  auto mid = codec.Between(codes[0], codes[1], nullptr);
  ASSERT_TRUE(mid.ok());
  EXPECT_EQ(codec.Render(*mid), "1/1");
}

TEST(ComDCodecTest, CompressionRoundTripsPaperExample) {
  // §3.1.2: aaaaabcbcbcdddde -> 5a3(bc)4de.
  EXPECT_EQ(ComDCodec::Compress("aaaaabcbcbcdddde"), "5a3(bc)4de");
  EXPECT_EQ(ComDCodec::Decompress("5a3(bc)4de"), "aaaaabcbcbcdddde");
}

TEST(ComDCodecTest, CompressionRoundTripsRandomStrings) {
  common::SplitMix64 rng(5);
  for (int i = 0; i < 200; ++i) {
    std::string s;
    size_t len = 1 + rng.NextBelow(40);
    for (size_t j = 0; j < len; ++j) {
      s.push_back(static_cast<char>('a' + rng.NextBelow(4)));
    }
    EXPECT_EQ(ComDCodec::Decompress(ComDCodec::Compress(s)), s) << s;
  }
}

TEST(ComDCodecTest, CompressedStorageNeverLarger) {
  ComDCodec codec;
  LsdxCodec plain;
  for (const char* s : {"b", "zzzzzzzb", "abababab", "bcde"}) {
    EXPECT_LE(codec.StorageBits(s), plain.StorageBits(s)) << s;
  }
}

}  // namespace
}  // namespace xmlup::labels
