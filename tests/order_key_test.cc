// The order-key contract: for every registered scheme, and for every codec
// behind a prefix host, plain byte comparison of two OrderKey outputs has
// the sign of Compare on the labels (or codes) they came from. The compact
// integer keys that ORDPATH and Dewey use, and the ratio keys that Vector
// and DDE use, are checked on their own first, over their edge cases.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <ostream>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "core/labeled_document.h"
#include "labels/binary_codec.h"
#include "labels/dewey_codec.h"
#include "labels/dln_codec.h"
#include "labels/lsdx_codec.h"
#include "labels/order_codec.h"
#include "labels/order_key.h"
#include "labels/ordpath_codec.h"
#include "labels/prefix_scheme.h"
#include "labels/quaternary_codec.h"
#include "labels/registry.h"
#include "labels/vector_codec.h"
#include "workload/document_generator.h"
#include "xml/parser.h"

namespace xmlup::labels {
namespace {

int Sign(int v) { return (v > 0) - (v < 0); }

// The sign of a memcmp-style comparison: bytes as unsigned, a proper
// prefix first.
int KeyOrder(std::string_view a, std::string_view b) {
  return Sign(a.compare(b));
}

template <typename T>
int ValueOrder(const T& a, const T& b) {
  return (a > b) - (a < b);
}

// 0, ±1, ±2^k±2 for every k, the byte-length boundaries, and the extremes.
std::vector<int64_t> SignedEdgeValues() {
  std::vector<int64_t> out = {0,      1,      -1,         255,
                              256,    -255,   -256,       65535,
                              65536,  -65535, -65536,     INT64_MAX,
                              INT64_MIN, INT64_MAX - 1, INT64_MIN + 1};
  for (int k = 1; k < 63; ++k) {
    const int64_t p = int64_t{1} << k;
    for (int64_t d = -2; d <= 2; ++d) {
      out.push_back(p + d);
      out.push_back(-p + d);
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::vector<uint64_t> UnsignedEdgeValues() {
  std::vector<uint64_t> out = {0, 1, 255, 256, 65535, 65536, UINT32_MAX,
                               UINT64_MAX, UINT64_MAX - 1};
  for (int k = 1; k < 64; ++k) {
    const uint64_t p = uint64_t{1} << k;
    for (uint64_t d = 0; d <= 4; ++d) out.push_back(p + d - 2);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

template <typename T>
std::string CompactKey(T v) {
  std::string key;
  if constexpr (std::is_signed_v<T>) {
    AppendOrderedInt(v, &key);
  } else {
    AppendOrderedUint(v, &key);
  }
  return key;
}

template <typename T>
void ExpectCompactKeysOrderAndArePrefixFree(const std::vector<T>& values) {
  std::vector<std::string> keys;
  for (T v : values) keys.push_back(CompactKey(v));
  for (size_t i = 0; i < values.size(); ++i) {
    for (size_t j = 0; j < values.size(); ++j) {
      ASSERT_EQ(KeyOrder(keys[i], keys[j]), ValueOrder(values[i], values[j]))
          << values[i] << " vs " << values[j];
      if (i != j && keys[i].size() <= keys[j].size()) {
        ASSERT_NE(std::string_view(keys[j]).substr(0, keys[i].size()),
                  keys[i])
            << values[i] << "'s key is a prefix of " << values[j] << "'s";
      }
    }
  }
}

TEST(CompactIntKeyTest, SignedKeysOrderAndArePrefixFree) {
  ExpectCompactKeysOrderAndArePrefixFree(SignedEdgeValues());
}

TEST(CompactIntKeyTest, UnsignedKeysOrderAndArePrefixFree) {
  ExpectCompactKeysOrderAndArePrefixFree(UnsignedEdgeValues());
}

TEST(CompactIntKeyTest, SignedAndUnsignedAgreeOnNonNegatives) {
  for (int64_t v : SignedEdgeValues()) {
    if (v < 0) continue;
    EXPECT_EQ(CompactKey(v), CompactKey(static_cast<uint64_t>(v))) << v;
  }
}

TEST(CompactIntKeyTest, KeysAreMinimal) {
  EXPECT_EQ(CompactKey(int64_t{0}), "\x80");
  EXPECT_EQ(CompactKey(int64_t{-1}), "\x7F");
  EXPECT_EQ(CompactKey(int64_t{1}), std::string("\x81\x01"));
  EXPECT_EQ(CompactKey(int64_t{256}), std::string("\x82\x01\x00", 3));
  EXPECT_EQ(CompactKey(int64_t{-256}), std::string("\x7E\x00", 2));
  EXPECT_EQ(CompactKey(INT64_MIN).size(), 9u);
  EXPECT_EQ(CompactKey(UINT64_MAX).size(), 9u);
}

TEST(CompactIntKeyTest, ConcatenatedSequencesOrderLexicographically) {
  const std::vector<int64_t> values = SignedEdgeValues();
  common::SplitMix64 rng(45);
  std::vector<std::vector<int64_t>> seqs;
  for (int i = 0; i < 600; ++i) {
    std::vector<int64_t> seq(1 + rng.NextBelow(4));
    for (int64_t& c : seq) c = values[rng.NextBelow(values.size())];
    seqs.push_back(seq);
    // An extension and a one-component change of the same sequence, so
    // that shared prefixes are common.
    std::vector<int64_t> longer = seq;
    longer.push_back(values[rng.NextBelow(values.size())]);
    seqs.push_back(longer);
    seq.back() = values[rng.NextBelow(values.size())];
    seqs.push_back(seq);
  }
  std::vector<std::string> keys;
  for (const auto& seq : seqs) {
    std::string key;
    for (int64_t c : seq) AppendOrderedInt(c, &key);
    keys.push_back(key);
  }
  for (size_t i = 0; i < seqs.size(); ++i) {
    for (size_t j = 0; j < seqs.size(); ++j) {
      ASSERT_EQ(KeyOrder(keys[i], keys[j]), ValueOrder(seqs[i], seqs[j]))
          << "sequences " << i << " and " << j;
    }
  }
}

// A ratio p/q. CrossOrder compares two by 128-bit cross-multiplication,
// the authority that Vector's and DDE's Compare use.
struct Ratio {
  uint64_t p;
  uint64_t q;
};

int CrossOrder(Ratio a, Ratio b) {
  return ValueOrder(static_cast<unsigned __int128>(a.p) * b.q,
                    static_cast<unsigned __int128>(b.p) * a.q);
}

std::string RatioKey(Ratio r) {
  std::string key;
  AppendRatioKey(r.p, r.q, &key);
  return key;
}

// Every adjacent Fibonacci pair below 2^64 both ways up (the ratios that
// agree longest with their neighbours), the neighbours of UINT64_MAX,
// integer ratios, zero, and equal ratios in several forms.
std::vector<Ratio> RatioEdgeValues() {
  std::vector<Ratio> out = {{0, 1},
                            {0, 7},
                            {0, UINT64_MAX},
                            {1, 1},
                            {2, 2},
                            {UINT64_MAX, UINT64_MAX},
                            {1, 2},
                            {2, 4},
                            {3, 6},
                            {UINT64_MAX / 2, UINT64_MAX - 1},
                            {2, 1},
                            {6, 3},
                            {255, 1},
                            {256, 1},
                            {UINT64_MAX, 1},
                            {UINT64_MAX - 1, 1},
                            {1, UINT64_MAX},
                            {1, UINT64_MAX - 1},
                            {UINT64_MAX, UINT64_MAX - 1},
                            {UINT64_MAX - 1, UINT64_MAX - 2},
                            {UINT64_MAX - 1, UINT64_MAX},
                            {UINT64_MAX - 2, UINT64_MAX - 1}};
  uint64_t a = 1, b = 1;
  while (b <= UINT64_MAX - a) {
    out.push_back({b, a});
    out.push_back({a, b});
    const uint64_t next = a + b;
    a = b;
    b = next;
  }
  out.push_back({b, a});
  out.push_back({a, b});
  return out;
}

TEST(RatioKeyTest, KeysOrderLikeCrossMultiplication) {
  const std::vector<Ratio> ratios = RatioEdgeValues();
  std::vector<std::string> keys;
  std::vector<std::string> wrapped;
  for (Ratio r : ratios) {
    keys.push_back(RatioKey(r));
    ASSERT_LE(keys.back().size(), 25u) << r.p << "/" << r.q;
    wrapped.emplace_back();
    AppendOrderKeyComponent(keys.back(), &wrapped.back());
  }
  for (size_t i = 0; i < ratios.size(); ++i) {
    for (size_t j = 0; j < ratios.size(); ++j) {
      const int expected = CrossOrder(ratios[i], ratios[j]);
      ASSERT_EQ(KeyOrder(keys[i], keys[j]), expected)
          << ratios[i].p << "/" << ratios[i].q << " vs " << ratios[j].p << "/"
          << ratios[j].q;
      ASSERT_EQ(KeyOrder(wrapped[i], wrapped[j]), expected)
          << ratios[i].p << "/" << ratios[i].q << " vs " << ratios[j].p << "/"
          << ratios[j].q << " wrapped";
    }
  }
}

TEST(RatioKeyTest, EqualRatiosShareOneKey) {
  EXPECT_EQ(RatioKey({1, 2}), RatioKey({2, 4}));
  EXPECT_EQ(RatioKey({1, 2}), RatioKey({3, 6}));
  EXPECT_EQ(RatioKey({0, 1}), RatioKey({0, UINT64_MAX}));
  EXPECT_EQ(RatioKey({5, 1}), RatioKey({10, 2}));
  // An integer ratio is its integer key with no fraction bytes, and 1/2
  // adds the single fraction byte 0x80.
  EXPECT_EQ(RatioKey({5, 1}), CompactKey(uint64_t{5}));
  EXPECT_EQ(RatioKey({1, 2}), std::string("\x80\x80"));
  EXPECT_EQ(RatioKey({UINT64_MAX, 1}).size(), 9u);
}

// Checks the contract on every pair of `labels`.
void ExpectKeysOrderLikeCompare(const LabelingScheme& scheme,
                                const std::vector<Label>& labels) {
  std::vector<std::string> keys(labels.size());
  for (size_t i = 0; i < labels.size(); ++i) {
    scheme.OrderKey(labels[i], &keys[i]);
  }
  for (size_t i = 0; i < labels.size(); ++i) {
    for (size_t j = 0; j < labels.size(); ++j) {
      ASSERT_EQ(KeyOrder(keys[i], keys[j]),
                Sign(scheme.Compare(labels[i], labels[j])))
          << scheme.Render(labels[i]) << " vs " << scheme.Render(labels[j]);
    }
  }
}

// Labels of every live node after a chain of inserts at random positions:
// before a random child (or appended) under a random element.
std::vector<Label> RandomChainLabels(const LabelingScheme* scheme,
                                     uint64_t seed) {
  workload::DocumentShape shape;
  shape.target_nodes = 40;
  shape.max_depth = 4;
  shape.max_fanout = 4;
  shape.seed = seed;
  auto tree = workload::GenerateDocument(shape);
  EXPECT_TRUE(tree.ok());
  auto doc = core::LabeledDocument::Build(std::move(*tree), scheme);
  EXPECT_TRUE(doc.ok()) << doc.status().ToString();
  common::SplitMix64 rng(seed);
  for (int i = 0; i < 160; ++i) {
    std::vector<xml::NodeId> elements;
    for (xml::NodeId n : doc->tree().PreorderNodes()) {
      if (doc->tree().kind(n) == xml::NodeKind::kElement) {
        elements.push_back(n);
      }
    }
    const xml::NodeId parent = elements[rng.NextBelow(elements.size())];
    std::vector<xml::NodeId> kids = doc->tree().Children(parent);
    const size_t slot = rng.NextBelow(kids.size() + 1);
    const xml::NodeId before =
        slot < kids.size() ? kids[slot] : xml::kInvalidNode;
    auto inserted = doc->InsertNode(parent, xml::NodeKind::kElement, "n", "",
                                    before);
    EXPECT_TRUE(inserted.ok()) << inserted.status().ToString();
  }
  std::vector<Label> labels;
  for (xml::NodeId n : doc->tree().PreorderNodes()) {
    labels.push_back(doc->label(n));
  }
  return labels;
}

class SchemeOrderKeyTest : public ::testing::TestWithParam<std::string> {};

TEST_P(SchemeOrderKeyTest, KeysOrderLikeCompareAfterRandomInsertionChains) {
  auto scheme = CreateScheme(GetParam());
  ASSERT_TRUE(scheme.ok());
  for (uint64_t seed : {3u, 11u}) {
    ExpectKeysOrderLikeCompare(**scheme,
                               RandomChainLabels(scheme->get(), seed));
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, SchemeOrderKeyTest, ::testing::ValuesIn(AllSchemeNames()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

struct CodecCase {
  const char* name;
  std::function<std::unique_ptr<OrderCodec>()> make;
};

// gtest prints each parameter into its test's listed name; the default
// print dumps the struct's bytes, addresses included.
void PrintTo(const CodecCase& param, std::ostream* os) { *os << param.name; }

SchemeTraits HostTraits(std::string_view codec) {
  SchemeTraits traits;
  traits.name = std::string(codec) + "-prefix";
  return traits;
}

// Checks the contract on every pair of `codes`.
void ExpectCodecKeysOrderLikeCompare(const OrderCodec& codec,
                                     const std::vector<std::string>& codes) {
  std::vector<std::string> keys(codes.size());
  for (size_t i = 0; i < codes.size(); ++i) codec.OrderKey(codes[i], &keys[i]);
  for (size_t i = 0; i < codes.size(); ++i) {
    for (size_t j = 0; j < codes.size(); ++j) {
      ASSERT_EQ(KeyOrder(keys[i], keys[j]),
                Sign(codec.Compare(codes[i], codes[j])))
          << codec.Render(codes[i]) << " vs " << codec.Render(codes[j]);
    }
  }
}

// Codes from a chain of Between calls at random gaps, the ends included.
// A codec that cannot split a gap (Dewey between siblings, a spent
// budget) just skips that step.
std::vector<std::string> RandomChainCodes(const OrderCodec& codec,
                                          uint64_t seed) {
  std::vector<std::string> codes;
  EXPECT_TRUE(codec.InitialCodes(4, &codes, nullptr).ok());
  common::SplitMix64 rng(seed);
  for (int i = 0; i < 200; ++i) {
    const size_t gap = rng.NextBelow(codes.size() + 1);
    const std::string_view left =
        gap == 0 ? std::string_view() : std::string_view(codes[gap - 1]);
    const std::string_view right = gap == codes.size()
                                       ? std::string_view()
                                       : std::string_view(codes[gap]);
    auto code = codec.Between(left, right, nullptr);
    if (code.ok()) codes.insert(codes.begin() + gap, std::move(*code));
  }
  return codes;
}

// Prefix labels of 1 to 4 components drawn from `codes`, each with some
// of its own ancestors, so that component-prefixes are common.
std::vector<Label> RandomPrefixLabels(const std::vector<std::string>& codes,
                                      uint64_t seed) {
  common::SplitMix64 rng(seed);
  std::vector<Label> labels;
  for (int i = 0; i < 150; ++i) {
    std::vector<std::string> components(1 + rng.NextBelow(4));
    for (std::string& c : components) c = codes[rng.NextBelow(codes.size())];
    for (size_t n = 1; n <= components.size(); ++n) {
      if (n == components.size() || rng.NextBelow(2) == 0) {
        labels.push_back(PrefixScheme::MakeLabel(
            {components.begin(), components.begin() + n}));
      }
    }
  }
  return labels;
}

class CodecOrderKeyTest : public ::testing::TestWithParam<CodecCase> {};

TEST_P(CodecOrderKeyTest, KeysOrderLikeCompareAlongRandomInsertionChains) {
  const std::unique_ptr<OrderCodec> codec = GetParam().make();
  ExpectCodecKeysOrderLikeCompare(*codec, RandomChainCodes(*codec, 29));
}

TEST_P(CodecOrderKeyTest, PrefixHostKeysOrderLikeCompare) {
  std::unique_ptr<OrderCodec> codec = GetParam().make();
  const std::vector<std::string> codes = RandomChainCodes(*codec, 31);
  PrefixScheme host(HostTraits(GetParam().name), std::move(codec));
  ExpectKeysOrderLikeCompare(host, RandomPrefixLabels(codes, 37));
}

INSTANTIATE_TEST_SUITE_P(
    AllCodecs, CodecOrderKeyTest,
    ::testing::Values(
        CodecCase{"improved_binary",
                  [] { return std::make_unique<ImprovedBinaryCodec>(); }},
        CodecCase{"cdbs", [] { return std::make_unique<CdbsCodec>(); }},
        CodecCase{"qed", [] { return std::make_unique<QedCodec>(); }},
        CodecCase{"cdqs", [] { return std::make_unique<CdqsCodec>(); }},
        CodecCase{"vector", [] { return std::make_unique<VectorCodec>(); }},
        CodecCase{"dewey", [] { return std::make_unique<DeweyCodec>(); }},
        CodecCase{"dln", [] { return std::make_unique<DlnCodec>(); }},
        CodecCase{"ordpath", [] { return std::make_unique<OrdpathCodec>(); }},
        CodecCase{"lsdx", [] { return std::make_unique<LsdxCodec>(); }},
        CodecCase{"com_d", [] { return std::make_unique<ComDCodec>(); }}),
    [](const ::testing::TestParamInfo<CodecCase>& info) {
      return std::string(info.param.name);
    });

TEST(OrderKeyEdgeTest, OrdpathEdgeComponentsThroughThePrefixHost) {
  // Single-component codes over every signed edge value, and caret codes
  // (an even component, then more) over the byte-length boundaries.
  std::vector<std::string> codes;
  for (int64_t v : SignedEdgeValues()) codes.push_back(OrdpathCodec::Pack({v}));
  const std::vector<int64_t> boundaries = {
      INT64_MIN, -65536, -65535, -256, -255, -2, -1, 0,
      1,         2,      255,    256,  65535, 65536, INT64_MAX};
  for (int64_t caret : boundaries) {
    for (int64_t last : boundaries) {
      codes.push_back(OrdpathCodec::Pack({caret, last}));
      codes.push_back(OrdpathCodec::Pack({caret, 0, last}));
    }
  }
  auto scheme = CreateScheme("ordpath");
  ASSERT_TRUE(scheme.ok());
  ExpectKeysOrderLikeCompare(**scheme, RandomPrefixLabels(codes, 41));
}

TEST(OrderKeyEdgeTest, DeweyEdgeValuesThroughThePrefixHost) {
  std::vector<std::string> codes;
  for (uint32_t v : {0u, 1u, 2u, 255u, 256u, 257u, 65535u, 65536u,
                     UINT32_MAX - 1, UINT32_MAX}) {
    codes.push_back(DeweyCodec::Pack(v));
  }
  auto scheme = CreateScheme("dewey");
  ASSERT_TRUE(scheme.ok());
  ExpectKeysOrderLikeCompare(**scheme, RandomPrefixLabels(codes, 43));
}

// Bisection that alternates sides, each new code between the previous
// two: Vector's components grow like Fibonacci numbers, the fastest way
// to its 64-bit overflow. Every code up to that point keeps the contract,
// bare and behind a prefix host.
TEST(OrderKeyEdgeTest, VectorBisectionUntilOverflow) {
  VectorCodec codec;
  std::vector<std::string> codes;
  ASSERT_TRUE(codec.InitialCodes(2, &codes, nullptr).ok());
  std::string left = codes[0], right = codes[1];
  for (bool go_left = true;; go_left = !go_left) {
    auto mid = codec.Between(left, right, nullptr);
    if (!mid.ok()) {
      ASSERT_EQ(mid.status().code(), common::StatusCode::kOverflow);
      break;
    }
    codes.push_back(*mid);
    (go_left ? right : left) = *mid;
  }
  ASSERT_GT(codes.size(), 80u);
  ExpectCodecKeysOrderLikeCompare(codec, codes);
  PrefixScheme host(HostTraits("vector"), std::make_unique<VectorCodec>());
  ExpectKeysOrderLikeCompare(host, RandomPrefixLabels(codes, 47));
}

// The same alternating bisection between DDE siblings, each new sibling
// also given a child (one more component over the same large u[0]), run
// until the mediant overflows and forces a relabel. Every label assigned
// before that keeps the contract.
TEST(OrderKeyEdgeTest, DdeBisectionUntilOverflow) {
  auto scheme = CreateScheme("dde");
  ASSERT_TRUE(scheme.ok());
  auto tree = xml::ParseDocument("<r><a/><b/></r>");
  ASSERT_TRUE(tree.ok());
  auto doc = core::LabeledDocument::Build(std::move(*tree), scheme->get());
  ASSERT_TRUE(doc.ok());
  const xml::NodeId root = doc->tree().root();
  std::vector<Label> labels;
  for (xml::NodeId n : doc->tree().PreorderNodes()) {
    labels.push_back(doc->label(n));
  }
  xml::NodeId left = doc->tree().first_child(root);
  xml::NodeId right = doc->tree().next_sibling(left);
  bool overflowed = false;
  for (bool go_left = true; !overflowed; go_left = !go_left) {
    core::UpdateStats stats;
    auto mid =
        doc->InsertNode(root, xml::NodeKind::kElement, "m", "", right, &stats);
    ASSERT_TRUE(mid.ok()) << mid.status().ToString();
    overflowed = stats.overflow;
    if (overflowed) break;
    labels.push_back(doc->label(*mid));
    auto child = doc->InsertNode(*mid, xml::NodeKind::kElement, "c", "",
                                 xml::kInvalidNode, &stats);
    ASSERT_TRUE(child.ok() && !stats.overflow);
    labels.push_back(doc->label(*child));
    (go_left ? right : left) = *mid;
  }
  ASSERT_GT(labels.size(), 160u);
  ExpectKeysOrderLikeCompare(**scheme, labels);
}

}  // namespace
}  // namespace xmlup::labels
