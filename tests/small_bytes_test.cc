// SmallBytes, the 32-byte value type behind labels::Label and the order-key
// cache: inline up to 31 bytes, one heap block beyond.

#include "labels/small_bytes.h"

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <string_view>
#include <unordered_set>
#include <utility>

#include "labels/label.h"

namespace xmlup::labels {
namespace {

// `n` bytes that differ from position to position and include zeros.
std::string Pattern(size_t n, char salt = 0) {
  std::string out(n, '\0');
  for (size_t i = 0; i < n; ++i) out[i] = static_cast<char>(i * 7 + salt);
  return out;
}

class SmallBytesSizeTest : public ::testing::TestWithParam<size_t> {};

TEST_P(SmallBytesSizeTest, HoldsItsBytesOnTheRightSideOfTheBoundary) {
  const std::string bytes = Pattern(GetParam());
  const SmallBytes value(bytes);
  EXPECT_EQ(value.view(), bytes);
  EXPECT_EQ(value.size(), bytes.size());
  EXPECT_EQ(value.empty(), bytes.empty());
  EXPECT_EQ(value.on_heap(), bytes.size() > SmallBytes::kInlineCapacity);
}

TEST_P(SmallBytesSizeTest, CopiesAndMovesKeepTheBytes) {
  const std::string bytes = Pattern(GetParam());
  const SmallBytes original(bytes);

  SmallBytes copy(original);
  EXPECT_EQ(copy.view(), bytes);
  EXPECT_EQ(original.view(), bytes);
  if (copy.on_heap()) {
    EXPECT_NE(copy.view().data(), original.view().data());
  }

  SmallBytes moved(std::move(copy));
  EXPECT_EQ(moved.view(), bytes);
  EXPECT_TRUE(copy.empty());  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(copy.view(), "");

  // Assignments over both representations release what they replace
  // (the sanitizer build checks the heap side).
  SmallBytes assigned(Pattern(4, 1));
  assigned = original;
  EXPECT_EQ(assigned.view(), bytes);
  SmallBytes over_heap(Pattern(100, 2));
  over_heap = original;
  EXPECT_EQ(over_heap.view(), bytes);
  SmallBytes move_assigned(Pattern(100, 3));
  move_assigned = std::move(moved);
  EXPECT_EQ(move_assigned.view(), bytes);
  EXPECT_TRUE(moved.empty());  // NOLINT(bugprone-use-after-move)

  // A moved-from value is usable again.
  moved = original;
  EXPECT_EQ(moved.view(), bytes);
}

TEST_P(SmallBytesSizeTest, SelfAssignmentKeepsTheBytes) {
  const std::string bytes = Pattern(GetParam());
  SmallBytes value(bytes);
  SmallBytes& alias = value;
  value = alias;
  EXPECT_EQ(value.view(), bytes);
  value = std::move(alias);
  EXPECT_EQ(value.view(), bytes);
}

TEST_P(SmallBytesSizeTest, LabelWrapsTheBytesAndHashesLikeAStringView) {
  const std::string bytes = Pattern(GetParam());
  const Label label(bytes);
  EXPECT_EQ(label.bytes(), bytes);
  EXPECT_EQ(label.size(), bytes.size());
  EXPECT_EQ(LabelHash()(label), std::hash<std::string_view>()(bytes));
  EXPECT_EQ(Label(label), label);
}

INSTANTIATE_TEST_SUITE_P(Boundary, SmallBytesSizeTest,
                         ::testing::Values(0, 1, 30, 31, 32, 4096),
                         [](const ::testing::TestParamInfo<size_t>& info) {
                           return "len" + std::to_string(info.param);
                         });

TEST(SmallBytesTest, EqualityComparesBytesAcrossRepresentations) {
  const std::string inline_bytes = Pattern(31);
  const std::string heap_bytes = inline_bytes + 'x';
  const SmallBytes a(inline_bytes);
  const SmallBytes b(heap_bytes);
  ASSERT_FALSE(a.on_heap());
  ASSERT_TRUE(b.on_heap());
  EXPECT_FALSE(a == b);
  EXPECT_FALSE(b == a);
  EXPECT_EQ(b, SmallBytes(heap_bytes));
  EXPECT_EQ(a, SmallBytes(inline_bytes));
  EXPECT_FALSE(SmallBytes(Pattern(40, 1)) == SmallBytes(Pattern(40, 2)));
  // Embedded zeros count: "a\0" is not "a".
  EXPECT_FALSE(SmallBytes(std::string_view("a\0", 2)) == SmallBytes("a"));
  EXPECT_EQ(SmallBytes(), SmallBytes(""));
}

TEST(SmallBytesTest, LabelsWorkAsHashSetKeys) {
  std::unordered_set<Label, LabelHash> set;
  for (size_t n : {1u, 15u, 31u, 32u, 64u}) {
    EXPECT_TRUE(set.insert(Label(Pattern(n))).second);
  }
  for (size_t n : {1u, 15u, 31u, 32u, 64u}) {
    EXPECT_FALSE(set.insert(Label(Pattern(n))).second);
  }
  EXPECT_EQ(set.size(), 5u);
}

}  // namespace
}  // namespace xmlup::labels
