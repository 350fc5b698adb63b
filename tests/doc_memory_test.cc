// Heap bytes per node of one published view copy: CloneForView plus
// PrewarmCaches, the copy the serving stack makes for every publish,
// measured with mallinfo2 on the catalogue document after 10,000 appends
// (13,005 nodes). The count is deterministic, so this is a CI gate with no
// timing in it.

#include <malloc.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>

#include "core/labeled_document.h"
#include "labels/registry.h"
#include "xml/parser.h"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define XMLUP_HEAP_IS_INSTRUMENTED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define XMLUP_HEAP_IS_INSTRUMENTED 1
#endif
#endif

namespace xmlup::core {
namespace {

constexpr int kSections = 4;
constexpr int kItemsPerSection = 250;
constexpr int kAppends = 10000;

// ORDPATH and Dewey measure 156 B/node and are held to 170. The ratio-key
// schemes are held to their measured bytes per node plus 10%: Vector 204
// and vector-prefix 206.5, whose labels (over 31 bytes) spill out of
// line, and DDE 156.
double MaxBytesPerNode(const std::string& scheme) {
  if (scheme == "vector") return 224.0;
  if (scheme == "vector-prefix") return 227.0;
  if (scheme == "dde") return 171.0;
  return 170.0;
}

// Bytes the allocator has handed out and not had back: small chunks plus
// mmap-ed blocks (large vectors).
size_t HeapInUse() {
  const struct mallinfo2 info = mallinfo2();
  return info.uordblks + info.hblkhd;
}

// The e2e catalogue: <doc> with four sections of 250 <item k=".."> text
// elements, then `kAppends` empty elements appended round-robin to the
// sections, the way the ingest workload's clients append.
LabeledDocument Catalogue(const labels::LabelingScheme* scheme) {
  std::string xml = "<doc>";
  for (int s = 0; s < kSections; ++s) {
    xml += "<s" + std::to_string(s) + ">";
    for (int i = 0; i < kItemsPerSection; ++i) {
      const int k = s * kItemsPerSection + i;
      xml += "<item k=\"" + std::to_string(k) + "\">v" + std::to_string(k) +
             "</item>";
    }
    xml += "</s" + std::to_string(s) + ">";
  }
  xml += "</doc>";
  auto tree = xml::ParseDocument(xml);
  EXPECT_TRUE(tree.ok());
  auto doc = LabeledDocument::Build(std::move(*tree), scheme);
  EXPECT_TRUE(doc.ok());
  const std::vector<xml::NodeId> sections =
      doc->tree().Children(doc->tree().root());
  for (int i = 0; i < kAppends; ++i) {
    const int s = i % kSections;
    std::string name = "e";
    name += std::to_string(s);
    name += '_';
    name += std::to_string(i / kSections);
    auto node = doc->InsertNode(sections[s], xml::NodeKind::kElement,
                                std::move(name), "");
    EXPECT_TRUE(node.ok());
  }
  return std::move(*doc);
}

class DocMemoryTest : public ::testing::TestWithParam<std::string> {};

TEST_P(DocMemoryTest, ViewCopyStaysWithinBytesPerNodeBudget) {
#ifdef XMLUP_HEAP_IS_INSTRUMENTED
  GTEST_SKIP() << "the sanitizer's allocator pads every block, so heap "
                  "bytes per node measure the sanitizer, not the document";
#endif
  auto scheme = labels::CreateScheme(GetParam());
  ASSERT_TRUE(scheme.ok());
  const LabeledDocument doc = Catalogue(scheme->get());
  ASSERT_EQ(doc.tree().node_count(), 13005u);
  ASSERT_TRUE(doc.PrewarmCaches().ok());

  const size_t before = HeapInUse();
  const LabeledDocument view = doc.CloneForView(scheme->get());
  ASSERT_TRUE(view.PrewarmCaches().ok());
  const size_t after = HeapInUse();

  const double per_node = static_cast<double>(after - before) /
                          static_cast<double>(view.tree().node_count());
  std::printf("%s: %.1f heap bytes per node per view copy\n",
              GetParam().c_str(), per_node);
  RecordProperty("bytes_per_node", std::to_string(per_node));
  EXPECT_LE(per_node, MaxBytesPerNode(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Schemes, DocMemoryTest,
                         ::testing::Values("ordpath", "dewey", "vector",
                                           "vector-prefix", "dde"),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           std::string name = info.param;
                           std::replace(name.begin(), name.end(), '-', '_');
                           return name;
                         });

}  // namespace
}  // namespace xmlup::core
