// The load-time order check (LabeledDocument::VerifyOrderAndUniqueness)
// walks preorder once and compares adjacent labels. These tests hold it
// to the sort-based check it replaced, kept here only as an oracle: sort
// every live node by the scheme's Compare, demand the result equal
// preorder, and reject equal neighbours. Both must agree on ok() for
// every registered scheme — over seeded random documents under random
// insertion, over adversarial label vectors (swapped labels, a duplicated
// label), and over the documented LSDX/Com-D collisions. LabelIndex's
// refresh, which skips its sort when preorder is already in key order,
// must produce exactly what a full sort produces.

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/label_index.h"
#include "core/labeled_document.h"
#include "labels/lsdx_codec.h"
#include "labels/prefix_scheme.h"
#include "labels/registry.h"
#include "workload/document_generator.h"
#include "workload/insertion_workload.h"
#include "xml/tree.h"

namespace xmlup::core {
namespace {

using common::Status;
using labels::Label;
using labels::LabelingScheme;
using labels::PrefixScheme;
using xml::NodeId;
using xml::NodeKind;
using xml::Tree;

// The O(n log n) check the one-pass walk replaced, verbatim in effect.
Status SortOracle(const Tree& tree, const LabelingScheme& scheme,
                  const std::vector<Label>& labels) {
  std::vector<NodeId> order = tree.PreorderNodes();
  for (NodeId n : order) {
    if (labels[n].empty()) return Status::Internal("node has no label");
  }
  std::vector<NodeId> sorted = order;
  std::stable_sort(sorted.begin(), sorted.end(), [&](NodeId a, NodeId b) {
    return scheme.Compare(labels[a], labels[b]) < 0;
  });
  for (size_t i = 0; i < order.size(); ++i) {
    if (sorted[i] != order[i]) {
      std::ostringstream os;
      os << "label order diverges from document order at position " << i;
      return Status::Internal(os.str());
    }
    if (i > 0 && scheme.Compare(labels[sorted[i - 1]], labels[sorted[i]]) ==
                     0) {
      return Status::Internal("duplicate label");
    }
  }
  return Status::Ok();
}

bool HasKnownPrefix(const Status& status) {
  const std::string& m = status.message();
  return m.rfind("duplicate label", 0) == 0 ||
         m.rfind("label order diverges from document order at position", 0) ==
             0;
}

// The one-pass check on a live document agrees with the oracle.
void ExpectAgrees(const LabeledDocument& doc, const std::string& what) {
  Status fast = doc.VerifyOrderAndUniqueness();
  Status oracle = SortOracle(doc.tree(), doc.scheme(), doc.all_labels());
  EXPECT_EQ(fast.ok(), oracle.ok())
      << what << ": one-pass says '" << fast.message() << "', oracle says '"
      << oracle.message() << "'";
  if (!fast.ok()) {
    EXPECT_TRUE(HasKnownPrefix(fast)) << fast.message();
  }
}

// The check as the load path runs it: Restore verifies an arbitrary label
// vector. Returns whether the vector was accepted.
bool ExpectRestoreAgrees(const Tree& tree, const LabelingScheme& scheme,
                         std::vector<Label> labels, const std::string& what) {
  Status oracle = SortOracle(tree, scheme, labels);
  Status fast =
      LabeledDocument::Restore(tree.Clone(), &scheme, std::move(labels))
          .status();
  EXPECT_EQ(fast.ok(), oracle.ok())
      << what << ": one-pass says '" << fast.message() << "', oracle says '"
      << oracle.message() << "'";
  if (!fast.ok()) {
    EXPECT_TRUE(HasKnownPrefix(fast)) << fast.message();
  }
  return fast.ok();
}

// LabelIndex entries equal a full stable sort of preorder by order key.
void ExpectIndexMatchesFullSort(const LabeledDocument& doc,
                                const std::string& what) {
  auto index = LabelIndex::Build(&doc);
  ASSERT_TRUE(index.ok()) << what << ": " << index.status().ToString();
  std::vector<NodeId> sorted = doc.tree().PreorderNodes();
  std::stable_sort(sorted.begin(), sorted.end(), [&](NodeId a, NodeId b) {
    return doc.order_key(a) < doc.order_key(b);
  });
  EXPECT_EQ(index->ordered_nodes(), sorted) << what;
}

class OrderCheckOracleTest : public ::testing::TestWithParam<std::string> {};

TEST_P(OrderCheckOracleTest, AgreesOnSeededDocumentsUnderRandomInsertion) {
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    auto scheme = labels::CreateScheme(GetParam());
    ASSERT_TRUE(scheme.ok());
    workload::DocumentShape shape;
    shape.target_nodes = 60;
    shape.max_depth = 4;
    shape.max_fanout = 5;
    shape.seed = seed;
    auto tree = workload::GenerateDocument(shape);
    ASSERT_TRUE(tree.ok());
    auto doc = LabeledDocument::Build(std::move(*tree), scheme->get());
    ASSERT_TRUE(doc.ok()) << doc.status().ToString();
    const std::string what = GetParam() + " seed " + std::to_string(seed);
    ExpectAgrees(*doc, what + " as built");
    ExpectIndexMatchesFullSort(*doc, what + " as built");

    workload::InsertionPlanner planner(workload::InsertPattern::kRandom,
                                       seed * 31);
    for (int i = 0; i < 40; ++i) {
      auto pos = planner.Next(doc->tree());
      ASSERT_TRUE(pos.ok());
      auto node = doc->InsertNode(pos->parent, NodeKind::kElement, "n", "",
                                  pos->before);
      if (!node.ok()) {
        // Budgeted schemes may hard-exhaust under random insertion.
        ASSERT_EQ(node.status().code(), common::StatusCode::kOverflow);
        break;
      }
      ExpectAgrees(*doc, what + " after insert " + std::to_string(i));
    }
    ExpectIndexMatchesFullSort(*doc, what + " after inserts");
  }
}

TEST_P(OrderCheckOracleTest, AgreesOnAdversarialLabelVectors) {
  auto scheme = labels::CreateScheme(GetParam());
  ASSERT_TRUE(scheme.ok());
  workload::DocumentShape shape;
  shape.target_nodes = 50;
  shape.seed = 9;
  auto tree = workload::GenerateDocument(shape);
  ASSERT_TRUE(tree.ok());
  auto doc = LabeledDocument::Build(tree->Clone(), scheme->get());
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  const std::vector<Label>& good = doc->all_labels();
  const std::vector<NodeId> order = tree->PreorderNodes();
  ASSERT_GE(order.size(), 3u);

  EXPECT_TRUE(ExpectRestoreAgrees(*tree, **scheme, good, "unchanged"));

  common::SplitMix64 rng(GetParam().size() * 1000003 + 7);
  int rejected = 0;
  for (int round = 0; round < 12; ++round) {
    const NodeId a = order[rng.NextBelow(order.size())];
    NodeId b = order[rng.NextBelow(order.size())];
    if (a == b) b = order[(std::find(order.begin(), order.end(), a) -
                           order.begin() + 1) % order.size()];
    std::vector<Label> swapped = good;
    std::swap(swapped[a], swapped[b]);
    rejected += !ExpectRestoreAgrees(*tree, **scheme, swapped,
                                     "swap " + std::to_string(a) + "<->" +
                                         std::to_string(b));
    std::vector<Label> duplicated = good;
    duplicated[b] = good[a];
    rejected += !ExpectRestoreAgrees(*tree, **scheme, duplicated,
                                     "duplicate " + std::to_string(a) +
                                         " onto " + std::to_string(b));
  }
  // Neighbours in preorder: the pairs the one-pass walk compares.
  for (size_t i = 1; i < order.size(); i += 7) {
    std::vector<Label> swapped = good;
    std::swap(swapped[order[i - 1]], swapped[order[i]]);
    rejected += !ExpectRestoreAgrees(*tree, **scheme, swapped,
                                     "adjacent swap at " + std::to_string(i));
    std::vector<Label> duplicated = good;
    duplicated[order[i]] = good[order[i - 1]];
    rejected += !ExpectRestoreAgrees(
        *tree, **scheme, duplicated,
        "adjacent duplicate at " + std::to_string(i));
  }
  // Every duplicate is a distinct-node collision, so most vectors are bad.
  EXPECT_GT(rejected, 12);
}

TEST_P(OrderCheckOracleTest, IndexSortsOnlyWhatIsOutOfOrder) {
  // A label attached verbatim (delta replay does no scheme call) can put
  // preorder out of key order; the index must then equal a full sort.
  auto scheme = labels::CreateScheme(GetParam());
  ASSERT_TRUE(scheme.ok());
  workload::DocumentShape shape;
  shape.target_nodes = 40;
  shape.seed = 5;
  auto tree = workload::GenerateDocument(shape);
  ASSERT_TRUE(tree.ok());
  auto doc = LabeledDocument::Build(std::move(*tree), scheme->get());
  ASSERT_TRUE(doc.ok());
  const NodeId root = doc->tree().root();
  const NodeId last = doc->tree().PreorderNodes().back();
  const Label copied = doc->label(last);
  ASSERT_TRUE(doc->ApplyDeltaInsert(static_cast<NodeId>(
                                        doc->tree().arena_size()),
                                    root, NodeKind::kElement, "x", "",
                                    doc->tree().first_child(root), copied)
                  .ok());
  ExpectAgrees(*doc, GetParam() + " with a verbatim out-of-order label");
  EXPECT_FALSE(doc->VerifyOrderAndUniqueness().ok());
  ExpectIndexMatchesFullSort(*doc, GetParam() + " out of order");
}

std::string SchemeName(const ::testing::TestParamInfo<std::string>& info) {
  std::string name = info.param;
  for (char& c : name) {
    if (c == '-') c = '_';
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, OrderCheckOracleTest,
                         ::testing::ValuesIn(labels::AllSchemeNames()),
                         SchemeName);

// --- The LSDX / Com-D collisions (see lsdx_scheme_test) -----------------

class CollisionTest : public ::testing::TestWithParam<std::string> {};

TEST_P(CollisionTest, DuplicateFromPublishedRulesIsRejectedByBoth) {
  auto scheme = labels::CreateScheme(GetParam());
  ASSERT_TRUE(scheme.ok());
  Tree tree;
  NodeId root = tree.CreateRoot(NodeKind::kElement, "r").value();
  tree.AppendChild(root, NodeKind::kElement, "a").value();
  NodeId b = tree.AppendChild(root, NodeKind::kElement, "b").value();
  auto doc = LabeledDocument::Build(std::move(tree), scheme->get());
  ASSERT_TRUE(doc.ok());
  ExpectAgrees(*doc, "before the collision");
  // Between "b" and "c" -> "bb"; between "b" and "bb" -> "bb" again.
  auto mid = doc->InsertNode(root, NodeKind::kElement, "m", "", b);
  ASSERT_TRUE(mid.ok());
  auto dup = doc->InsertNode(root, NodeKind::kElement, "d", "", *mid);
  ASSERT_TRUE(dup.ok());
  ASSERT_EQ(doc->label(*mid), doc->label(*dup));
  ExpectAgrees(*doc, "after the collision");
  Status integrity = doc->VerifyOrderAndUniqueness();
  EXPECT_FALSE(integrity.ok());
  EXPECT_EQ(integrity.message().rfind("duplicate label", 0), 0u)
      << integrity.message();
  ExpectIndexMatchesFullSort(*doc, "after the collision");
}

TEST_P(CollisionTest, MisorderingFromPublishedRulesIsRejectedByBoth) {
  // Between "b" and "bab" the rule yields "bb", which sorts after "bab".
  // The resulting sibling vector [b, bb, bab], as a restore would see it.
  auto scheme = labels::CreateScheme(GetParam());
  ASSERT_TRUE(scheme.ok());
  const bool compressed = GetParam() == "com-d";
  auto code = [&](std::string letters) {
    return compressed ? labels::ComDCodec::Compress(letters) : letters;
  };
  Tree tree;
  NodeId root = tree.CreateRoot(NodeKind::kElement, "r").value();
  std::vector<Label> labels(4);
  labels[root] = PrefixScheme::MakeLabel({});
  for (const char* letters : {"b", "bb", "bab"}) {
    NodeId child = tree.AppendChild(root, NodeKind::kElement, "c").value();
    labels[child] = PrefixScheme::MakeLabel({code(letters)});
  }
  EXPECT_FALSE(ExpectRestoreAgrees(tree, **scheme, labels, "b,bb,bab"));
  Status restored =
      LabeledDocument::Restore(tree.Clone(), scheme->get(), labels).status();
  EXPECT_EQ(restored.message().rfind("label order diverges", 0), 0u)
      << restored.message();
  // In sorted order the same labels are accepted by both.
  std::swap(labels[2], labels[3]);
  EXPECT_TRUE(ExpectRestoreAgrees(tree, **scheme, labels, "b,bab,bb"));
}

INSTANTIATE_TEST_SUITE_P(LsdxFamily, CollisionTest,
                         ::testing::Values("lsdx", "com-d"), SchemeName);

}  // namespace
}  // namespace xmlup::core
