// Property tests over every labelling scheme in the registry: after any
// sequence of structural updates, (i) label order equals document order,
// (ii) labels are unique, (iii) the label predicates the scheme claims
// (ancestor/parent/sibling/level) agree with tree ground truth, and
// (iv) schemes graded persistent never rewrite existing labels.

#include <gtest/gtest.h>

#include <ostream>
#include <string>

#include "common/rng.h"
#include "core/labeled_document.h"
#include "labels/registry.h"
#include "workload/document_generator.h"
#include "workload/insertion_workload.h"

namespace xmlup::core {
namespace {

using common::Status;
using labels::CreateScheme;
using labels::LabelingScheme;
using workload::InsertPattern;
using workload::InsertionPlanner;
using xml::NodeId;
using xml::NodeKind;

struct SchemeCase {
  std::string scheme;
  InsertPattern pattern;
};

std::string CaseName(const ::testing::TestParamInfo<SchemeCase>& info) {
  std::string name = info.param.scheme + "_" +
                     std::string(InsertPatternName(info.param.pattern));
  for (char& c : name) {
    if (c == '-') c = '_';
  }
  return name;
}

// gtest prints each parameter into its test's listed name; the default
// print dumps the struct's bytes, addresses included, so the ctest names
// would change on every run.
void PrintTo(const SchemeCase& param, std::ostream* os) {
  *os << CaseName(::testing::TestParamInfo<SchemeCase>(param, 0));
}

std::vector<SchemeCase> AllCases() {
  std::vector<SchemeCase> cases;
  for (const std::string& scheme : labels::AllSchemeNames()) {
    if (scheme == "lsdx" || scheme == "com-d") {
      // LSDX's published rules are non-unique by design (§3.1.2); its
      // regression tests live in lsdx_scheme_test.cc.
      continue;
    }
    for (InsertPattern pattern :
         {InsertPattern::kRandom, InsertPattern::kUniform,
          InsertPattern::kSkewedFixed, InsertPattern::kAppend,
          InsertPattern::kPrepend}) {
      cases.push_back({scheme, pattern});
    }
  }
  return cases;
}

class SchemeUpdateTest : public ::testing::TestWithParam<SchemeCase> {};

TEST_P(SchemeUpdateTest, InvariantsHoldThroughUpdates) {
  const SchemeCase& param = GetParam();
  auto scheme = CreateScheme(param.scheme);
  ASSERT_TRUE(scheme.ok());

  workload::DocumentShape shape;
  shape.target_nodes = 120;
  shape.max_depth = 5;
  shape.max_fanout = 6;
  shape.seed = 97;
  auto tree = workload::GenerateDocument(shape);
  ASSERT_TRUE(tree.ok());
  auto doc = LabeledDocument::Build(std::move(*tree), scheme->get());
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();

  ASSERT_TRUE(doc->VerifyOrderAndUniqueness().ok())
      << doc->VerifyOrderAndUniqueness().message();
  ASSERT_TRUE(doc->VerifyAxes().ok()) << doc->VerifyAxes().message();

  InsertionPlanner planner(param.pattern, 3);
  for (int i = 0; i < 80; ++i) {
    auto pos = planner.Next(doc->tree());
    ASSERT_TRUE(pos.ok());
    auto node = doc->InsertNode(pos->parent, NodeKind::kElement, "n",
                                std::to_string(i), pos->before);
    if (!node.ok()) {
      // Budgeted schemes may hard-exhaust under adversarial patterns.
      ASSERT_EQ(node.status().code(), common::StatusCode::kOverflow)
          << node.status().ToString();
      break;
    }
  }
  Status order = doc->VerifyOrderAndUniqueness();
  EXPECT_TRUE(order.ok()) << order.message();
  Status axes = doc->VerifyAxes();
  EXPECT_TRUE(axes.ok()) << axes.message();
}

TEST_P(SchemeUpdateTest, InvariantsHoldThroughDeletionsAndReinsertion) {
  const SchemeCase& param = GetParam();
  auto scheme = CreateScheme(param.scheme);
  ASSERT_TRUE(scheme.ok());

  workload::DocumentShape shape;
  shape.target_nodes = 100;
  shape.seed = 53;
  auto tree = workload::GenerateDocument(shape);
  ASSERT_TRUE(tree.ok());
  auto doc = LabeledDocument::Build(std::move(*tree), scheme->get());
  ASSERT_TRUE(doc.ok());

  common::SplitMix64 rng(17);
  InsertionPlanner planner(param.pattern, 5);
  for (int round = 0; round < 30; ++round) {
    // Delete a random non-root subtree.
    std::vector<NodeId> nodes = doc->tree().PreorderNodes();
    if (nodes.size() > 20) {
      NodeId victim = nodes[1 + rng.NextBelow(nodes.size() - 1)];
      ASSERT_TRUE(doc->RemoveSubtree(victim).ok());
    }
    // Insert a couple of nodes.
    for (int i = 0; i < 3; ++i) {
      auto pos = planner.Next(doc->tree());
      ASSERT_TRUE(pos.ok());
      auto node = doc->InsertNode(pos->parent, NodeKind::kElement, "n", "",
                                  pos->before);
      if (!node.ok()) {
        ASSERT_EQ(node.status().code(), common::StatusCode::kOverflow);
        break;
      }
    }
  }
  Status order = doc->VerifyOrderAndUniqueness();
  EXPECT_TRUE(order.ok()) << order.message();
  Status axes = doc->VerifyAxes();
  EXPECT_TRUE(axes.ok()) << axes.message();
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, SchemeUpdateTest,
                         ::testing::ValuesIn(AllCases()), CaseName);

// --- Non-parameterised cross-scheme checks -------------------------------

TEST(SchemeRegistryTest, AllNamesConstruct) {
  for (const std::string& name : labels::AllSchemeNames()) {
    auto scheme = CreateScheme(name);
    ASSERT_TRUE(scheme.ok()) << name;
    EXPECT_EQ((*scheme)->traits().name, name);
    EXPECT_FALSE((*scheme)->traits().display_name.empty());
    EXPECT_FALSE((*scheme)->traits().citation.empty());
  }
}

TEST(SchemeRegistryTest, UnknownNameIsNotFound) {
  auto scheme = CreateScheme("no-such-scheme");
  ASSERT_FALSE(scheme.ok());
  EXPECT_EQ(scheme.status().code(), common::StatusCode::kNotFound);
}

TEST(SchemeRegistryTest, PaperMatrixHasTwelveRows) {
  EXPECT_EQ(labels::PaperMatrixSchemeNames().size(), 12u);
  for (const std::string& name : labels::PaperMatrixSchemeNames()) {
    auto scheme = CreateScheme(name);
    ASSERT_TRUE(scheme.ok());
    EXPECT_TRUE((*scheme)->traits().in_paper_matrix) << name;
  }
}

TEST(SchemeLabelTest, SampleDocumentLabelsAreDeterministic) {
  for (const std::string& name : labels::AllSchemeNames()) {
    auto scheme = CreateScheme(name);
    ASSERT_TRUE(scheme.ok());
    xml::Tree t1 = workload::SampleBookDocument();
    xml::Tree t2 = workload::SampleBookDocument();
    std::vector<labels::Label> l1, l2;
    ASSERT_TRUE((*scheme)->LabelTree(t1, &l1).ok()) << name;
    ASSERT_TRUE((*scheme)->LabelTree(t2, &l2).ok()) << name;
    EXPECT_EQ(l1.size(), l2.size());
    for (size_t i = 0; i < l1.size(); ++i) {
      EXPECT_EQ(l1[i], l2[i]) << name << " node " << i;
    }
  }
}

TEST(SchemeLabelTest, StorageBitsPositiveForAllLiveLabels) {
  for (const std::string& name : labels::AllSchemeNames()) {
    auto scheme = CreateScheme(name);
    ASSERT_TRUE(scheme.ok());
    xml::Tree tree = workload::SampleBookDocument();
    auto doc = LabeledDocument::Build(std::move(tree), scheme->get());
    ASSERT_TRUE(doc.ok()) << name;
    EXPECT_GT(doc->TotalLabelBits(), 0u) << name;
    EXPECT_GT(doc->AverageLabelBits(), 0.0) << name;
  }
}

TEST(SchemeLabelTest, RenderedLabelsAreNonEmpty) {
  for (const std::string& name : labels::AllSchemeNames()) {
    auto scheme = CreateScheme(name);
    ASSERT_TRUE(scheme.ok());
    xml::Tree tree = workload::SampleBookDocument();
    auto doc = LabeledDocument::Build(std::move(tree), scheme->get());
    ASSERT_TRUE(doc.ok());
    for (NodeId n : doc->tree().PreorderNodes()) {
      EXPECT_FALSE((*scheme)->Render(doc->label(n)).empty())
          << name << " node " << n;
    }
  }
}

}  // namespace
}  // namespace xmlup::core
