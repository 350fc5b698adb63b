// Randomised failure-injection sweep: long mixed sequences of structural
// updates (leaf / internal / subtree inserts, subtree deletions, content
// updates) against every scheme, across several seeds, with full
// verification at checkpoints. Complements scheme_property_test's
// pattern-driven batteries with arbitrary interleavings.

#include <gtest/gtest.h>

#include <map>
#include <ostream>
#include <string>

#include "common/rng.h"
#include "core/labeled_document.h"
#include "labels/registry.h"
#include "observability/metrics.h"
#include "store/document_store.h"
#include "store/file.h"
#include "support/label_bytes.h"
#include "workload/document_generator.h"
#include "xml/serializer.h"

namespace xmlup::core {
namespace {

using common::SplitMix64;
using common::Status;
using xml::NodeId;
using xml::NodeKind;
using test_support::LabelBytes;

struct FuzzCase {
  std::string scheme;
  uint64_t seed;
};

std::string CaseName(const ::testing::TestParamInfo<FuzzCase>& info) {
  std::string name = info.param.scheme + "_seed" +
                     std::to_string(info.param.seed);
  for (char& c : name) {
    if (c == '-') c = '_';
  }
  return name;
}

// gtest prints each parameter into its test's listed name; the default
// print dumps the struct's bytes, addresses included, so the ctest names
// would change on every run.
void PrintTo(const FuzzCase& param, std::ostream* os) {
  *os << CaseName(::testing::TestParamInfo<FuzzCase>(param, 0));
}

std::vector<FuzzCase> Cases() {
  std::vector<FuzzCase> cases;
  for (const std::string& scheme : labels::AllSchemeNames()) {
    if (scheme == "lsdx" || scheme == "com-d") continue;  // Non-unique.
    for (uint64_t seed : {101ULL, 202ULL, 303ULL}) {
      cases.push_back({scheme, seed});
    }
  }
  return cases;
}

class FuzzUpdateTest : public ::testing::TestWithParam<FuzzCase> {};

TEST_P(FuzzUpdateTest, LongMixedUpdateSequencesKeepInvariants) {
  const FuzzCase& param = GetParam();
  auto scheme = labels::CreateScheme(param.scheme);
  ASSERT_TRUE(scheme.ok());
  workload::DocumentShape shape;
  shape.target_nodes = 80;
  shape.seed = param.seed;
  auto tree = workload::GenerateDocument(shape);
  ASSERT_TRUE(tree.ok());
  auto doc = LabeledDocument::Build(std::move(*tree), scheme->get());
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();

  SplitMix64 rng(param.seed * 7919);
  auto random_element = [&]() -> NodeId {
    std::vector<NodeId> nodes = doc->tree().PreorderNodes();
    for (int tries = 0; tries < 50; ++tries) {
      NodeId n = nodes[rng.NextBelow(nodes.size())];
      if (doc->tree().kind(n) == NodeKind::kElement) return n;
    }
    return doc->tree().root();
  };

  int performed = 0;
  for (int op = 0; op < 300; ++op) {
    uint64_t kind = rng.NextBelow(10);
    if (kind < 5) {
      // Leaf insert at a random gap.
      NodeId parent = random_element();
      std::vector<NodeId> kids = doc->tree().Children(parent);
      NodeId before = kids.empty()
                          ? xml::kInvalidNode
                          : (rng.NextBool(0.5)
                                 ? kids[rng.NextBelow(kids.size())]
                                 : xml::kInvalidNode);
      auto node = doc->InsertNode(parent, NodeKind::kElement, "f", "",
                                  before);
      if (!node.ok()) {
        ASSERT_EQ(node.status().code(), common::StatusCode::kOverflow)
            << node.status().ToString();
        break;
      }
    } else if (kind < 7) {
      // Subtree insert (internal-node update): graft a small fragment.
      xml::Tree fragment;
      NodeId froot =
          fragment.CreateRoot(NodeKind::kElement, "frag").value();
      fragment.AppendChild(froot, NodeKind::kAttribute, "k", "v").value();
      NodeId mid = fragment.AppendChild(froot, NodeKind::kElement, "m")
                       .value();
      fragment.AppendChild(mid, NodeKind::kText, "", "t").value();
      auto grafted =
          doc->InsertSubtree(random_element(), fragment, froot);
      if (!grafted.ok()) {
        ASSERT_EQ(grafted.status().code(), common::StatusCode::kOverflow);
        break;
      }
    } else if (kind < 9) {
      // Subtree delete (keep the document from collapsing).
      std::vector<NodeId> nodes = doc->tree().PreorderNodes();
      if (nodes.size() > 30) {
        NodeId victim = nodes[1 + rng.NextBelow(nodes.size() - 1)];
        ASSERT_TRUE(doc->RemoveSubtree(victim).ok());
      }
    } else {
      // Content update: labels must be untouched.
      NodeId target = random_element();
      labels::Label before_label = doc->label(target);
      ASSERT_TRUE(doc->UpdateValue(target, "updated").ok());
      ASSERT_EQ(doc->label(target), before_label);
    }
    ++performed;
    if (op % 75 == 74) {
      ASSERT_TRUE(doc->VerifyOrderAndUniqueness().ok())
          << param.scheme << " after op " << op;
    }
  }
  EXPECT_GT(performed, 20) << "battery ended too early";
  Status order = doc->VerifyOrderAndUniqueness();
  EXPECT_TRUE(order.ok()) << order.message();
  Status axes = doc->VerifyAxes(param.seed);
  EXPECT_TRUE(axes.ok()) << axes.message();
}

INSTANTIATE_TEST_SUITE_P(Fuzz, FuzzUpdateTest, ::testing::ValuesIn(Cases()),
                         CaseName);

// --- Journaled-store fuzz -------------------------------------------------
//
// The same kind of mixed battery, but driven through a DocumentStore so
// every update is journalled, then recovered. Runs for ALL registered
// schemes — including lsdx and com-d, whose labels are not unique under
// updates: recovery replay only cross-checks the journalled outcome
// (node id, relabel count, overflow), not uniqueness, so the bit-identical
// label comparison below is the meaningful invariant for them. The
// snapshot stays at generation 1 (auto_checkpoint=false), so replay — not
// snapshot restore — carries every update.
//
// A test-side UpdateObserver records the primitive event sequence
// independently of both the journal writer and the metrics cells; all
// three paths must agree, before and after recovery.

// Counts primitive update events exactly as the journal sees them: one
// OnInsertNode per serialised node of a subtree graft, one OnRemoveSubtree
// per whole-subtree removal.
class EventCounter : public UpdateObserver {
 public:
  void OnInsertNode(const LabeledDocument&, NodeId,
                    const UpdateStats&) override {
    ++inserts;
  }
  void OnRemoveSubtree(const LabeledDocument&, NodeId) override { ++removes; }
  void OnUpdateValue(const LabeledDocument&, NodeId) override {
    ++value_updates;
  }

  uint64_t total() const { return inserts + removes + value_updates; }

  uint64_t inserts = 0;
  uint64_t removes = 0;
  uint64_t value_updates = 0;
};

std::map<std::string, uint64_t> MetricFields() {
  std::map<std::string, uint64_t> out;
  for (const auto& [name, value] : obs::GlobalMetrics().TextFields(false)) {
    out[name] = std::stoull(value);
  }
  return out;
}

uint64_t Field(const std::map<std::string, uint64_t>& fields,
               const std::string& name) {
  auto it = fields.find(name);
  return it == fields.end() ? 0 : it->second;
}

std::string Serialize(const LabeledDocument& doc) {
  auto text = xml::SerializeDocument(doc.tree());
  EXPECT_TRUE(text.ok());
  return *text;
}

std::vector<FuzzCase> JournaledCases() {
  std::vector<FuzzCase> cases;
  for (const std::string& scheme : labels::AllSchemeNames()) {
    for (uint64_t seed : {11ULL, 23ULL}) {
      cases.push_back({scheme, seed});
    }
  }
  return cases;
}

class JournaledFuzzTest : public ::testing::TestWithParam<FuzzCase> {};

TEST_P(JournaledFuzzTest, SubtreeMixesRecoverBitIdenticalWithMetrics) {
  const FuzzCase& param = GetParam();
  workload::DocumentShape shape;
  shape.target_nodes = 40;
  shape.seed = param.seed;
  auto tree = workload::GenerateDocument(shape);
  ASSERT_TRUE(tree.ok());

  store::MemFileSystem fs;
  store::StoreOptions options;
  options.fs = &fs;
  options.sync_each_update = false;
  options.auto_checkpoint = false;
  obs::GlobalMetrics().Reset();

  EventCounter events;  // outlives the store it observes
  auto created =
      store::DocumentStore::Create("db", std::move(*tree), param.scheme,
                                   options);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  store::DocumentStore* st = created->get();
  st->mutable_document()->AddUpdateObserver(&events);

  SplitMix64 rng(param.seed * 6151);
  auto random_element = [&]() -> NodeId {
    std::vector<NodeId> nodes = st->document().tree().PreorderNodes();
    for (int tries = 0; tries < 50; ++tries) {
      NodeId n = nodes[rng.NextBelow(nodes.size())];
      if (st->document().tree().kind(n) == NodeKind::kElement) return n;
    }
    return st->document().tree().root();
  };

  for (int op = 0; op < 150; ++op) {
    uint64_t kind = rng.NextBelow(10);
    if (kind < 4) {
      NodeId parent = random_element();
      std::vector<NodeId> kids = st->document().tree().Children(parent);
      NodeId before = kids.empty()
                          ? xml::kInvalidNode
                          : (rng.NextBool(0.5)
                                 ? kids[rng.NextBelow(kids.size())]
                                 : xml::kInvalidNode);
      auto node = st->InsertNode(parent, NodeKind::kElement, "f", "", before);
      if (!node.ok()) {
        ASSERT_EQ(node.status().code(), common::StatusCode::kOverflow)
            << node.status().ToString();
        break;
      }
    } else if (kind < 7) {
      xml::Tree fragment;
      NodeId froot = fragment.CreateRoot(NodeKind::kElement, "frag").value();
      fragment.AppendChild(froot, NodeKind::kAttribute, "k", "v").value();
      NodeId mid = fragment.AppendChild(froot, NodeKind::kElement, "m").value();
      fragment.AppendChild(mid, NodeKind::kText, "", "t").value();
      auto grafted = st->InsertSubtree(random_element(), fragment, froot);
      if (!grafted.ok()) {
        ASSERT_EQ(grafted.status().code(), common::StatusCode::kOverflow);
        break;
      }
    } else if (kind < 9) {
      std::vector<NodeId> nodes = st->document().tree().PreorderNodes();
      if (nodes.size() > 25) {
        NodeId victim = nodes[1 + rng.NextBelow(nodes.size() - 1)];
        ASSERT_TRUE(st->RemoveSubtree(victim).ok());
      }
    } else {
      ASSERT_TRUE(st->UpdateValue(random_element(), "updated").ok());
    }
  }
  ASSERT_TRUE(st->CommitBatch().ok());
  st->mutable_document()->RemoveUpdateObserver(&events);

  const uint64_t recorded = events.total();
  EXPECT_GT(recorded, 20u) << "battery ended too early";
  // Journal writer, metrics cells, and the reference observer each counted
  // the primitive event stream independently; all three must agree.
  EXPECT_EQ(st->stats().journal_records, recorded);
  const std::string prefix = "doc." + param.scheme + ".";
  if (obs::kMetricsEnabled) {
    auto fields = MetricFields();
    EXPECT_EQ(Field(fields, "store.journal.appends"), recorded);
    EXPECT_EQ(Field(fields, prefix + "inserts"), events.inserts);
    EXPECT_EQ(Field(fields, prefix + "removes"), events.removes);
    EXPECT_EQ(Field(fields, prefix + "value_updates"), events.value_updates);
  }

  std::string xml = Serialize(st->document());
  std::vector<std::string> labels = LabelBytes(st->document());
  created->reset();  // close cleanly; the journal holds every update

  obs::GlobalMetrics().Reset();
  auto reopened = store::DocumentStore::Open("db", options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->stats().recovered_records, recorded);
  EXPECT_EQ(Serialize((*reopened)->document()), xml);
  // Labels must come back bit-identical, not merely order-equivalent:
  // replay retraces the original execution, and schemes are deterministic.
  EXPECT_EQ(LabelBytes((*reopened)->document()), labels);
  if (obs::kMetricsEnabled) {
    // Replay re-drives every journalled event through the labelled
    // document, so the recovery counters and the per-scheme event counters
    // both reconcile with the reference recording.
    auto fields = MetricFields();
    EXPECT_EQ(Field(fields, "store.recovery.opens"), 1u);
    EXPECT_EQ(Field(fields, "store.recovery.replayed_records"), recorded);
    EXPECT_EQ(Field(fields, "store.recovery.truncated_bytes"), 0u);
    EXPECT_EQ(Field(fields, prefix + "inserts"), events.inserts);
    EXPECT_EQ(Field(fields, prefix + "removes"), events.removes);
    EXPECT_EQ(Field(fields, prefix + "value_updates"), events.value_updates);
  }
  if (param.scheme != "lsdx" && param.scheme != "com-d") {
    Status order = (*reopened)->document().VerifyOrderAndUniqueness();
    EXPECT_TRUE(order.ok()) << order.message();
  }
}

INSTANTIATE_TEST_SUITE_P(Fuzz, JournaledFuzzTest,
                         ::testing::ValuesIn(JournaledCases()), CaseName);

}  // namespace
}  // namespace xmlup::core
