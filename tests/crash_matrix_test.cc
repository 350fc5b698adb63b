// Crash-consistency matrix: kill the journal via the fault-injection file
// system at every record boundary and mid-record (and, for representative
// schemes, at every single byte offset), then assert that recovery yields
// exactly the durable prefix of the applied updates — no torn record ever
// applied — with labels bit-identical to a reference replay that never
// touches the journal code path. Runs for every scheme in the registry.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/snapshot.h"
#include "labels/registry.h"
#include "store/document_store.h"
#include "store/file.h"
#include "store/journal.h"
#include "support/label_bytes.h"
#include "xml/parser.h"
#include "xml/serializer.h"

namespace xmlup {
namespace {

using core::LabeledDocument;
using store::DocumentStore;
using store::MemFileSystem;
using store::StoreOptions;
using xml::NodeId;
using test_support::LabelBytes;

constexpr char kBaseDoc[] =
    "<library><shelf id=\"a\"><book><title>Iliad</title></book>"
    "<book><title>Odyssey</title></book></shelf>"
    "<shelf id=\"b\"><book><title>Aeneid</title></book></shelf></library>";

// One primitive update, recorded from the live session through the
// document's observer hook — deliberately NOT by decoding the journal, so
// the reference replay is independent of the code under test.
struct RecordedOp {
  enum class Kind { kInsert, kRemove, kSetValue };
  Kind kind = Kind::kInsert;
  NodeId node = xml::kInvalidNode;
  NodeId parent = xml::kInvalidNode;
  NodeId before = xml::kInvalidNode;
  xml::NodeKind node_kind = xml::NodeKind::kElement;
  std::string name;
  std::string value;
};

class Recorder : public core::UpdateObserver {
 public:
  void OnInsertNode(const LabeledDocument& doc, NodeId node,
                    const core::UpdateStats&) override {
    RecordedOp op;
    op.kind = RecordedOp::Kind::kInsert;
    op.node = node;
    op.parent = doc.tree().parent(node);
    op.before = doc.tree().next_sibling(node);
    op.node_kind = doc.tree().kind(node);
    op.name = doc.tree().name(node);
    op.value = doc.tree().value(node);
    ops.push_back(std::move(op));
  }
  void OnRemoveSubtree(const LabeledDocument&, NodeId node) override {
    RecordedOp op;
    op.kind = RecordedOp::Kind::kRemove;
    op.node = node;
    ops.push_back(std::move(op));
  }
  void OnUpdateValue(const LabeledDocument& doc, NodeId node) override {
    RecordedOp op;
    op.kind = RecordedOp::Kind::kSetValue;
    op.node = node;
    op.value = doc.tree().value(node);
    ops.push_back(std::move(op));
  }

  std::vector<RecordedOp> ops;
};

std::string Serialize(const LabeledDocument& doc) {
  auto text = xml::SerializeDocument(doc.tree());
  EXPECT_TRUE(text.ok());
  return *text;
}

// Document state after a prefix of the update sequence.
struct ReferenceState {
  std::vector<std::string> labels;
  std::string xml;
};

NodeId FindByName(const xml::Tree& tree, std::string_view name) {
  for (NodeId n : tree.PreorderNodes()) {
    if (tree.name(n) == name) return n;
  }
  return xml::kInvalidNode;
}

// The scripted update session: a mix of head/middle/tail leaf inserts
// (head inserts force relabelling in non-persistent schemes), a subtree
// insertion, content updates and a subtree deletion.
void RunSession(DocumentStore* st) {
  const xml::Tree& tree = st->document().tree();
  NodeId root = tree.root();
  NodeId shelf_a = tree.first_child(root);

  ASSERT_TRUE(
      st->InsertNode(root, xml::NodeKind::kElement, "shelf", "").ok());
  // Head insert: before shelf a.
  ASSERT_TRUE(st->InsertNode(root, xml::NodeKind::kComment, "",
                             "front matter", shelf_a)
                  .ok());
  // Middle insert: a book between the two existing ones on shelf a.
  NodeId second_book = tree.next_sibling(
      tree.first_child(shelf_a) == xml::kInvalidNode
          ? xml::kInvalidNode
          : FindByName(tree, "book"));
  ASSERT_NE(second_book, xml::kInvalidNode);
  auto mid = st->InsertNode(shelf_a, xml::NodeKind::kElement, "book", "",
                            second_book);
  ASSERT_TRUE(mid.ok());
  ASSERT_TRUE(
      st->InsertNode(*mid, xml::NodeKind::kElement, "title", "").ok());

  // Subtree insertion: serialised as one record per node.
  auto fragment = xml::ParseDocument(
      "<appendix><errata>three typos</errata><index/></appendix>");
  ASSERT_TRUE(fragment.ok());
  ASSERT_TRUE(
      st->InsertSubtree(root, *fragment, fragment->root()).ok());

  // Content update on the deepest text node.
  NodeId text = xml::kInvalidNode;
  for (NodeId n : tree.PreorderNodes()) {
    if (tree.kind(n) == xml::NodeKind::kText) text = n;
  }
  ASSERT_NE(text, xml::kInvalidNode);
  ASSERT_TRUE(st->UpdateValue(text, "now four typos").ok());

  // Delete a whole shelf, then keep inserting after the deletion.
  NodeId shelf_b = FindByName(tree, "shelf") == xml::kInvalidNode
                       ? xml::kInvalidNode
                       : tree.next_sibling(tree.next_sibling(
                             tree.first_child(root)));
  ASSERT_NE(shelf_b, xml::kInvalidNode);
  ASSERT_TRUE(st->RemoveSubtree(shelf_b).ok());
  ASSERT_TRUE(
      st->InsertNode(root, xml::NodeKind::kElement, "coda", "").ok());
}

struct SessionArtifacts {
  std::string snapshot;             // snapshot image the journal hangs off
  std::string journal;              // full, uncrashed journal bytes
  std::vector<size_t> frame_ends;   // file offset after each frame
  std::vector<RecordedOp> ops;      // primitive updates, session order
};

SessionArtifacts RunScriptedSession(const std::string& scheme) {
  SessionArtifacts artifacts;
  MemFileSystem fs;
  StoreOptions options;
  options.fs = &fs;
  options.auto_checkpoint = false;  // keep one journal for the whole run
  auto st = DocumentStore::Create("db", [] {
        auto tree = xml::ParseDocument(kBaseDoc);
        EXPECT_TRUE(tree.ok());
        return std::move(*tree);
      }(),
      scheme, options);
  EXPECT_TRUE(st.ok()) << scheme << ": " << st.status().ToString();
  if (!st.ok()) return artifacts;

  Recorder recorder;
  (*st)->mutable_document()->AddUpdateObserver(&recorder);
  RunSession(st->get());
  (*st)->mutable_document()->RemoveUpdateObserver(&recorder);

  artifacts.snapshot = *fs.GetFile("db/" + store::SnapshotFileName(1));
  artifacts.journal = *fs.GetFile("db/" + store::JournalFileName(1));
  artifacts.ops = recorder.ops;

  // Frame boundaries, walked independently with the documented framing.
  size_t pos = store::kJournalHeaderSize;
  const std::string& j = artifacts.journal;
  while (pos + store::kFrameHeaderSize <= j.size()) {
    uint32_t length = static_cast<uint8_t>(j[pos]) |
                      static_cast<uint8_t>(j[pos + 1]) << 8 |
                      static_cast<uint8_t>(j[pos + 2]) << 16 |
                      static_cast<uint8_t>(j[pos + 3]) << 24;
    pos += store::kFrameHeaderSize + length;
    artifacts.frame_ends.push_back(pos);
  }
  EXPECT_EQ(pos, j.size()) << scheme << ": frame walk out of step";
  EXPECT_EQ(artifacts.frame_ends.size(), artifacts.ops.size())
      << scheme << ": one frame per primitive update";
  return artifacts;
}

// Reference replay: starting from the snapshot, apply the first k ops for
// every k through the plain LabeledDocument API (never the journal), and
// capture labels + XML after each step.
std::vector<ReferenceState> BuildReferenceStates(
    const SessionArtifacts& artifacts) {
  std::vector<ReferenceState> states;
  std::unique_ptr<labels::LabelingScheme> scheme;
  auto doc = core::LoadSnapshot(artifacts.snapshot, &scheme);
  EXPECT_TRUE(doc.ok()) << doc.status().ToString();
  states.push_back({LabelBytes(*doc), Serialize(*doc)});
  for (const RecordedOp& op : artifacts.ops) {
    switch (op.kind) {
      case RecordedOp::Kind::kInsert: {
        auto node = doc->InsertNode(op.parent, op.node_kind, op.name,
                                    op.value, op.before);
        EXPECT_TRUE(node.ok()) << node.status().ToString();
        EXPECT_EQ(*node, op.node) << "reference replay id divergence";
        break;
      }
      case RecordedOp::Kind::kRemove:
        EXPECT_TRUE(doc->RemoveSubtree(op.node).ok());
        break;
      case RecordedOp::Kind::kSetValue:
        EXPECT_TRUE(doc->UpdateValue(op.node, op.value).ok());
        break;
    }
    states.push_back({LabelBytes(*doc), Serialize(*doc)});
  }
  return states;
}

// Recover from a journal cut (or corrupted) image and check the result is
// exactly reference state k for the surviving frame count k.
void CheckRecovery(const std::string& scheme,
                   const SessionArtifacts& artifacts,
                   const std::vector<ReferenceState>& states,
                   std::string journal_image, size_t context_offset) {
  MemFileSystem fs;
  fs.SetFile("db/" + std::string(store::kCurrentFileName), "1\n");
  fs.SetFile("db/" + store::SnapshotFileName(1), artifacts.snapshot);
  fs.SetFile("db/" + store::JournalFileName(1), std::move(journal_image));
  StoreOptions options;
  options.fs = &fs;
  options.auto_checkpoint = false;
  auto st = DocumentStore::Open("db", options);
  ASSERT_TRUE(st.ok()) << scheme << " @" << context_offset << ": "
                       << st.status().ToString();
  size_t k = (*st)->stats().recovered_records;
  ASSERT_LT(k, states.size());
  const LabeledDocument& doc = (*st)->document();
  EXPECT_EQ(LabelBytes(doc), states[k].labels)
      << scheme << " @" << context_offset
      << ": recovered labels differ from reference replay of " << k
      << " updates";
  EXPECT_EQ(Serialize(doc), states[k].xml) << scheme << " @"
                                           << context_offset;
  ASSERT_TRUE(doc.VerifyOrderAndUniqueness().ok())
      << scheme << " @" << context_offset;
}

size_t ExpectedFrames(const SessionArtifacts& artifacts, size_t cut) {
  size_t k = 0;
  for (size_t end : artifacts.frame_ends) {
    if (end <= cut) ++k;
  }
  return k;
}

void CheckCrashAtOffset(const std::string& scheme,
                        const SessionArtifacts& artifacts,
                        const std::vector<ReferenceState>& states,
                        size_t cut) {
  // A crash at byte offset `cut` makes exactly the frames that end at or
  // before it durable; recovery must apply those and nothing more.
  MemFileSystem probe;
  std::string image = artifacts.journal.substr(0, cut);
  size_t expected = ExpectedFrames(artifacts, cut);
  {
    SCOPED_TRACE(scheme + " crash at byte " + std::to_string(cut));
    MemFileSystem fs;
    fs.SetFile("db/" + std::string(store::kCurrentFileName), "1\n");
    fs.SetFile("db/" + store::SnapshotFileName(1), artifacts.snapshot);
    fs.SetFile("db/" + store::JournalFileName(1), image);
    StoreOptions options;
    options.fs = &fs;
    auto st = DocumentStore::Open("db", options);
    ASSERT_TRUE(st.ok()) << st.status().ToString();
    ASSERT_EQ((*st)->stats().recovered_records, expected)
        << "torn record applied or durable record lost";
  }
  CheckRecovery(scheme, artifacts, states, std::move(image), cut);
}

class CrashMatrixTest : public ::testing::TestWithParam<std::string> {};

TEST_P(CrashMatrixTest, RecoveryYieldsExactPrefixAtEveryBoundary) {
  const std::string scheme = GetParam();
  SessionArtifacts artifacts = RunScriptedSession(scheme);
  ASSERT_FALSE(artifacts.ops.empty());
  std::vector<ReferenceState> states = BuildReferenceStates(artifacts);
  ASSERT_EQ(states.size(), artifacts.ops.size() + 1);

  // Crash offsets: before the first frame, at every frame boundary, one
  // byte either side of each boundary, and mid-record.
  std::vector<size_t> cuts = {0, store::kJournalHeaderSize / 2,
                              store::kJournalHeaderSize};
  size_t start = store::kJournalHeaderSize;
  for (size_t end : artifacts.frame_ends) {
    cuts.push_back(start + (end - start) / 2);  // mid-record
    if (end > 0) cuts.push_back(end - 1);       // one byte short
    cuts.push_back(end);                        // exactly at the boundary
    if (end < artifacts.journal.size()) cuts.push_back(end + 1);
    start = end;
  }
  for (size_t cut : cuts) {
    CheckCrashAtOffset(scheme, artifacts, states, cut);
  }
}

TEST_P(CrashMatrixTest, BitflipInAnyRecordTruncatesThere) {
  const std::string scheme = GetParam();
  SessionArtifacts artifacts = RunScriptedSession(scheme);
  ASSERT_FALSE(artifacts.ops.empty());
  std::vector<ReferenceState> states = BuildReferenceStates(artifacts);

  size_t start = store::kJournalHeaderSize;
  for (size_t i = 0; i < artifacts.frame_ends.size(); ++i) {
    size_t end = artifacts.frame_ends[i];
    // Flip one bit in the middle of frame i: recovery must keep exactly
    // the i preceding records.
    size_t offset = start + (end - start) / 2;
    std::string image = artifacts.journal;
    image[offset] = static_cast<char>(
        static_cast<uint8_t>(image[offset]) ^ 0x04);
    {
      SCOPED_TRACE(scheme + " bitflip in frame " + std::to_string(i));
      MemFileSystem fs;
      fs.SetFile("db/" + std::string(store::kCurrentFileName), "1\n");
      fs.SetFile("db/" + store::SnapshotFileName(1), artifacts.snapshot);
      fs.SetFile("db/" + store::JournalFileName(1), image);
      StoreOptions options;
      options.fs = &fs;
      auto st = DocumentStore::Open("db", options);
      ASSERT_TRUE(st.ok()) << st.status().ToString();
      ASSERT_EQ((*st)->stats().recovered_records, i)
          << "corrupt record applied";
    }
    CheckRecovery(scheme, artifacts, states, std::move(image), offset);
    start = end;
  }
}

// A recovered store must keep working: append more updates after a
// mid-record crash, restart again, and still agree with a live session.
TEST_P(CrashMatrixTest, StoreStaysWritableAfterRecovery)
{
  const std::string scheme = GetParam();
  SessionArtifacts artifacts = RunScriptedSession(scheme);
  ASSERT_FALSE(artifacts.ops.empty());
  size_t cut = artifacts.frame_ends[artifacts.frame_ends.size() / 2] + 3;

  MemFileSystem fs;
  fs.SetFile("db/" + std::string(store::kCurrentFileName), "1\n");
  fs.SetFile("db/" + store::SnapshotFileName(1), artifacts.snapshot);
  fs.SetFile("db/" + store::JournalFileName(1),
             artifacts.journal.substr(0, cut));
  StoreOptions options;
  options.fs = &fs;
  std::string xml;
  std::vector<std::string> labels;
  {
    auto st = DocumentStore::Open("db", options);
    ASSERT_TRUE(st.ok()) << st.status().ToString();
    NodeId root = (*st)->document().tree().root();
    ASSERT_TRUE((*st)
                    ->InsertNode(root, xml::NodeKind::kElement,
                                 "post_crash", "")
                    .ok());
    xml = Serialize((*st)->document());
    labels = LabelBytes((*st)->document());
  }
  auto st = DocumentStore::Open("db", options);
  ASSERT_TRUE(st.ok()) << st.status().ToString();
  EXPECT_EQ(Serialize((*st)->document()), xml);
  EXPECT_EQ(LabelBytes((*st)->document()), labels);
  ASSERT_TRUE((*st)->document().VerifyOrderAndUniqueness().ok());
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, CrashMatrixTest,
    ::testing::ValuesIn(labels::AllSchemeNames()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

// Exhaustive sweep for representative global- and prefix-order schemes:
// a crash at EVERY byte offset of the journal recovers a valid prefix.
class CrashEveryByteTest : public ::testing::TestWithParam<std::string> {};

TEST_P(CrashEveryByteTest, EveryByteOffsetRecoversAValidPrefix) {
  const std::string scheme = GetParam();
  SessionArtifacts artifacts = RunScriptedSession(scheme);
  ASSERT_FALSE(artifacts.ops.empty());
  std::vector<ReferenceState> states = BuildReferenceStates(artifacts);
  for (size_t cut = 0; cut <= artifacts.journal.size(); ++cut) {
    CheckCrashAtOffset(scheme, artifacts, states, cut);
  }
}

INSTANTIATE_TEST_SUITE_P(Representatives, CrashEveryByteTest,
                         ::testing::Values("xpath-accelerator", "dewey"),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

}  // namespace
}  // namespace xmlup
