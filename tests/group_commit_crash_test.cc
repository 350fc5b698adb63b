// Acknowledged-implies-durable under group commit: a batch is
// acknowledged only after its single CommitBatch() fsync, so a crash at
// ANY byte offset of the journal — including every point inside the
// append/fsync window of a later, unacknowledged batch — must recover a
// store that (a) contains every acknowledged batch in full and (b) equals
// the reference replay of exactly the surviving record prefix. Runs for a
// prefix-order scheme (dewey) and a global-order scheme (containment).

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/snapshot.h"
#include "store/document_store.h"
#include "store/file.h"
#include "store/journal.h"
#include "updates/update.h"
#include "xml/parser.h"
#include "xml/serializer.h"

namespace xmlup {
namespace {

using updates::ApplyUpdate;
using updates::UpdateRequest;
using core::LabeledDocument;
using store::DocumentStore;
using store::MemFileSystem;
using store::StoreOptions;
using xml::NodeId;

constexpr char kBaseDoc[] =
    "<library><shelf id=\"a\"><book><title>Iliad</title></book></shelf>"
    "<shelf id=\"b\"><book><title>Aeneid</title></book></shelf></library>";

UpdateRequest Insert(UpdateRequest::Op op, std::string xpath,
                     xml::NodeKind kind, std::string name,
                     std::string value = "") {
  UpdateRequest request;
  request.op = op;
  request.xpath = std::move(xpath);
  request.kind = kind;
  request.name = std::move(name);
  request.value = std::move(value);
  return request;
}

// The two batches of the scripted session. Batch 1 is committed
// (acknowledged); batch 2 is applied but crashes before its commit.
std::vector<UpdateRequest> BatchOne() {
  std::vector<UpdateRequest> batch;
  batch.push_back(Insert(UpdateRequest::Op::kInsertChild, ".",
                         xml::NodeKind::kElement, "shelf"));
  batch.push_back(Insert(UpdateRequest::Op::kInsertBefore, "/shelf[1]",
                         xml::NodeKind::kComment, "", "front matter"));
  batch.push_back(Insert(UpdateRequest::Op::kInsertChild,
                         "//shelf[@id='a']", xml::NodeKind::kElement,
                         "book"));
  UpdateRequest up;
  up.op = UpdateRequest::Op::kSetValue;
  up.xpath = "//title/text()";
  up.value = "Iliad (rev)";
  batch.push_back(up);
  return batch;
}

std::vector<UpdateRequest> BatchTwo() {
  std::vector<UpdateRequest> batch;
  UpdateRequest del;
  del.op = UpdateRequest::Op::kDelete;
  del.xpath = "//shelf[@id='b']";
  batch.push_back(del);
  batch.push_back(Insert(UpdateRequest::Op::kInsertChild, ".",
                         xml::NodeKind::kElement, "coda", ""));
  batch.push_back(Insert(UpdateRequest::Op::kInsertAfter, "/shelf[1]",
                         xml::NodeKind::kElement, "annex"));
  return batch;
}

// Primitive updates recorded through the observer hook — the reference
// replay never touches the journal code path under test.
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

std::vector<std::string> LabelBytes(const LabeledDocument& doc) {
  std::vector<std::string> out;
  for (NodeId n : doc.tree().PreorderNodes()) {
    out.push_back(doc.label(n).bytes());
  }
  return out;
}

std::string Serialize(const LabeledDocument& doc) {
  auto text = xml::SerializeDocument(doc.tree());
  EXPECT_TRUE(text.ok());
  return *text;
}

struct ReferenceState {
  std::vector<std::string> labels;
  std::string xml;
};

struct GroupedSession {
  std::string snapshot;
  std::string journal;        // full journal: batch 1 + batch 2 records
  uint64_t acked_bytes = 0;   // journal size when batch 1 was committed
  size_t acked_records = 0;   // records covered by that commit
  std::vector<RecordedOp> ops;
};

GroupedSession RunGroupedSession(const std::string& scheme) {
  GroupedSession session;
  MemFileSystem fs;
  StoreOptions options;
  options.fs = &fs;
  options.sync_each_update = false;  // group commit owns the barrier
  options.auto_checkpoint = false;
  auto st = DocumentStore::Create("db", [] {
        auto tree = xml::ParseDocument(kBaseDoc);
        EXPECT_TRUE(tree.ok());
        return std::move(*tree);
      }(),
      scheme, options);
  EXPECT_TRUE(st.ok()) << scheme << ": " << st.status().ToString();
  if (!st.ok()) return session;

  Recorder recorder;
  (*st)->mutable_document()->AddUpdateObserver(&recorder);

  for (const UpdateRequest& request : BatchOne()) {
    EXPECT_TRUE(ApplyUpdate(st->get(), request, nullptr).ok());
  }
  EXPECT_TRUE((*st)->CommitBatch().ok());  // batch 1 acknowledged here
  session.acked_bytes = fs.FileSize("db/" + store::JournalFileName(1));
  session.acked_records = (*st)->stats().journal_records;
  EXPECT_EQ((*st)->stats().group_commits, 1u);
  EXPECT_EQ((*st)->stats().group_committed_records, session.acked_records);

  for (const UpdateRequest& request : BatchTwo()) {
    EXPECT_TRUE(ApplyUpdate(st->get(), request, nullptr).ok());
  }
  // Crash happens before batch 2's commit: no fsync, no acknowledgement.

  (*st)->mutable_document()->RemoveUpdateObserver(&recorder);
  session.snapshot = *fs.GetFile("db/" + store::SnapshotFileName(1));
  session.journal = *fs.GetFile("db/" + store::JournalFileName(1));
  session.ops = recorder.ops;
  EXPECT_GT(session.journal.size(), session.acked_bytes);
  EXPECT_GT(session.acked_records, 0u);
  return session;
}

std::vector<ReferenceState> BuildReferenceStates(
    const GroupedSession& session) {
  std::vector<ReferenceState> states;
  std::unique_ptr<labels::LabelingScheme> scheme;
  auto doc = core::LoadSnapshot(session.snapshot, &scheme);
  EXPECT_TRUE(doc.ok()) << doc.status().ToString();
  states.push_back({LabelBytes(*doc), Serialize(*doc)});
  for (const RecordedOp& op : session.ops) {
    switch (op.kind) {
      case RecordedOp::Kind::kInsert: {
        auto node = doc->InsertNode(op.parent, op.node_kind, op.name,
                                    op.value, op.before);
        EXPECT_TRUE(node.ok()) << node.status().ToString();
        EXPECT_EQ(*node, op.node);
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

void CheckCrashAtOffset(const std::string& scheme,
                        const GroupedSession& session,
                        const std::vector<ReferenceState>& states,
                        size_t cut) {
  SCOPED_TRACE(scheme + " crash at byte " + std::to_string(cut));
  MemFileSystem fs;
  fs.SetFile("db/" + std::string(store::kCurrentFileName), "1\n");
  fs.SetFile("db/" + store::SnapshotFileName(1), session.snapshot);
  fs.SetFile("db/" + store::JournalFileName(1),
             session.journal.substr(0, cut));
  StoreOptions options;
  options.fs = &fs;
  options.auto_checkpoint = false;
  auto st = DocumentStore::Open("db", options);
  ASSERT_TRUE(st.ok()) << st.status().ToString();
  const size_t k = (*st)->stats().recovered_records;
  ASSERT_LT(k, states.size());

  // The acknowledged batch is all-or-nothing durable: any crash after the
  // commit point keeps at least its records.
  if (cut >= session.acked_bytes) {
    EXPECT_GE(k, session.acked_records)
        << "acknowledged batch lost by a crash after its commit";
  }
  const LabeledDocument& doc = (*st)->document();
  EXPECT_EQ(LabelBytes(doc), states[k].labels)
      << "recovered labels differ from reference replay of " << k
      << " updates";
  EXPECT_EQ(Serialize(doc), states[k].xml);
  ASSERT_TRUE(doc.VerifyOrderAndUniqueness().ok());
}

class GroupCommitCrashTest : public ::testing::TestWithParam<std::string> {};

TEST_P(GroupCommitCrashTest, EveryByteOffsetKeepsTheAcknowledgedBatch) {
  const std::string scheme = GetParam();
  GroupedSession session = RunGroupedSession(scheme);
  ASSERT_FALSE(session.ops.empty());
  std::vector<ReferenceState> states = BuildReferenceStates(session);
  ASSERT_EQ(states.size(), session.ops.size() + 1);
  for (size_t cut = 0; cut <= session.journal.size(); ++cut) {
    CheckCrashAtOffset(scheme, session, states, cut);
  }
}

// A failed group-commit fsync must not acknowledge: the durable journal
// is capped below the batch's records, CommitBatch reports the failure,
// and recovery comes back without the batch — never with a torn piece of
// it counted as acknowledged.
TEST_P(GroupCommitCrashTest, FailedCommitSyncIsNotAcknowledged) {
  const std::string scheme = GetParam();
  MemFileSystem fs;
  StoreOptions options;
  options.fs = &fs;
  options.sync_each_update = false;
  options.auto_checkpoint = false;
  auto st = DocumentStore::Create("db", [] {
        auto tree = xml::ParseDocument(kBaseDoc);
        EXPECT_TRUE(tree.ok());
        return std::move(*tree);
      }(),
      scheme, options);
  ASSERT_TRUE(st.ok()) << st.status().ToString();

  for (const UpdateRequest& request : BatchOne()) {
    ASSERT_TRUE(ApplyUpdate(st->get(), request, nullptr).ok());
  }
  ASSERT_TRUE((*st)->CommitBatch().ok());
  const std::vector<std::string> acked_labels = LabelBytes((*st)->document());
  const std::string acked_xml = Serialize((*st)->document());
  const uint64_t acked_bytes = fs.FileSize("db/" + store::JournalFileName(1));
  const uint64_t acked_records = (*st)->stats().journal_records;

  // Batch 2: the page cache drops everything past the acked prefix and
  // the commit fsync fails — exactly a power loss at the worst moment.
  fs.SetWriteLimit("db/" + store::JournalFileName(1), acked_bytes);
  for (const UpdateRequest& request : BatchTwo()) {
    ASSERT_TRUE(ApplyUpdate(st->get(), request, nullptr).ok());
  }
  fs.FailNextSyncs(1);
  EXPECT_FALSE((*st)->CommitBatch().ok());

  st->reset();
  fs.ClearWriteLimit("db/" + store::JournalFileName(1));
  auto reopened = DocumentStore::Open("db", options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->stats().recovered_records, acked_records);
  EXPECT_EQ(LabelBytes((*reopened)->document()), acked_labels);
  EXPECT_EQ(Serialize((*reopened)->document()), acked_xml);
}

// "dewey" is the prefix-order representative; "xpath-accelerator" is the
// containment (pre/post interval) representative.
INSTANTIATE_TEST_SUITE_P(Representatives, GroupCommitCrashTest,
                         ::testing::Values("dewey", "xpath-accelerator"),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

}  // namespace
}  // namespace xmlup
