// DocumentStore behaviour: create/open round-trips, journalled edits
// surviving restart, checkpoint rotation, fsync-failure poisoning, and
// the observer-driven journalling of direct document mutations.

#include "store/document_store.h"

#include <gtest/gtest.h>

#include <filesystem>

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

constexpr char kDoc[] =
    "<library><shelf id=\"a\"><book><title>Iliad</title></book></shelf>"
    "</library>";

xml::Tree ParseOrDie(std::string_view text) {
  auto tree = xml::ParseDocument(text);
  EXPECT_TRUE(tree.ok()) << tree.status().ToString();
  return std::move(*tree);
}

std::string Serialize(const LabeledDocument& doc) {
  auto text = xml::SerializeDocument(doc.tree());
  EXPECT_TRUE(text.ok());
  return *text;
}

TEST(DocumentStoreTest, CreateThenOpenRestoresDocumentAndLabels) {
  MemFileSystem fs;
  StoreOptions options;
  options.fs = &fs;
  auto created =
      DocumentStore::Create("db", ParseOrDie(kDoc), "ordpath", options);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  std::string xml = Serialize((*created)->document());
  std::vector<std::string> labels = LabelBytes((*created)->document());

  auto opened = DocumentStore::Open("db", options);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_EQ(Serialize((*opened)->document()), xml);
  EXPECT_EQ(LabelBytes((*opened)->document()), labels);
  EXPECT_EQ((*opened)->stats().recovered_records, 0u);
}

TEST(DocumentStoreTest, CreateRefusesExistingStore) {
  MemFileSystem fs;
  StoreOptions options;
  options.fs = &fs;
  ASSERT_TRUE(
      DocumentStore::Create("db", ParseOrDie(kDoc), "ordpath", options).ok());
  EXPECT_FALSE(
      DocumentStore::Create("db", ParseOrDie(kDoc), "ordpath", options).ok());
}

TEST(DocumentStoreTest, EditsSurviveRestart) {
  MemFileSystem fs;
  StoreOptions options;
  options.fs = &fs;
  std::string xml, value_xml;
  std::vector<std::string> labels;
  {
    auto st = DocumentStore::Create("db", ParseOrDie(kDoc), "dewey", options);
    ASSERT_TRUE(st.ok());
    NodeId root = (*st)->document().tree().root();
    auto shelf = (*st)->InsertNode(root, xml::NodeKind::kElement, "shelf", "");
    ASSERT_TRUE(shelf.ok()) << shelf.status().ToString();
    auto book =
        (*st)->InsertNode(*shelf, xml::NodeKind::kElement, "book", "");
    ASSERT_TRUE(book.ok());
    // Insert before an existing node, delete a subtree, update a value.
    auto front = (*st)->InsertNode(
        root, xml::NodeKind::kComment, "", "front matter",
        (*st)->document().tree().first_child(root));
    ASSERT_TRUE(front.ok());
    ASSERT_TRUE((*st)->RemoveSubtree(*book).ok());
    NodeId title_text = xml::kInvalidNode;
    for (NodeId n : (*st)->document().tree().PreorderNodes()) {
      if ((*st)->document().tree().kind(n) == xml::NodeKind::kText) {
        title_text = n;
      }
    }
    ASSERT_NE(title_text, xml::kInvalidNode);
    ASSERT_TRUE((*st)->UpdateValue(title_text, "Odyssey").ok());
    xml = Serialize((*st)->document());
    labels = LabelBytes((*st)->document());
    EXPECT_GT((*st)->stats().journal_records, 0u);
  }
  auto st = DocumentStore::Open("db", options);
  ASSERT_TRUE(st.ok()) << st.status().ToString();
  EXPECT_EQ((*st)->stats().recovered_records, 5u);
  EXPECT_EQ(Serialize((*st)->document()), xml);
  EXPECT_EQ(LabelBytes((*st)->document()), labels);
  ASSERT_TRUE((*st)->document().VerifyOrderAndUniqueness().ok());
}

TEST(DocumentStoreTest, SubtreeInsertIsJournalledAsItsSerialisedSequence) {
  MemFileSystem fs;
  StoreOptions options;
  options.fs = &fs;
  std::string xml;
  std::vector<std::string> labels;
  {
    auto st = DocumentStore::Create("db", ParseOrDie(kDoc), "lsdx", options);
    ASSERT_TRUE(st.ok());
    xml::Tree fragment = ParseOrDie(
        "<appendix><section>notes</section><section>errata</section>"
        "</appendix>");
    auto inserted = (*st)->InsertSubtree(
        (*st)->document().tree().root(), fragment, fragment.root());
    ASSERT_TRUE(inserted.ok()) << inserted.status().ToString();
    // 1 appendix + 2 sections + 2 text nodes = 5 primitive records.
    EXPECT_EQ((*st)->stats().journal_records, 5u);
    xml = Serialize((*st)->document());
    labels = LabelBytes((*st)->document());
  }
  auto st = DocumentStore::Open("db", options);
  ASSERT_TRUE(st.ok());
  EXPECT_EQ((*st)->stats().recovered_records, 5u);
  EXPECT_EQ(Serialize((*st)->document()), xml);
  EXPECT_EQ(LabelBytes((*st)->document()), labels);
}

TEST(DocumentStoreTest, DirectDocumentMutationsAreJournalledToo) {
  MemFileSystem fs;
  StoreOptions options;
  options.fs = &fs;
  std::string xml;
  {
    auto st = DocumentStore::Create("db", ParseOrDie(kDoc), "qed", options);
    ASSERT_TRUE(st.ok());
    // Mutate through the document, bypassing the store's convenience API:
    // the observer hook must journal it all the same.
    core::LabeledDocument* doc = (*st)->mutable_document();
    auto node = doc->InsertNode(doc->tree().root(), xml::NodeKind::kElement,
                                "direct", "");
    ASSERT_TRUE(node.ok());
    EXPECT_EQ((*st)->stats().journal_records, 1u);
    ASSERT_TRUE((*st)->Sync().ok());
    xml = Serialize((*st)->document());
  }
  auto st = DocumentStore::Open("db", options);
  ASSERT_TRUE(st.ok());
  EXPECT_EQ((*st)->stats().recovered_records, 1u);
  EXPECT_EQ(Serialize((*st)->document()), xml);
}

TEST(DocumentStoreTest, CheckpointRollsGenerationAndCompacts) {
  MemFileSystem fs;
  StoreOptions options;
  options.fs = &fs;
  options.checkpoint.max_journal_records = 4;
  auto st = DocumentStore::Create("db", ParseOrDie(kDoc), "ordpath", options);
  ASSERT_TRUE(st.ok());
  std::string xml_before;
  for (int i = 0; i < 10; ++i) {
    NodeId root = (*st)->document().tree().root();
    std::string name = "n";
    name += std::to_string(i);
    auto node = (*st)->InsertNode(root, xml::NodeKind::kElement, name, "");
    ASSERT_TRUE(node.ok()) << node.status().ToString();
  }
  EXPECT_GT((*st)->stats().checkpoints, 0u);
  EXPECT_GT((*st)->stats().sequence, 1u);
  // Old generation files are gone; current ones exist.
  uint64_t seq = (*st)->stats().sequence;
  EXPECT_TRUE(fs.FileExists("db/" + store::SnapshotFileName(seq)));
  EXPECT_TRUE(fs.FileExists("db/" + store::JournalFileName(seq)));
  EXPECT_FALSE(fs.FileExists("db/" + store::SnapshotFileName(1)));
  EXPECT_FALSE(fs.FileExists("db/" + store::JournalFileName(1)));
  xml_before = Serialize((*st)->document());

  auto reopened = DocumentStore::Open("db", options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(Serialize((*reopened)->document()), xml_before);
  ASSERT_TRUE((*reopened)->document().VerifyOrderAndUniqueness().ok());
}

TEST(DocumentStoreTest, ExplicitCheckpointEmptiesJournal) {
  MemFileSystem fs;
  StoreOptions options;
  options.fs = &fs;
  auto st = DocumentStore::Create("db", ParseOrDie(kDoc), "dln", options);
  ASSERT_TRUE(st.ok());
  NodeId root = (*st)->document().tree().root();
  ASSERT_TRUE((*st)->InsertNode(root, xml::NodeKind::kElement, "x", "").ok());
  EXPECT_EQ((*st)->stats().journal_records, 1u);
  ASSERT_TRUE((*st)->Checkpoint().ok());
  EXPECT_EQ((*st)->stats().journal_records, 0u);
  EXPECT_EQ((*st)->stats().sequence, 2u);
  // The journal after a checkpoint holds only the header.
  EXPECT_EQ(fs.FileSize("db/" + store::JournalFileName(2)),
            store::kJournalHeaderSize);
}

TEST(DocumentStoreTest, SyncFailurePoisonsTheStore) {
  MemFileSystem fs;
  StoreOptions options;
  options.fs = &fs;
  auto st = DocumentStore::Create("db", ParseOrDie(kDoc), "ordpath", options);
  ASSERT_TRUE(st.ok());
  NodeId root = (*st)->document().tree().root();
  fs.FailNextSyncs(1);
  auto node = (*st)->InsertNode(root, xml::NodeKind::kElement, "x", "");
  EXPECT_FALSE(node.ok());
  // Durability is unknown from here on: every further mutation must fail.
  auto again = (*st)->InsertNode(root, xml::NodeKind::kElement, "y", "");
  EXPECT_FALSE(again.ok());
  EXPECT_FALSE((*st)->Checkpoint().ok());
}

TEST(DocumentStoreTest, RollbackTailRestoresMarkedState) {
  MemFileSystem fs;
  StoreOptions options;
  options.fs = &fs;
  options.sync_each_update = false;
  options.auto_checkpoint = false;
  auto st = DocumentStore::Create("db", ParseOrDie(kDoc), "dewey", options);
  ASSERT_TRUE(st.ok());
  NodeId root = (*st)->document().tree().root();
  // An acknowledged (group-committed) prefix the rollback must preserve.
  ASSERT_TRUE((*st)->InsertNode(root, xml::NodeKind::kElement, "kept", "").ok());
  ASSERT_TRUE((*st)->CommitBatch().ok());

  const DocumentStore::BatchMark mark = (*st)->Mark();
  const std::string journal_path =
      "db/" + store::JournalFileName((*st)->stats().sequence);
  const std::string journal_at_mark = *fs.GetFile(journal_path);
  const std::string xml = Serialize((*st)->document());
  const std::vector<std::string> labels = LabelBytes((*st)->document());

  // An unsynced tail: two inserts and a delete past the mark.
  root = (*st)->document().tree().root();
  auto doomed =
      (*st)->InsertNode(root, xml::NodeKind::kElement, "doomed", "");
  ASSERT_TRUE(doomed.ok());
  ASSERT_TRUE(
      (*st)->InsertNode(*doomed, xml::NodeKind::kText, "", "gone").ok());
  ASSERT_TRUE(
      (*st)->RemoveSubtree((*st)->document().tree().first_child(root)).ok());

  ASSERT_TRUE((*st)->RollbackTail(mark).ok());
  // In-memory state, journal bytes and stats are exactly the marked state.
  EXPECT_EQ(Serialize((*st)->document()), xml);
  EXPECT_EQ(LabelBytes((*st)->document()), labels);
  EXPECT_EQ(*fs.GetFile(journal_path), journal_at_mark);
  EXPECT_EQ((*st)->stats().journal_bytes, mark.bytes);
  EXPECT_EQ((*st)->stats().journal_records, mark.records);
  // Rolling back to the current position is a no-op.
  ASSERT_TRUE((*st)->RollbackTail((*st)->Mark()).ok());

  // The store stays fully usable: edit, commit, recover.
  root = (*st)->document().tree().root();
  ASSERT_TRUE(
      (*st)->InsertNode(root, xml::NodeKind::kElement, "after", "").ok());
  ASSERT_TRUE((*st)->CommitBatch().ok());
  std::string final_xml = Serialize((*st)->document());
  st->reset();
  auto reopened = DocumentStore::Open("db", options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(Serialize((*reopened)->document()), final_xml);
  ASSERT_TRUE((*reopened)->document().VerifyOrderAndUniqueness().ok());
}

TEST(DocumentStoreTest, RollbackTailFailurePropagatesAndKeepsAckedPrefix) {
  MemFileSystem fs;
  StoreOptions options;
  options.fs = &fs;
  options.sync_each_update = false;
  options.auto_checkpoint = false;
  auto st = DocumentStore::Create("db", ParseOrDie(kDoc), "ordpath", options);
  ASSERT_TRUE(st.ok());
  NodeId root = (*st)->document().tree().root();
  ASSERT_TRUE((*st)->InsertNode(root, xml::NodeKind::kElement, "kept", "").ok());
  ASSERT_TRUE((*st)->CommitBatch().ok());
  const DocumentStore::BatchMark mark = (*st)->Mark();
  const std::string journal_path =
      "db/" + store::JournalFileName((*st)->stats().sequence);
  const std::string journal_at_mark = *fs.GetFile(journal_path);

  root = (*st)->document().tree().root();
  ASSERT_TRUE(
      (*st)->InsertNode(root, xml::NodeKind::kElement, "doomed", "").ok());

  // The truncate's durability barrier fails: the rollback must report it
  // (not swallow it) and poison the store — but at no point may the
  // acknowledged prefix be rewritten or lost.
  fs.FailNextSyncs(1);
  EXPECT_FALSE((*st)->RollbackTail(mark).ok());
  std::string journal_now = *fs.GetFile(journal_path);
  EXPECT_EQ(journal_now.substr(0, journal_at_mark.size()), journal_at_mark);
  EXPECT_FALSE(
      (*st)->InsertNode(root, xml::NodeKind::kElement, "z", "").ok());

  // Recovery still yields at least the acknowledged prefix.
  st->reset();
  auto reopened = DocumentStore::Open("db", options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  bool found_kept = false;
  for (NodeId n : (*reopened)->document().tree().PreorderNodes()) {
    if ((*reopened)->document().tree().name(n) == "kept") found_kept = true;
  }
  EXPECT_TRUE(found_kept);
}

TEST(DocumentStoreTest, RollbackTailRefusesAfterSyncPoisoning) {
  MemFileSystem fs;
  StoreOptions options;
  options.fs = &fs;
  options.sync_each_update = false;
  options.auto_checkpoint = false;
  auto st = DocumentStore::Create("db", ParseOrDie(kDoc), "dewey", options);
  ASSERT_TRUE(st.ok());
  const DocumentStore::BatchMark mark = (*st)->Mark();
  NodeId root = (*st)->document().tree().root();
  ASSERT_TRUE((*st)->InsertNode(root, xml::NodeKind::kElement, "x", "").ok());
  fs.FailNextSyncs(1);
  ASSERT_FALSE((*st)->CommitBatch().ok());
  // After a failed fsync no unsynced journal position is trustworthy;
  // rollback must refuse rather than pretend to restore the mark.
  EXPECT_FALSE((*st)->RollbackTail(mark).ok());
}

TEST(DocumentStoreTest, RollbackTailPosix) {
  std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("xmlup_rollback_test_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  StoreOptions options;
  options.sync_each_update = false;
  options.auto_checkpoint = false;
  std::string xml;
  {
    auto st =
        DocumentStore::Create(dir.string(), ParseOrDie(kDoc), "dewey", options);
    ASSERT_TRUE(st.ok()) << st.status().ToString();
    NodeId root = (*st)->document().tree().root();
    ASSERT_TRUE(
        (*st)->InsertNode(root, xml::NodeKind::kElement, "kept", "").ok());
    ASSERT_TRUE((*st)->CommitBatch().ok());
    const DocumentStore::BatchMark mark = (*st)->Mark();
    xml = Serialize((*st)->document());
    // The real-file path exercises stdio buffering: the tail below sits in
    // the FILE* buffer until the rollback's close flushes it — the
    // truncate must still cut it off.
    root = (*st)->document().tree().root();
    ASSERT_TRUE(
        (*st)->InsertNode(root, xml::NodeKind::kElement, "doomed", "").ok());
    ASSERT_TRUE((*st)->RollbackTail(mark).ok());
    EXPECT_EQ(Serialize((*st)->document()), xml);
  }
  auto st = DocumentStore::Open(dir.string(), options);
  ASSERT_TRUE(st.ok()) << st.status().ToString();
  EXPECT_EQ(Serialize((*st)->document()), xml);
  std::filesystem::remove_all(dir);
}

TEST(DocumentStoreTest, OpenOfMissingStoreFails) {
  MemFileSystem fs;
  StoreOptions options;
  options.fs = &fs;
  EXPECT_FALSE(DocumentStore::Open("nowhere", options).ok());
}

TEST(DocumentStoreTest, OverlongCurrentGenerationIsMalformed) {
  MemFileSystem fs;
  StoreOptions options;
  options.fs = &fs;
  // 21 digits would silently wrap uint64 if accumulated unchecked.
  fs.SetFile("db/CURRENT", "184467440737095516161\n");
  auto st = DocumentStore::Open("db", options);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.status().ToString().find("out of range"), std::string::npos)
      << st.status().ToString();
}

// An auto-checkpoint compacts NodeIds at the end of a mutating call; the
// id that call returns must be remapped so a caller can chain inserts
// through it. With max_journal_records = 1 every insert checkpoints, so
// any stale id would immediately address the wrong node (or fail).
TEST(DocumentStoreTest, AutoCheckpointRemapsTheReturnedNodeId) {
  MemFileSystem fs;
  StoreOptions options;
  options.fs = &fs;
  options.checkpoint.max_journal_records = 1;
  auto st = DocumentStore::Create("db", ParseOrDie(kDoc), "ordpath", options);
  ASSERT_TRUE(st.ok());
  NodeId parent = (*st)->document().tree().root();
  for (int i = 0; i < 5; ++i) {
    std::string name = "c";
    name += std::to_string(i);
    auto node = (*st)->InsertNode(parent, xml::NodeKind::kElement, name, "");
    ASSERT_TRUE(node.ok()) << node.status().ToString();
    ASSERT_TRUE((*st)->document().tree().IsValid(*node));
    EXPECT_EQ((*st)->document().tree().name(*node), name);
    parent = *node;
  }
  EXPECT_GE((*st)->stats().checkpoints, 5u);
  std::string xml = Serialize((*st)->document());
  EXPECT_NE(xml.find("<c0><c1><c2><c3><c4/></c3></c2></c1></c0>"),
            std::string::npos)
      << xml;

  auto reopened = DocumentStore::Open("db", options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(Serialize((*reopened)->document()), xml);
  EXPECT_EQ(LabelBytes((*reopened)->document()),
            LabelBytes((*st)->document()));
}

// Directory-durability sweep: run a fixed session (create, six inserts,
// auto-checkpoints at two-record thresholds), failing the k-th fsync —
// file or directory — for every k. After the failure, crash with every
// subset of the still-pending directory operations written back (the
// kernel may flush any of them, in any combination, before a crash) and
// reopen. Recovery must always succeed, keep every acknowledged update,
// and contain at most the one in-flight unacknowledged update. This is
// the matrix that catches a missing or mis-ordered directory sync: an
// unlink durable before the CURRENT rename would leave the store
// unrecoverable.
namespace sweep {

constexpr int kInserts = 6;

// Returns how many inserts were acknowledged (all, unless a fault fired).
size_t RunSession(MemFileSystem* fs) {
  StoreOptions options;
  options.fs = fs;
  options.checkpoint.max_journal_records = 2;
  auto st = DocumentStore::Create("db", ParseOrDie(kDoc), "ordpath", options);
  if (!st.ok()) return 0;
  size_t acked = 0;
  for (int i = 0; i < kInserts; ++i) {
    NodeId root = (*st)->document().tree().root();
    std::string name = "n";
    name += std::to_string(i);
    if (!(*st)->InsertNode(root, xml::NodeKind::kElement, name, "").ok()) {
      break;
    }
    ++acked;
  }
  return acked;
}

}  // namespace sweep

TEST(DocumentStoreTest, CrashAtEverySyncRecoversAcknowledgedPrefix) {
  // Reference XML after each acknowledged prefix, from clean runs.
  std::vector<std::string> ref;
  for (int j = 0; j <= sweep::kInserts; ++j) {
    MemFileSystem fs;
    StoreOptions options;
    options.fs = &fs;
    options.checkpoint.max_journal_records = 2;
    auto st =
        DocumentStore::Create("db", ParseOrDie(kDoc), "ordpath", options);
    ASSERT_TRUE(st.ok());
    for (int i = 0; i < j; ++i) {
      NodeId root = (*st)->document().tree().root();
      std::string name = "n";
      name += std::to_string(i);
      ASSERT_TRUE(
          (*st)->InsertNode(root, xml::NodeKind::kElement, name, "").ok());
    }
    ref.push_back(Serialize((*st)->document()));
  }

  size_t total_syncs = 0;
  {
    MemFileSystem fs;
    ASSERT_EQ(sweep::RunSession(&fs), size_t{sweep::kInserts});
    total_syncs = fs.sync_count();
  }
  ASSERT_GT(total_syncs, 0u);

  for (size_t k = 0; k < total_syncs; ++k) {
    // Probe run: how many directory ops are pending once sync k fails?
    size_t pending = 0;
    {
      MemFileSystem fs;
      fs.FailSyncs(k, 1);
      sweep::RunSession(&fs);
      pending = fs.pending_metadata_ops();
    }
    // A growing pending list would mean the store keeps mutating without
    // ever syncing the directory — itself a bug worth failing on.
    ASSERT_LE(pending, 8u) << "sync " << k;
    for (uint64_t mask = 0; mask < (uint64_t{1} << pending); ++mask) {
      MemFileSystem fs;
      fs.FailSyncs(k, 1);
      size_t acked = sweep::RunSession(&fs);
      fs.Crash(mask);
      StoreOptions options;
      options.fs = &fs;
      auto st = DocumentStore::Open("db", options);
      if (!st.ok()) {
        // Only permissible if the store was never durably created — i.e.
        // nothing was ever acknowledged.
        EXPECT_EQ(acked, 0u) << "sync " << k << " mask " << mask << ": "
                             << st.status().ToString();
        continue;
      }
      ASSERT_TRUE((*st)->document().VerifyOrderAndUniqueness().ok())
          << "sync " << k << " mask " << mask;
      std::string xml = Serialize((*st)->document());
      // Every acknowledged update survives; the failed call's update may
      // or may not have become durable before the crash.
      EXPECT_TRUE(xml == ref[acked] ||
                  (acked + 1 < ref.size() && xml == ref[acked + 1]))
          << "sync " << k << " mask " << mask << " acked " << acked
          << ": recovered\n"
          << xml;
    }
  }
}

TEST(DocumentStoreTest, PosixRoundTrip) {
  std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("xmlup_store_test_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  std::string xml;
  std::vector<std::string> labels;
  {
    auto st = DocumentStore::Create(dir.string(), ParseOrDie(kDoc), "vector");
    ASSERT_TRUE(st.ok()) << st.status().ToString();
    NodeId root = (*st)->document().tree().root();
    for (int i = 0; i < 5; ++i) {
      std::string name = "n";
      name += std::to_string(i);
      auto node = (*st)->InsertNode(root, xml::NodeKind::kElement, name, "");
      ASSERT_TRUE(node.ok());
    }
    xml = Serialize((*st)->document());
    labels = LabelBytes((*st)->document());
  }
  auto st = DocumentStore::Open(dir.string());
  ASSERT_TRUE(st.ok()) << st.status().ToString();
  EXPECT_EQ((*st)->stats().recovered_records, 5u);
  EXPECT_EQ(Serialize((*st)->document()), xml);
  EXPECT_EQ(LabelBytes((*st)->document()), labels);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace xmlup
