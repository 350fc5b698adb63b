// Replication building blocks and a single-replica end-to-end pass:
// JournalCursor tailing (including across checkpoint rolls), the
// ReplicaStore's apply/recovery contract (torn tails, bitflips,
// stream-sequence checks, bit-identical files), and a live
// primary/replica pair over a Unix socket with kill/restart tailing and
// forced snapshot catch-up.

#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "concurrency/concurrent_store.h"
#include "concurrency/server.h"
#include "core/snapshot.h"
#include "replication/applier.h"
#include "replication/replica_store.h"
#include "replication/source.h"
#include "store/document_store.h"
#include "store/file.h"
#include "store/journal.h"
#include "store/journal_cursor.h"
#include "updates/update.h"
#include "xml/parser.h"
#include "xml/serializer.h"

namespace xmlup::replication {
namespace {

using concurrency::ConcurrentStore;
using concurrency::ConcurrentStoreOptions;
using updates::UpdateRequest;
using store::DocumentStore;
using store::JournalCursor;
using store::MemFileSystem;
using store::StoreOptions;

xml::Tree ParseOrDie(std::string_view text) {
  auto tree = xml::ParseDocument(text);
  EXPECT_TRUE(tree.ok()) << tree.status().ToString();
  return std::move(*tree);
}

std::string Serialize(const core::LabeledDocument& doc) {
  auto text = xml::SerializeDocument(doc.tree());
  EXPECT_TRUE(text.ok());
  return *text;
}

std::vector<std::string> LabelBytes(const core::LabeledDocument& doc) {
  std::vector<std::string> out;
  for (xml::NodeId n : doc.tree().PreorderNodes()) {
    out.push_back(doc.label(n).bytes());
  }
  return out;
}

UpdateRequest InsertChild(std::string xpath, std::string name) {
  UpdateRequest request;
  request.op = UpdateRequest::Op::kInsertChild;
  request.xpath = std::move(xpath);
  request.kind = xml::NodeKind::kElement;
  request.name = std::move(name);
  return request;
}

// --- JournalCursor ------------------------------------------------------

TEST(JournalCursorTest, FirstPollReturnsTheWholeCommittedBody) {
  MemFileSystem fs;
  StoreOptions options;
  options.fs = &fs;
  options.auto_checkpoint = false;
  auto created =
      DocumentStore::Create("db", ParseOrDie("<root/>"), "ordpath", options);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  DocumentStore* store = created->get();
  for (int i = 0; i < 3; ++i) {
    size_t matched = 0;
    ASSERT_TRUE(updates::ApplyUpdate(
                    store, InsertChild(".", "n" + std::to_string(i)), &matched)
                    .ok());
  }

  JournalCursor cursor(store);
  auto batch = cursor.Poll();
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  EXPECT_FALSE(batch->rolled);
  EXPECT_EQ(batch->base_bytes, store::kJournalHeaderSize);
  EXPECT_EQ(batch->base_records, 0u);
  EXPECT_EQ(batch->records, 3u);

  // The payload is the journal file body, byte for byte.
  auto journal = fs.GetFile("db/" + store::JournalFileName(
                                        store->LastCommitPoint().generation));
  ASSERT_TRUE(journal.ok());
  EXPECT_EQ(batch->payload, journal->substr(store::kJournalHeaderSize));

  // Caught up: the next poll is empty.
  auto empty = cursor.Poll();
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(empty->records, 0u);
  EXPECT_TRUE(empty->payload.empty());
  EXPECT_FALSE(empty->rolled);
}

TEST(JournalCursorTest, PollReturnsOnlyTheDeltaAndSurvivesRolls) {
  MemFileSystem fs;
  StoreOptions options;
  options.fs = &fs;
  options.auto_checkpoint = false;
  auto created =
      DocumentStore::Create("db", ParseOrDie("<root/>"), "ordpath", options);
  ASSERT_TRUE(created.ok());
  DocumentStore* store = created->get();
  JournalCursor cursor(store);
  ASSERT_TRUE(cursor.Poll().ok());  // drain the (empty) body

  size_t matched = 0;
  ASSERT_TRUE(updates::ApplyUpdate(store, InsertChild(".", "a"), &matched)
                  .ok());
  auto delta = cursor.Poll();
  ASSERT_TRUE(delta.ok());
  EXPECT_EQ(delta->base_records, 0u);
  EXPECT_EQ(delta->records, 1u);
  EXPECT_GT(delta->payload.size(), 0u);

  const uint64_t old_generation = store->LastCommitPoint().generation;
  ASSERT_TRUE(store->Checkpoint().ok());
  ASSERT_TRUE(updates::ApplyUpdate(store, InsertChild(".", "b"), &matched)
                  .ok());
  auto rolled = cursor.Poll();
  ASSERT_TRUE(rolled.ok());
  EXPECT_TRUE(rolled->rolled);
  EXPECT_GT(rolled->generation, old_generation);
  EXPECT_EQ(rolled->base_bytes, store::kJournalHeaderSize);
  EXPECT_EQ(rolled->base_records, 0u);
  EXPECT_EQ(rolled->records, 1u);
}

// --- ReplicaStore -------------------------------------------------------

struct Primary {
  std::unique_ptr<DocumentStore> store;
  std::string snapshot;  // the generation-opening snapshot image
};

Primary MakePrimary(MemFileSystem* fs, int edits) {
  StoreOptions options;
  options.fs = fs;
  options.auto_checkpoint = false;
  auto created = DocumentStore::Create("db", ParseOrDie("<root><s/></root>"),
                                       "ordpath", options);
  EXPECT_TRUE(created.ok()) << created.status().ToString();
  Primary p;
  p.store = std::move(*created);
  auto snapshot = fs->GetFile(
      "db/" + store::SnapshotFileName(p.store->LastCommitPoint().generation));
  EXPECT_TRUE(snapshot.ok());
  p.snapshot = *snapshot;
  for (int i = 0; i < edits; ++i) {
    size_t matched = 0;
    std::string name = "n";
    name += std::to_string(i);
    EXPECT_TRUE(
        updates::ApplyUpdate(p.store.get(), InsertChild(".", name),
                                 &matched)
            .ok());
  }
  return p;
}

TEST(ReplicaStoreTest, SnapshotPlusFramesReproducesThePrimaryBitForBit) {
  MemFileSystem fs;
  Primary p = MakePrimary(&fs, 4);
  const uint64_t generation = p.store->LastCommitPoint().generation;

  JournalCursor cursor(p.store.get());
  auto batch = cursor.Poll();
  ASSERT_TRUE(batch.ok());

  MemFileSystem replica_fs;
  ReplicaStoreOptions options;
  options.fs = &replica_fs;
  auto opened = ReplicaStore::Open("r", options);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  ReplicaStore* replica = opened->get();
  EXPECT_FALSE(replica->has_document());
  EXPECT_EQ(replica->position().bytes, 0u);

  ASSERT_TRUE(replica->InstallSnapshot(generation, p.snapshot).ok());
  EXPECT_TRUE(replica->has_document());
  EXPECT_EQ(replica->scheme_name(), "ordpath");
  ASSERT_TRUE(replica
                  ->AppendFrames(generation, batch->base_bytes,
                                 batch->base_records, batch->payload)
                  .ok());
  ASSERT_TRUE(replica->Sync().ok());

  EXPECT_EQ(Serialize(replica->document()), Serialize(p.store->document()));
  EXPECT_EQ(LabelBytes(replica->document()), LabelBytes(p.store->document()));
  // Files, not just state: journal and snapshot byte-identical.
  EXPECT_EQ(*replica_fs.GetFile("r/" + store::JournalFileName(generation)),
            *fs.GetFile("db/" + store::JournalFileName(generation)));
  EXPECT_EQ(*replica_fs.GetFile("r/" + store::SnapshotFileName(generation)),
            *fs.GetFile("db/" + store::SnapshotFileName(generation)));

  // Reopen = crash recovery: same document, same position.
  auto reopened = ReplicaStore::Open("r", options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(Serialize((*reopened)->document()),
            Serialize(p.store->document()));
  EXPECT_EQ((*reopened)->position(), replica->position());
}

TEST(ReplicaStoreTest, OutOfSequenceFramesAreRejectedWithoutBreaking) {
  MemFileSystem fs;
  Primary p = MakePrimary(&fs, 2);
  const uint64_t generation = p.store->LastCommitPoint().generation;
  JournalCursor cursor(p.store.get());
  auto batch = cursor.Poll();
  ASSERT_TRUE(batch.ok());

  MemFileSystem replica_fs;
  ReplicaStoreOptions options;
  options.fs = &replica_fs;
  auto opened = ReplicaStore::Open("r", options);
  ASSERT_TRUE(opened.ok());
  ReplicaStore* replica = opened->get();
  ASSERT_TRUE(replica->InstallSnapshot(generation, p.snapshot).ok());

  // A gap (wrong base offset) is an error, but the store stays usable:
  // the correctly sequenced payload still applies afterwards.
  EXPECT_FALSE(replica
                   ->AppendFrames(generation, batch->base_bytes + 8,
                                  batch->base_records, batch->payload)
                   .ok());
  EXPECT_TRUE(replica
                  ->AppendFrames(generation, batch->base_bytes,
                                 batch->base_records, batch->payload)
                  .ok());
}

TEST(ReplicaStoreTest, TornPayloadIsRejectedBeforeAnythingApplies) {
  MemFileSystem fs;
  Primary p = MakePrimary(&fs, 2);
  const uint64_t generation = p.store->LastCommitPoint().generation;
  JournalCursor cursor(p.store.get());
  auto batch = cursor.Poll();
  ASSERT_TRUE(batch.ok());

  MemFileSystem replica_fs;
  ReplicaStoreOptions options;
  options.fs = &replica_fs;
  auto opened = ReplicaStore::Open("r", options);
  ASSERT_TRUE(opened.ok());
  ReplicaStore* replica = opened->get();
  ASSERT_TRUE(replica->InstallSnapshot(generation, p.snapshot).ok());
  const std::string before = Serialize(replica->document());

  // Cut mid-frame and flip a bit: both must be rejected whole — position
  // unchanged, document unchanged, then the intact payload applies.
  std::string torn = batch->payload.substr(0, batch->payload.size() - 3);
  EXPECT_FALSE(replica
                   ->AppendFrames(generation, batch->base_bytes,
                                  batch->base_records, torn)
                   .ok());
  std::string flipped = batch->payload;
  flipped[flipped.size() / 2] ^= 0x10;
  EXPECT_FALSE(replica
                   ->AppendFrames(generation, batch->base_bytes,
                                  batch->base_records, flipped)
                   .ok());
  EXPECT_EQ(Serialize(replica->document()), before);
  EXPECT_TRUE(replica
                  ->AppendFrames(generation, batch->base_bytes,
                                 batch->base_records, batch->payload)
                  .ok());
}

TEST(ReplicaStoreTest, RecoversFromItsOwnTornTailAfterACrash) {
  MemFileSystem fs;
  Primary p = MakePrimary(&fs, 3);
  const uint64_t generation = p.store->LastCommitPoint().generation;
  JournalCursor cursor(p.store.get());
  auto batch = cursor.Poll();
  ASSERT_TRUE(batch.ok());

  MemFileSystem replica_fs;
  ReplicaStoreOptions options;
  options.fs = &replica_fs;
  {
    auto opened = ReplicaStore::Open("r", options);
    ASSERT_TRUE(opened.ok());
    ASSERT_TRUE((*opened)->InstallSnapshot(generation, p.snapshot).ok());
    ASSERT_TRUE((*opened)
                    ->AppendFrames(generation, batch->base_bytes,
                                   batch->base_records, batch->payload)
                    .ok());
    ASSERT_TRUE((*opened)->Sync().ok());
  }
  // Tear the journal tail mid-frame (a replica crash between append and
  // sync), then reopen: recovery keeps the valid prefix and reports a
  // position the next hello hands to the primary.
  const std::string journal_path = "r/" + store::JournalFileName(generation);
  std::string bytes = *replica_fs.GetFile(journal_path);
  replica_fs.SetFile(journal_path, bytes.substr(0, bytes.size() - 5));

  auto reopened = ReplicaStore::Open("r", options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_TRUE((*reopened)->has_document());
  EXPECT_LT((*reopened)->position().bytes, batch->base_bytes + batch->payload.size());
  EXPECT_EQ((*reopened)->position().records, batch->records - 1);

  // A mid-file bitflip is caught by the CRC the same way.
  replica_fs.SetFile(journal_path, bytes);
  ASSERT_TRUE(
      replica_fs.FlipBit(journal_path, store::kJournalHeaderSize + 9, 2).ok());
  auto flipped = ReplicaStore::Open("r", options);
  ASSERT_TRUE(flipped.ok()) << flipped.status().ToString();
  EXPECT_EQ((*flipped)->position().records, 0u);
}

TEST(ReplicaStoreTest, RollWritesTheSameSnapshotThePrimaryWrote) {
  MemFileSystem fs;
  Primary p = MakePrimary(&fs, 3);
  const uint64_t generation = p.store->LastCommitPoint().generation;
  JournalCursor cursor(p.store.get());
  auto batch = cursor.Poll();
  ASSERT_TRUE(batch.ok());

  MemFileSystem replica_fs;
  ReplicaStoreOptions options;
  options.fs = &replica_fs;
  auto opened = ReplicaStore::Open("r", options);
  ASSERT_TRUE(opened.ok());
  ReplicaStore* replica = opened->get();
  ASSERT_TRUE(replica->InstallSnapshot(generation, p.snapshot).ok());
  ASSERT_TRUE(replica
                  ->AppendFrames(generation, batch->base_bytes,
                                 batch->base_records, batch->payload)
                  .ok());

  // Primary checkpoints; the replica follows with its own Roll. The two
  // snapshot files must be bit-identical (SaveSnapshot is deterministic),
  // and the replica document must reload compacted like the primary's.
  ASSERT_TRUE(p.store->Checkpoint().ok());
  const uint64_t next = p.store->LastCommitPoint().generation;
  ASSERT_GT(next, generation);
  ASSERT_TRUE(replica->Roll(next).ok());
  EXPECT_EQ(*replica_fs.GetFile("r/" + store::SnapshotFileName(next)),
            *fs.GetFile("db/" + store::SnapshotFileName(next)));
  EXPECT_EQ(replica->position(),
            (store::CommitPoint{next, store::kJournalHeaderSize, 0}));
  EXPECT_EQ(Serialize(replica->document()), Serialize(p.store->document()));
  EXPECT_EQ(LabelBytes(replica->document()), LabelBytes(p.store->document()));
  EXPECT_FALSE(
      replica_fs.FileExists("r/" + store::SnapshotFileName(generation)));
}

// --- End to end over a Unix socket --------------------------------------

class EndToEnd : public ::testing::Test {
 protected:
  void SetUp() override {
    char dir_template[] = "/tmp/xmlup_repl_XXXXXX";
    ASSERT_NE(::mkdtemp(dir_template), nullptr);
    tmp_dir_ = dir_template;
    socket_path_ = tmp_dir_ + "/s";
  }
  void TearDown() override {
    if (!tmp_dir_.empty()) ::rmdir(tmp_dir_.c_str());
  }

  void StartPrimary(uint64_t max_journal_records,
                    const std::string& scheme = "ordpath") {
    ConcurrentStoreOptions options;
    options.store.fs = &primary_fs_;
    options.store.checkpoint.max_journal_records = max_journal_records;
    options.commit_hook = &source_;
    auto created = ConcurrentStore::Create(
        "p", ParseOrDie("<root><seed/></root>"), scheme, options);
    ASSERT_TRUE(created.ok()) << created.status().ToString();
    primary_ = std::move(*created);
    server_ = std::make_unique<concurrency::Server>(primary_.get());
    server_->EnableReplication(&source_);
    server_->SetReplStatus([this] { return source_.StatusFields(); });
    server_->set_drain_deadline_ms(200);
    server_thread_ = std::thread([this] {
      EXPECT_TRUE(server_->ServeUnixSocket(socket_path_).ok());
    });
    for (int i = 0; i < 5000; ++i) {
      if (concurrency::UnixSocketRequest(socket_path_, {"--ping"}).ok()) {
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    FAIL() << "server socket never came up";
  }

  std::unique_ptr<ReplicaApplier> StartReplica() {
    ReplicaApplierOptions options;
    options.store.fs = &replica_fs_;
    auto applier = ReplicaApplier::Start("r", socket_path_, options);
    EXPECT_TRUE(applier.ok()) << applier.status().ToString();
    return std::move(*applier);
  }

  void Insert(int i) {
    auto result = primary_->Update(InsertChild(".", "n" + std::to_string(i)));
    ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  }

  // Waits until the replica applied everything the source committed AND
  // heard a commit-point for it (lag gauges at zero).
  void AwaitConverged(ReplicaApplier* applier) {
    ASSERT_TRUE(applier->WaitForPosition(source_.committed(), 10000));
    for (int i = 0; i < 10000; ++i) {
      ReplicaStatus s = applier->status();
      if (s.lag_bytes == 0 && s.primary == source_.committed()) return;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    FAIL() << "replica never heard a caught-up commit-point";
  }

  void ExpectIdentical(ReplicaApplier* applier) {
    auto replica_view = applier->PinView();
    ASSERT_NE(replica_view, nullptr);
    auto primary_view = primary_->PinView();
    auto replica_xml = replica_view->SerializeXml();
    auto primary_xml = primary_view->SerializeXml();
    ASSERT_TRUE(replica_xml.ok() && primary_xml.ok());
    EXPECT_EQ(*replica_xml, *primary_xml);
    EXPECT_EQ(LabelBytes(replica_view->document()),
              LabelBytes(primary_view->document()));
  }

  void Shutdown() {
    EXPECT_TRUE(
        concurrency::UnixSocketRequest(socket_path_, {"--shutdown"}).ok());
    server_thread_.join();
    primary_->Stop();
  }

  std::string tmp_dir_;
  std::string socket_path_;
  MemFileSystem primary_fs_;
  MemFileSystem replica_fs_;
  ReplicationSource source_;
  std::unique_ptr<ConcurrentStore> primary_;
  std::unique_ptr<concurrency::Server> server_;
  std::thread server_thread_;
};

TEST_F(EndToEnd, ReplicaTailsRestartsAndCatchesUpViaSnapshot) {
  StartPrimary(/*max_journal_records=*/1000000);  // no rolls yet
  std::unique_ptr<ReplicaApplier> applier = StartReplica();

  for (int i = 0; i < 5; ++i) Insert(i);
  AwaitConverged(applier.get());
  ExpectIdentical(applier.get());
  {
    ReplicaStatus s = applier->status();
    EXPECT_EQ(s.snapshots_installed, 1u);  // the bootstrap transfer
    EXPECT_EQ(s.lag_records, 0u);
  }

  // Kill the replica, write more, restart: it resumes by tailing frames
  // from its recovered position (no new snapshot).
  applier->Stop();
  applier.reset();
  for (int i = 5; i < 10; ++i) Insert(i);
  applier = StartReplica();
  AwaitConverged(applier.get());
  ExpectIdentical(applier.get());
  EXPECT_EQ(applier->status().snapshots_installed, 0u);

  // The primary's repl-status surfaces the subscriber.
  auto repl_status =
      concurrency::UnixSocketRequest(socket_path_, {"--repl-status"});
  ASSERT_TRUE(repl_status.ok());
  ASSERT_FALSE(repl_status->empty());
  EXPECT_EQ((*repl_status)[0], "ok");

  applier->Stop();
  applier.reset();
  Shutdown();
}

TEST_F(EndToEnd, ReplicaLeftBehindTwoRollsCatchesUpWithASnapshot) {
  StartPrimary(/*max_journal_records=*/3);  // roll every few records
  std::unique_ptr<ReplicaApplier> applier = StartReplica();
  for (int i = 0; i < 2; ++i) Insert(i);
  AwaitConverged(applier.get());
  applier->Stop();
  applier.reset();

  // Enough commits while the replica is down to roll the generation at
  // least twice: its position falls off the retained images, so the
  // handshake must answer with a snapshot.
  for (int i = 2; i < 14; ++i) Insert(i);
  applier = StartReplica();
  AwaitConverged(applier.get());
  ExpectIdentical(applier.get());
  EXPECT_GE(applier->status().snapshots_installed, 1u);

  applier->Stop();
  applier.reset();
  Shutdown();
}

// Replica views are published by cloning the applied document. After
// every shipped frames message the pinned replica view must read exactly
// like the primary's view at that position — byte-identical XML and the
// same label bytes in document order — across appends, inserts before the
// first child, value updates, deletions and checkpoint rolls.
// xpath-accelerator relabels on insert, so its frames rewrite labels the
// clone must carry over.
class ReplicaViewEndToEnd : public EndToEnd,
                            public ::testing::WithParamInterface<std::string> {
};

TEST_P(ReplicaViewEndToEnd, PinnedViewMatchesThePrimaryAfterEveryMessage) {
  StartPrimary(/*max_journal_records=*/7, GetParam());  // rolls mid-run
  std::unique_ptr<ReplicaApplier> applier = StartReplica();
  AwaitConverged(applier.get());
  ExpectIdentical(applier.get());

  uint64_t last_epoch = applier->PinView()->epoch();
  for (int i = 0; i < 24; ++i) {
    UpdateRequest request;
    switch (i % 4) {
      case 0:
        request = InsertChild(".", "n" + std::to_string(i));
        break;
      case 1:
        request = InsertChild(".", "f" + std::to_string(i));
        request.op = UpdateRequest::Op::kInsertBefore;
        request.xpath = "/seed";
        break;
      case 2:
        request.op = UpdateRequest::Op::kSetValue;
        request.xpath = "/seed";
        request.value = "v" + std::to_string(i);
        break;
      default:
        request.op = UpdateRequest::Op::kDelete;
        request.xpath = "/n" + std::to_string(i - 3);
        break;
    }
    auto result = primary_->Update(request);
    ASSERT_TRUE(result.status.ok()) << i << ": " << result.status.ToString();
    ASSERT_EQ(result.matched, 1u) << i;
    AwaitConverged(applier.get());
    ExpectIdentical(applier.get());
    const uint64_t epoch = applier->PinView()->epoch();
    EXPECT_GT(epoch, last_epoch) << "a fresh view is published per message";
    last_epoch = epoch;
  }
  EXPECT_GE(primary_->stats().checkpoints, 1u);

  applier->Stop();
  applier.reset();
  Shutdown();
}

INSTANTIATE_TEST_SUITE_P(Schemes, ReplicaViewEndToEnd,
                         ::testing::Values("ordpath", "xpath-accelerator"),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

TEST_F(EndToEnd, ReplicaServerAnswersReadsAndRejectsWrites) {
  StartPrimary(/*max_journal_records=*/1000000);
  std::unique_ptr<ReplicaApplier> applier = StartReplica();
  for (int i = 0; i < 3; ++i) Insert(i);
  AwaitConverged(applier.get());

  // A read-only server over the applier's views, on its own socket.
  concurrency::Server replica_server(applier.get());
  replica_server.SetReplStatus([&] { return applier->StatusFields(); });
  replica_server.set_drain_deadline_ms(200);
  const std::string replica_socket = tmp_dir_ + "/rs";
  std::thread replica_thread([&] {
    EXPECT_TRUE(replica_server.ServeUnixSocket(replica_socket).ok());
  });
  for (int i = 0; i < 5000; ++i) {
    if (concurrency::UnixSocketRequest(replica_socket, {"--ping"}).ok()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  auto query = concurrency::UnixSocketRequest(replica_socket, {"-q", "."});
  ASSERT_TRUE(query.ok());
  ASSERT_FALSE(query->empty());
  EXPECT_EQ((*query)[0], "ok");

  auto xml = concurrency::UnixSocketRequest(replica_socket, {"--xml"});
  ASSERT_TRUE(xml.ok());
  ASSERT_EQ((*xml)[0], "ok");
  auto primary_xml = primary_->PinView()->SerializeXml();
  ASSERT_TRUE(primary_xml.ok());
  EXPECT_EQ((*xml)[1], *primary_xml);

  auto update = concurrency::UnixSocketRequest(
      replica_socket, {"-s", ".", "-t", "elem", "-n", "nope"});
  ASSERT_TRUE(update.ok());
  ASSERT_FALSE(update->empty());
  EXPECT_EQ((*update)[0], "err");

  auto repl_status =
      concurrency::UnixSocketRequest(replica_socket, {"--repl-status"});
  ASSERT_TRUE(repl_status.ok());
  EXPECT_EQ((*repl_status)[0], "ok");

  EXPECT_TRUE(
      concurrency::UnixSocketRequest(replica_socket, {"--shutdown"}).ok());
  replica_thread.join();
  applier->Stop();
  applier.reset();
  Shutdown();
}

}  // namespace
}  // namespace xmlup::replication
