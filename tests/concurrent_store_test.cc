// ConcurrentStore: the single-writer group-commit pipeline with
// snapshot-isolated readers. Covers the action-grammar parser shared by
// the CLI and the wire protocol, read-your-writes after acknowledgement,
// pinned-view immutability, backpressure on the bounded queue, commit
// failure semantics (no acknowledgement without durability) and restart
// recovery.

#include "concurrency/concurrent_store.h"

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "observability/metrics.h"
#include "store/document_store.h"
#include "store/file.h"
#include "updates/update.h"
#include "xml/parser.h"

namespace xmlup::concurrency {
namespace {

using store::MemFileSystem;
using updates::ParseActionTokens;
using updates::UpdateRequest;
using updates::UpdateResult;

std::string Name(const char* prefix, int i) {
  std::string out = prefix;
  out += std::to_string(i);
  return out;
}

xml::Tree BaseTree() {
  auto tree = xml::ParseDocument("<root><a>1</a><b>2</b></root>");
  EXPECT_TRUE(tree.ok());
  return std::move(*tree);
}

UpdateRequest InsertChild(std::string xpath, std::string name,
                          std::string value = "") {
  UpdateRequest request;
  request.op = UpdateRequest::Op::kInsertChild;
  request.xpath = std::move(xpath);
  request.kind = xml::NodeKind::kElement;
  request.name = std::move(name);
  request.value = std::move(value);
  return request;
}

// --- Action grammar -------------------------------------------------------

TEST(ParseActionTokensTest, ParsesTheCliGrammar) {
  auto actions = ParseActionTokens({"-s", ".", "-t", "elem", "-n", "c", "-i",
                                    "/a", "-t", "comment", "-v", "note",
                                    "-d", "/b", "-u", "/a/text()", "-v",
                                    "42"});
  ASSERT_TRUE(actions.ok()) << actions.status().ToString();
  ASSERT_EQ(actions->size(), 4u);
  EXPECT_EQ((*actions)[0].op, UpdateRequest::Op::kInsertChild);
  EXPECT_EQ((*actions)[0].name, "c");
  EXPECT_EQ((*actions)[1].op, UpdateRequest::Op::kInsertBefore);
  EXPECT_EQ((*actions)[1].kind, xml::NodeKind::kComment);
  EXPECT_EQ((*actions)[1].value, "note");
  EXPECT_EQ((*actions)[2].op, UpdateRequest::Op::kDelete);
  EXPECT_EQ((*actions)[3].op, UpdateRequest::Op::kSetValue);
  EXPECT_EQ((*actions)[3].value, "42");
}

TEST(ParseActionTokensTest, RejectsMalformedScripts) {
  // Every structural error is caught before anything touches a store.
  EXPECT_FALSE(ParseActionTokens({"-s"}).ok());               // no operand
  EXPECT_FALSE(ParseActionTokens({"-t", "elem"}).ok());       // no action yet
  EXPECT_FALSE(ParseActionTokens({"-s", ".", "-t"}).ok());    // no operand
  EXPECT_FALSE(
      ParseActionTokens({"-s", ".", "-t", "blob", "-n", "x"}).ok());
  EXPECT_FALSE(ParseActionTokens({"-s", ".", "-t", "elem"}).ok());  // no -n
  EXPECT_FALSE(
      ParseActionTokens({"-s", ".", "-t", "attr", "-v", "x"}).ok());
  EXPECT_FALSE(ParseActionTokens({"-u", "/a"}).ok());         // -u needs -v
  EXPECT_FALSE(ParseActionTokens({"--bogus"}).ok());
}

// --- Pipeline basics ------------------------------------------------------

TEST(ConcurrentStoreTest, ReadYourWritesAfterAck) {
  MemFileSystem fs;
  ConcurrentStoreOptions options;
  options.store.fs = &fs;
  auto st = ConcurrentStore::Create("db", BaseTree(), "dewey", options);
  ASSERT_TRUE(st.ok()) << st.status().ToString();

  auto before = (*st)->PinView();
  ASSERT_NE(before, nullptr);
  const uint64_t epoch0 = before->epoch();

  UpdateResult result = (*st)->Update(InsertChild(".", "c"));
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_EQ(result.matched, 1u);
  EXPECT_GT(result.epoch, epoch0);

  // The view published with the acknowledgement shows the write.
  auto after = (*st)->PinView();
  EXPECT_GE(after->epoch(), result.epoch);
  auto hits = after->Query("/c");
  ASSERT_TRUE(hits.ok()) << hits.status().ToString();
  EXPECT_EQ(hits->size(), 1u);

  // The view pinned before the write is frozen: it still shows nothing.
  auto stale_hits = before->Query("/c");
  ASSERT_TRUE(stale_hits.ok());
  EXPECT_TRUE(stale_hits->empty());
}

TEST(ConcurrentStoreTest, PinnedViewStaysBitIdentical) {
  MemFileSystem fs;
  ConcurrentStoreOptions options;
  options.store.fs = &fs;
  auto st = ConcurrentStore::Create("db", BaseTree(), "ordpath", options);
  ASSERT_TRUE(st.ok()) << st.status().ToString();

  auto pinned = (*st)->PinView();
  auto frozen_xml = pinned->SerializeXml();
  ASSERT_TRUE(frozen_xml.ok());

  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(
        (*st)->Update(InsertChild(".", Name("n", i))).status.ok());
  }

  auto again = pinned->SerializeXml();
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, *frozen_xml);
  auto fresh = (*st)->PinView()->SerializeXml();
  ASSERT_TRUE(fresh.ok());
  EXPECT_NE(*fresh, *frozen_xml);
}

TEST(ConcurrentStoreTest, FailedUpdateResolvesWithErrorAndStoreKeepsGoing) {
  MemFileSystem fs;
  ConcurrentStoreOptions options;
  options.store.fs = &fs;
  auto st = ConcurrentStore::Create("db", BaseTree(), "dewey", options);
  ASSERT_TRUE(st.ok()) << st.status().ToString();

  UpdateResult bad = (*st)->Update(InsertChild("/nope", "x"));
  EXPECT_FALSE(bad.status.ok());
  UpdateRequest malformed;
  malformed.op = UpdateRequest::Op::kDelete;
  malformed.xpath = "///[[";
  EXPECT_FALSE((*st)->Update(malformed).status.ok());

  UpdateResult good = (*st)->Update(InsertChild(".", "c"));
  EXPECT_TRUE(good.status.ok()) << good.status.ToString();

  ConcurrentStoreStats stats = (*st)->stats();
  EXPECT_EQ(stats.updates_failed, 2u);
  EXPECT_EQ(stats.updates_applied, 1u);
}

TEST(ConcurrentStoreTest, FailedTransactionLeavesNothingBehind) {
  MemFileSystem fs;
  ConcurrentStoreOptions options;
  options.store.fs = &fs;
  auto st = ConcurrentStore::Create("db", BaseTree(), "dewey", options);
  ASSERT_TRUE(st.ok()) << st.status().ToString();

  // First action applies (and journals) before the second fails: the
  // transaction must roll back to nothing — not commit the first half.
  std::vector<UpdateRequest> txn;
  txn.push_back(InsertChild(".", "c"));
  UpdateRequest bad;
  bad.op = UpdateRequest::Op::kDelete;
  bad.xpath = "/no/such/node";
  txn.push_back(bad);
  UpdateResult result = (*st)->SubmitTransaction(std::move(txn)).get();
  EXPECT_FALSE(result.status.ok());

  auto view = (*st)->PinView();
  auto hits = view->Query("/c");
  ASSERT_TRUE(hits.ok());
  EXPECT_TRUE(hits->empty()) << "failed transaction left a partial edit";

  // The store keeps working, and a successful transaction sums matches.
  std::vector<UpdateRequest> good;
  good.push_back(InsertChild(".", "c"));
  good.push_back(InsertChild(".", "d"));
  result = (*st)->SubmitTransaction(std::move(good)).get();
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_EQ(result.matched, 2u);

  EXPECT_FALSE((*st)->SubmitTransaction({}).get().status.ok());

  // Restart: only the successful transaction is durable.
  (*st)->Stop();
  fs.Crash();
  auto reopened = ConcurrentStore::Open("db", options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  auto after = (*reopened)->PinView();
  EXPECT_EQ((*after->Query("/c")).size(), 1u);
  EXPECT_EQ((*after->Query("/d")).size(), 1u);
  EXPECT_EQ((*after->Query("/*")).size(), 4u);  // a, b + c, d
}

TEST(ConcurrentStoreTest, RolledBackTransactionDoesNotSinkItsBatch) {
  MemFileSystem fs;
  ConcurrentStoreOptions options;
  options.store.fs = &fs;
  options.max_batch = 64;  // let good requests co-batch with the bad one
  auto st = ConcurrentStore::Create("db", BaseTree(), "dewey", options);
  ASSERT_TRUE(st.ok()) << st.status().ToString();

  constexpr int kGood = 10;
  std::vector<std::future<UpdateResult>> good;
  for (int i = 0; i < kGood / 2; ++i) {
    good.push_back((*st)->SubmitUpdate(InsertChild(".", Name("g", i))));
  }
  std::vector<UpdateRequest> txn;
  txn.push_back(InsertChild(".", "half"));
  UpdateRequest bad;
  bad.op = UpdateRequest::Op::kDelete;
  bad.xpath = "/no/such/node";
  txn.push_back(bad);
  std::future<UpdateResult> failed = (*st)->SubmitTransaction(std::move(txn));
  for (int i = kGood / 2; i < kGood; ++i) {
    good.push_back((*st)->SubmitUpdate(InsertChild(".", Name("g", i))));
  }

  // However the writer batched them, every good request commits and the
  // bad transaction alone fails, leaving no trace.
  for (auto& f : good) {
    UpdateResult result = f.get();
    EXPECT_TRUE(result.status.ok()) << result.status.ToString();
  }
  EXPECT_FALSE(failed.get().status.ok());
  auto view = (*st)->PinView();
  EXPECT_TRUE((*view->Query("/half")).empty());
  EXPECT_EQ((*view->Query("/*")).size(), 2u + kGood);

  // And the same picture after recovery.
  (*st)->Stop();
  fs.Crash();
  auto reopened = ConcurrentStore::Open("db", options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  auto after = (*reopened)->PinView();
  EXPECT_TRUE((*after->Query("/half")).empty());
  EXPECT_EQ((*after->Query("/*")).size(), 2u + kGood);
}

/// Slows every group commit so a submitter that does not wait for acks
/// runs ahead of the writer and multi-transaction batches form.
class SlowCommitHook : public CommitHook {
 public:
  void OnCommit(store::DocumentStore*) override {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
};

// Transactions that share a batch journal exactly the bytes of applying
// them one at a time, and one that fails after its first request applied
// is rolled back inside the batch without disturbing its neighbours.
TEST(ConcurrentStoreTest, BatchedTransactionsJournalLikeASerialApply) {
  std::vector<std::vector<UpdateRequest>> txns;
  for (int i = 0; i < 48; ++i) {
    std::vector<UpdateRequest> txn;
    txn.push_back(InsertChild(".", Name("t", i), Name("v", i)));
    if (i % 4 == 1) {
      UpdateRequest bad;
      bad.op = UpdateRequest::Op::kDelete;
      bad.xpath = Name("/gone", i);
      txn.push_back(bad);
    } else if (i % 4 == 2) {
      txn.push_back(InsertChild(Name("/t", i - 2), "c"));
    }
    txns.push_back(std::move(txn));
  }

  MemFileSystem batched_fs;
  SlowCommitHook hook;
  ConcurrentStoreOptions options;
  options.store.fs = &batched_fs;
  options.commit_hook = &hook;
  auto st = ConcurrentStore::Create("db", BaseTree(), "dewey", options);
  ASSERT_TRUE(st.ok()) << st.status().ToString();
  std::vector<std::future<UpdateResult>> futures;
  for (const std::vector<UpdateRequest>& txn : txns) {
    futures.push_back((*st)->SubmitTransaction(txn));
  }
  for (size_t i = 0; i < futures.size(); ++i) {
    UpdateResult result = futures[i].get();
    EXPECT_EQ(result.status.ok(), i % 4 != 1) << "transaction " << i;
    EXPECT_EQ(result.matched, i % 4 == 2 ? 2u : i % 4 == 1 ? 0u : 1u);
  }
  EXPECT_GT((*st)->stats().largest_batch, 1u);
  (*st)->Stop();

  // The reference: a plain store applying one transaction per commit.
  MemFileSystem serial_fs;
  store::StoreOptions serial_options;
  serial_options.fs = &serial_fs;
  serial_options.sync_each_update = false;
  auto serial = store::DocumentStore::Create("db", BaseTree(), "dewey",
                                             serial_options);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  for (const std::vector<UpdateRequest>& txn : txns) {
    const store::DocumentStore::BatchMark mark = (*serial)->Mark();
    common::Status status;
    for (const UpdateRequest& request : txn) {
      status = updates::ApplyUpdate(serial->get(), request, nullptr);
      if (!status.ok()) break;
    }
    if (!status.ok()) {
      ASSERT_TRUE((*serial)->RollbackTail(mark).ok());
    }
    ASSERT_TRUE((*serial)->CommitBatch().ok());
  }
  auto batched_journal = batched_fs.ReadFile("db/journal-000001");
  auto serial_journal = serial_fs.ReadFile("db/journal-000001");
  ASSERT_TRUE(batched_journal.ok() && serial_journal.ok());
  EXPECT_EQ(*batched_journal, *serial_journal);
}

TEST(ConcurrentStoreTest, ZeroQueueAndBatchAreClamped) {
  MemFileSystem fs;
  ConcurrentStoreOptions options;
  options.store.fs = &fs;
  options.queue_capacity = 0;  // would otherwise block every submitter
  options.max_batch = 0;       // would otherwise never drain the queue
  auto st = ConcurrentStore::Create("db", BaseTree(), "dewey", options);
  ASSERT_TRUE(st.ok()) << st.status().ToString();
  UpdateResult result = (*st)->Update(InsertChild(".", "c"));
  EXPECT_TRUE(result.status.ok()) << result.status.ToString();
}

TEST(ConcurrentStoreTest, ManyThreadsThroughATinyQueue) {
  MemFileSystem fs;
  ConcurrentStoreOptions options;
  options.store.fs = &fs;
  options.queue_capacity = 2;  // force backpressure
  options.max_batch = 4;
  auto st = ConcurrentStore::Create("db", BaseTree(), "dewey", options);
  ASSERT_TRUE(st.ok()) << st.status().ToString();

  constexpr int kThreads = 4;
  constexpr int kPerThread = 25;
  std::atomic<int> ok_count{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        UpdateResult result = (*st)->Update(InsertChild(
            ".", Name("t", t) + Name("x", i)));
        if (result.status.ok()) ++ok_count;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(ok_count.load(), kThreads * kPerThread);

  auto view = (*st)->PinView();
  auto hits = view->Query("/*");
  ASSERT_TRUE(hits.ok());
  EXPECT_EQ(hits->size(), 2u + kThreads * kPerThread);

  ConcurrentStoreStats stats = (*st)->stats();
  EXPECT_EQ(stats.updates_applied,
            static_cast<uint64_t>(kThreads * kPerThread));
  EXPECT_GE(stats.batches, 1u);
  EXPECT_LE(stats.largest_batch, 4u);
}

TEST(ConcurrentStoreTest, SubmitAfterStopFailsCleanly) {
  MemFileSystem fs;
  ConcurrentStoreOptions options;
  options.store.fs = &fs;
  auto st = ConcurrentStore::Create("db", BaseTree(), "dewey", options);
  ASSERT_TRUE(st.ok()) << st.status().ToString();
  (*st)->Stop();
  UpdateResult result = (*st)->Update(InsertChild(".", "late"));
  EXPECT_FALSE(result.status.ok());
  // Stop is idempotent; destruction after Stop is fine.
  (*st)->Stop();
}

// --- Durability -----------------------------------------------------------

TEST(ConcurrentStoreTest, AcknowledgedUpdatesSurviveRestart) {
  MemFileSystem fs;
  ConcurrentStoreOptions options;
  options.store.fs = &fs;
  std::string live_xml;
  {
    auto st = ConcurrentStore::Create("db", BaseTree(), "dewey", options);
    ASSERT_TRUE(st.ok()) << st.status().ToString();
    std::vector<std::future<UpdateResult>> futures;
    for (int i = 0; i < 10; ++i) {
      futures.push_back(
          (*st)->SubmitUpdate(InsertChild(".", Name("n", i))));
    }
    for (auto& f : futures) {
      ASSERT_TRUE(f.get().status.ok());
    }
    auto xml = (*st)->PinView()->SerializeXml();
    ASSERT_TRUE(xml.ok());
    live_xml = *xml;
    (*st)->Stop();
  }
  // Everything acknowledged was fsync'd; dropping unsynced directory
  // metadata (the crash model) must not lose any of it.
  fs.Crash();
  auto reopened = ConcurrentStore::Open("db", options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  auto xml = (*reopened)->PinView()->SerializeXml();
  ASSERT_TRUE(xml.ok());
  EXPECT_EQ(*xml, live_xml);
}

TEST(ConcurrentStoreTest, CommitFailureIsNeverAcknowledgedAsSuccess) {
  MemFileSystem fs;
  ConcurrentStoreOptions options;
  options.store.fs = &fs;
  auto st = ConcurrentStore::Create("db", BaseTree(), "dewey", options);
  ASSERT_TRUE(st.ok()) << st.status().ToString();

  // The batch's one fsync fails: the apply succeeded in memory, but the
  // future must resolve with the failure — acknowledged implies durable,
  // so an undurable update is not acknowledged.
  fs.FailNextSyncs(1);
  UpdateResult result = (*st)->Update(InsertChild(".", "ghost"));
  EXPECT_FALSE(result.status.ok());
}

TEST(ConcurrentStoreTest, CheckpointsRollBetweenBatches) {
  MemFileSystem fs;
  ConcurrentStoreOptions options;
  options.store.fs = &fs;
  options.store.checkpoint.max_journal_records = 4;
  auto st = ConcurrentStore::Create("db", BaseTree(), "dewey", options);
  ASSERT_TRUE(st.ok()) << st.status().ToString();
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(
        (*st)->Update(InsertChild(".", Name("n", i))).status.ok());
  }
  EXPECT_GE((*st)->stats().checkpoints, 1u);
  // Reopen after the rolls: full state intact.
  std::string live_xml = *(*st)->PinView()->SerializeXml();
  (*st)->Stop();
  auto reopened = ConcurrentStore::Open("db", options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(*(*reopened)->PinView()->SerializeXml(), live_xml);
}

TEST(ConcurrentStoreTest, CheckpointFailureIsCountedAndRetried) {
  MemFileSystem fs;
  ConcurrentStoreOptions options;
  options.store.fs = &fs;
  options.store.checkpoint.max_journal_records = 1;
  auto st = ConcurrentStore::Create("db", BaseTree(), "dewey", options);
  ASSERT_TRUE(st.ok()) << st.status().ToString();
  obs::Counter* failures =
      obs::GlobalMetrics().GetCounter("cstore.checkpoint_failures");
  const uint64_t failures_before = failures->value();

  // Sync order: the batch's journal fsync (let through), then the
  // checkpoint's snapshot-file fsync (failed). The update is acked; the
  // due checkpoint fails without poisoning the store.
  fs.FailSyncs(1, 1);
  ASSERT_TRUE((*st)->Update(InsertChild(".", "first")).status.ok());
  // The writer is sequential: by the time this batch is acked, the failed
  // checkpoint of the previous round has been counted. Its own due
  // checkpoint then succeeds.
  ASSERT_TRUE((*st)->Update(InsertChild(".", "second")).status.ok());
  EXPECT_EQ((*st)->stats().checkpoint_failures, 1u);
  if (obs::kMetricsEnabled) {
    EXPECT_EQ(failures->value() - failures_before, 1u);
  }
  std::string live_xml = *(*st)->PinView()->SerializeXml();
  (*st)->Stop();
  EXPECT_GE((*st)->stats().checkpoints, 1u);
  EXPECT_EQ((*st)->stats().checkpoint_failures, 1u);
  auto reopened = ConcurrentStore::Open("db", options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(*(*reopened)->PinView()->SerializeXml(), live_xml);
}

TEST(ConcurrentStoreTest, PersistentCheckpointFailureBacksOff) {
  MemFileSystem fs;
  ConcurrentStoreOptions options;
  options.store.fs = &fs;
  options.store.checkpoint.max_journal_records = 1;  // due after each batch
  auto st = ConcurrentStore::Create("db", BaseTree(), "dewey", options);
  ASSERT_TRUE(st.ok()) << st.status().ToString();

  // Every snapshot sync fails, every journal sync succeeds: each batch is
  // acked and leaves a checkpoint due. Without backoff the writer would
  // write a whole snapshot after each of the 64 batches; with it, the
  // attempts fall on due batches 1, 2, 4, 8, 16, 32 and 64.
  fs.FailSyncsContaining("snapshot-");
  int acked = 0;
  for (int i = 0; i < 64; ++i, ++acked) {
    ASSERT_TRUE((*st)->Update(InsertChild(".", Name("n", i))).status.ok());
  }
  const uint64_t failures = (*st)->stats().checkpoint_failures;
  EXPECT_GE(failures, 1u);
  EXPECT_LE(failures, 7u);
  EXPECT_EQ((*st)->stats().checkpoints, 0u);

  // Once the fault clears, a later due batch checkpoints successfully.
  fs.FailSyncsContaining("");
  for (int i = 64; i < 64 + 128 && (*st)->stats().checkpoints == 0;
       ++i, ++acked) {
    ASSERT_TRUE((*st)->Update(InsertChild(".", Name("n", i))).status.ok());
  }
  const std::string live_xml = *(*st)->PinView()->SerializeXml();
  (*st)->Stop();
  EXPECT_GE((*st)->stats().checkpoints, 1u);

  auto reopened = ConcurrentStore::Open("db", options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  auto view = (*reopened)->PinView();
  EXPECT_EQ(*view->SerializeXml(), live_xml);
  EXPECT_EQ((*view->Query("/*")).size(), 2u + static_cast<size_t>(acked));
}

TEST(ConcurrentStoreTest, GroupCommitAccountingIsVisible) {
  MemFileSystem fs;
  ConcurrentStoreOptions options;
  options.store.fs = &fs;
  auto st = ConcurrentStore::Create("db", BaseTree(), "dewey", options);
  ASSERT_TRUE(st.ok()) << st.status().ToString();
  std::vector<std::future<UpdateResult>> futures;
  for (int i = 0; i < 50; ++i) {
    futures.push_back(
        (*st)->SubmitUpdate(InsertChild(".", Name("n", i))));
  }
  for (auto& f : futures) ASSERT_TRUE(f.get().status.ok());
  ConcurrentStoreStats stats = (*st)->stats();
  EXPECT_EQ(stats.updates_applied, 50u);
  // One fsync per batch, not per update: the batch count bounds the sync
  // count, and both bound 50 from below only through batching.
  EXPECT_LE(stats.batches, 50u);
  EXPECT_GE(stats.largest_batch, 1u);
}

}  // namespace
}  // namespace xmlup::concurrency
