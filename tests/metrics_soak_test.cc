// Differential metrics soak: one seeded random edit workload replayed
// through the plain journaled DocumentStore and through the
// ConcurrentStore group-commit pipeline, asserting that the two runs are
// indistinguishable — same final document, same journal, and the same
// deterministic metrics snapshot — and that the metrics reconcile with
// ground truth the test tracks itself (records journaled == records
// counted, acked transactions == committed batch mass, recovery replays
// == recorded appends).
//
// Everything runs on a MemFileSystem with a fixed seed, so the asserted
// counter values are exact, not statistical.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

// GCC 12's -Wrestrict misfires on inlined std::string small-buffer copies
// in the workload builder (GCC bug 105329); nothing here aliases.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wrestrict"
#endif

#include "common/rng.h"
#include "concurrency/concurrent_store.h"
#include "observability/metrics.h"
#include "store/document_store.h"
#include "updates/update.h"
#include "xml/parser.h"
#include "xml/serializer.h"

namespace xmlup {
namespace {

using concurrency::ConcurrentStore;
using concurrency::ConcurrentStoreOptions;
using updates::UpdateRequest;
using updates::UpdateResult;
using store::DocumentStore;
using store::MemFileSystem;
using store::StoreOptions;

constexpr char kSeedDoc[] =
    "<library><shelf><book>Iliad</book></shelf></library>";
constexpr uint64_t kSeed = 0xD1FFC0DEull;
constexpr size_t kTxnCount = 60;

xml::Tree ParseOrDie(std::string_view text) {
  auto tree = xml::ParseDocument(text);
  EXPECT_TRUE(tree.ok()) << tree.status().ToString();
  return std::move(*tree);
}

// One all-or-nothing transaction of the workload. `valid` is the model's
// prediction: a transaction containing a malformed or unmatched XPath
// fails as a whole (ApplyUpdate resolves before mutating; the pipeline
// rolls back anything applied before the failing request).
struct Txn {
  std::vector<UpdateRequest> requests;
  bool valid = true;
  /// The failing request is not the first one, so valid requests applied
  /// (and journaled) before it — rolling back must truncate, which is the
  /// only path that counts a store.rollback. A transaction failing on its
  /// first request leaves the journal untouched and rolls back for free.
  bool rolls_back = false;
};

// Deterministic workload over a client-side mirror of the document's
// top-level children: inserts of uniquely named elements, value updates
// and deletes of live ones, plus two failure flavours (unmatched target,
// malformed XPath). Mirror effects commit only when the whole transaction
// is valid — exactly the all-or-nothing contract under test.
std::vector<Txn> MakeWorkload(uint64_t seed, size_t count) {
  common::SplitMix64 rng(seed);
  std::vector<std::string> live;
  int next_id = 0;
  std::vector<Txn> txns;
  for (size_t t = 0; t < count; ++t) {
    Txn txn;
    const size_t n = 1 + rng.NextBelow(3);
    std::vector<std::string> txn_live = live;
    int txn_next = next_id;
    for (size_t r = 0; r < n; ++r) {
      const uint64_t pick = rng.NextBelow(10);
      UpdateRequest req;
      if (pick < 4 || txn_live.empty()) {
        req.op = UpdateRequest::Op::kInsertChild;
        req.xpath = ".";
        req.kind = xml::NodeKind::kElement;
        req.name = "n";
        req.name += std::to_string(txn_next);
        req.value = "v";
        req.value += std::to_string(txn_next);
        txn_live.push_back(req.name);
        ++txn_next;
      } else if (pick < 6) {
        req.op = UpdateRequest::Op::kSetValue;
        req.xpath = txn_live[rng.NextBelow(txn_live.size())];
        req.value = "w";
        req.value += std::to_string(t);
        req.value += '_';
        req.value += std::to_string(r);
      } else if (pick < 8) {
        const size_t i = rng.NextBelow(txn_live.size());
        req.op = UpdateRequest::Op::kDelete;
        req.xpath = txn_live[i];
        txn_live.erase(txn_live.begin() + static_cast<ptrdiff_t>(i));
      } else if (pick == 8) {
        // Unmatched target: ApplyUpdate returns NotFound before mutating.
        req.op = UpdateRequest::Op::kDelete;
        req.xpath = "ghost";
        if (txn.valid) {
          txn.valid = false;
          txn.rolls_back = r > 0;
        }
      } else {
        // Malformed XPath: rejected at parse time.
        req.op = UpdateRequest::Op::kSetValue;
        req.xpath = "][";
        req.value = "x";
        if (txn.valid) {
          txn.valid = false;
          txn.rolls_back = r > 0;
        }
      }
      txn.requests.push_back(std::move(req));
    }
    if (txn.valid) {
      live = std::move(txn_live);
      next_id = txn_next;
    }
    txns.push_back(std::move(txn));
  }
  return txns;
}

// The deterministic registry snapshot as a map, for by-name comparisons.
std::map<std::string, std::string> Fields() {
  std::map<std::string, std::string> out;
  for (auto& [name, value] : obs::GlobalMetrics().TextFields(false)) {
    out[name] = value;
  }
  return out;
}

uint64_t FieldU64(const std::map<std::string, std::string>& fields,
                  const std::string& name) {
  auto it = fields.find(name);
  EXPECT_NE(it, fields.end()) << "missing metric " << name;
  if (it == fields.end()) return 0;
  return std::stoull(it->second);
}

struct RunOutcome {
  std::string xml;
  uint64_t acked = 0;
  uint64_t failed = 0;
  uint64_t journal_records = 0;  // StoreStats ground truth at close
  std::map<std::string, std::string> fields;
  std::string text;  // full RenderText snapshot
};

// The workload through a plain DocumentStore, mirroring the pipeline's
// per-transaction protocol: mark, apply, rollback-on-failure, one group
// commit per transaction.
RunOutcome RunPlainStore(const std::vector<Txn>& txns, MemFileSystem* fs) {
  RunOutcome out;
  obs::GlobalMetrics().Reset();
  StoreOptions options;
  options.fs = fs;
  options.sync_each_update = false;
  options.auto_checkpoint = false;
  auto store =
      DocumentStore::Create("db", ParseOrDie(kSeedDoc), "ordpath", options);
  EXPECT_TRUE(store.ok()) << store.status().ToString();
  for (const Txn& txn : txns) {
    const DocumentStore::BatchMark mark = (*store)->Mark();
    common::Status status;
    for (const UpdateRequest& req : txn.requests) {
      status = updates::ApplyUpdate(store->get(), req, nullptr);
      if (!status.ok()) break;
    }
    if (status.ok()) {
      ++out.acked;
    } else {
      EXPECT_TRUE((*store)->RollbackTail(mark).ok());
      ++out.failed;
    }
    EXPECT_TRUE((*store)->CommitBatch().ok());
    EXPECT_EQ(status.ok(), txn.valid);
  }
  auto xml = xml::SerializeDocument((*store)->document().tree());
  EXPECT_TRUE(xml.ok());
  out.xml = *xml;
  out.journal_records = (*store)->stats().journal_records;
  out.fields = Fields();
  out.text = obs::GlobalMetrics().RenderText(false);
  return out;
}

// The same workload through the group-commit pipeline, one transaction
// in flight at a time (so batches — and therefore fsyncs — line up 1:1
// with the plain run).
RunOutcome RunConcurrent(const std::vector<Txn>& txns, MemFileSystem* fs) {
  RunOutcome out;
  obs::GlobalMetrics().Reset();
  ConcurrentStoreOptions options;
  options.store.fs = fs;
  auto engine =
      ConcurrentStore::Create("db", ParseOrDie(kSeedDoc), "ordpath", options);
  EXPECT_TRUE(engine.ok()) << engine.status().ToString();
  for (const Txn& txn : txns) {
    UpdateResult result =
        (*engine)->SubmitTransaction(txn.requests).get();
    if (result.status.ok()) {
      ++out.acked;
    } else {
      ++out.failed;
    }
    EXPECT_EQ(result.status.ok(), txn.valid);
  }
  (*engine)->Stop();
  auto xml = (*engine)->PinView()->SerializeXml();
  EXPECT_TRUE(xml.ok());
  out.xml = *xml;
  out.fields = Fields();
  out.text = obs::GlobalMetrics().RenderText(false);
  return out;
}

TEST(MetricsSoakTest, DifferentialPlainVsConcurrent) {
  const std::vector<Txn> txns = MakeWorkload(kSeed, kTxnCount);
  MemFileSystem fs_a;
  RunOutcome a = RunPlainStore(txns, &fs_a);
  MemFileSystem fs_b;
  RunOutcome b = RunConcurrent(txns, &fs_b);

  // The workload must exercise every path or the differential is hollow.
  ASSERT_GT(a.acked, 0u);
  ASSERT_GT(a.failed, 0u);
  EXPECT_EQ(a.acked, b.acked);
  EXPECT_EQ(a.failed, b.failed);
  EXPECT_EQ(a.acked + a.failed, kTxnCount);

  // Same final document through both pipelines.
  EXPECT_EQ(a.xml, b.xml);

  if (!obs::kMetricsEnabled) return;

  // Per-scheme document counters are deterministic functions of the
  // request sequence, so the two runs must agree exactly. The plain run
  // replays rolled-back prefixes during RollbackTail (reload + journal
  // replay), which re-counts doc events the pipeline run also re-counts —
  // both go through the identical rollback path.
  for (const char* key :
       {"doc.ordpath.inserts", "doc.ordpath.removes",
        "doc.ordpath.value_updates", "doc.ordpath.relabels",
        "doc.ordpath.overflows", "doc.ordpath.label_bits_assigned"}) {
    EXPECT_EQ(a.fields.at(key), b.fields.at(key)) << key;
  }

  // Journal traffic is identical: records journaled == records counted.
  EXPECT_EQ(FieldU64(a.fields, "store.journal.appends"),
            FieldU64(b.fields, "store.journal.appends"));
  EXPECT_EQ(FieldU64(a.fields, "store.journal.append_bytes"),
            FieldU64(b.fields, "store.journal.append_bytes"));
  EXPECT_EQ(FieldU64(a.fields, "store.journal.appends") -
                FieldU64(a.fields, "store.rollback_records_dropped"),
            a.journal_records);

  // Acked transactions == committed batch mass: every transaction drains
  // into exactly one group commit in both runs, and the surviving journal
  // records are exactly the commit histogram's mass.
  EXPECT_EQ(FieldU64(a.fields, "store.commit.batch_records.count"),
            kTxnCount);
  EXPECT_EQ(FieldU64(b.fields, "store.commit.batch_records.count"),
            kTxnCount);
  EXPECT_EQ(FieldU64(a.fields, "store.commit.batch_records.sum"),
            a.journal_records);
  EXPECT_EQ(FieldU64(a.fields, "store.commit.batch_records.sum"),
            FieldU64(b.fields, "store.commit.batch_records.sum"));
  EXPECT_EQ(FieldU64(a.fields, "store.journal.fsync_ns.count"),
            FieldU64(b.fields, "store.journal.fsync_ns.count"));

  // Rollback accounting. The pipeline counts every failed transaction as
  // a txn_rollback; the store-level counter ticks only when the rollback
  // actually truncates (the failure was not the transaction's first
  // request) — the model predicts both exactly.
  uint64_t expected_truncating = 0;
  for (const Txn& txn : txns) {
    if (txn.rolls_back) ++expected_truncating;
  }
  ASSERT_GT(expected_truncating, 0u);
  EXPECT_EQ(FieldU64(a.fields, "store.rollbacks"), expected_truncating);
  EXPECT_EQ(FieldU64(b.fields, "store.rollbacks"), expected_truncating);
  EXPECT_EQ(FieldU64(b.fields, "cstore.txn_rollbacks"), b.failed);
  EXPECT_EQ(FieldU64(a.fields, "store.rollback_records_dropped"),
            FieldU64(b.fields, "store.rollback_records_dropped"));

  // Pipeline-side reconciliation: every submission accounted, acks match.
  EXPECT_EQ(FieldU64(b.fields, "cstore.submitted"), kTxnCount);
  EXPECT_EQ(FieldU64(b.fields, "cstore.acked"), b.acked);
  EXPECT_EQ(FieldU64(b.fields, "cstore.failed"), b.failed);
  EXPECT_EQ(FieldU64(b.fields, "cstore.batch_size.count"),
            FieldU64(b.fields, "cstore.commit_ns.count"));
}

TEST(MetricsSoakTest, RecoveryReplaysMatchRecordedAppends) {
  const std::vector<Txn> txns = MakeWorkload(kSeed, kTxnCount);
  MemFileSystem fs;
  RunOutcome run = RunPlainStore(txns, &fs);

  // Reopen the same directory: recovery must replay exactly the records
  // that survived the run (appends minus rolled-back tails), and the
  // recovered document must be byte-identical.
  obs::GlobalMetrics().Reset();
  StoreOptions options;
  options.fs = &fs;
  auto reopened = DocumentStore::Open("db", options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  auto xml = xml::SerializeDocument((*reopened)->document().tree());
  ASSERT_TRUE(xml.ok());
  EXPECT_EQ(*xml, run.xml);
  EXPECT_EQ((*reopened)->stats().recovered_records, run.journal_records);

  if (!obs::kMetricsEnabled) return;
  std::map<std::string, std::string> fields = Fields();
  EXPECT_EQ(FieldU64(fields, "store.recovery.opens"), 1u);
  EXPECT_EQ(FieldU64(fields, "store.recovery.replayed_records"),
            run.journal_records);
  EXPECT_EQ(FieldU64(fields, "store.recovery.truncated_bytes"), 0u);
  // Replay re-applies every surviving record through the same observer'd
  // document, so the recovery pass's doc event total equals the replayed
  // record count — the per-event invariant behind "recovery retraces the
  // original execution".
  EXPECT_EQ(FieldU64(fields, "doc.ordpath.inserts") +
                FieldU64(fields, "doc.ordpath.removes") +
                FieldU64(fields, "doc.ordpath.value_updates"),
            run.journal_records);
}

TEST(MetricsSoakTest, SnapshotIsByteStableAcrossIdenticalRuns) {
  if (!obs::kMetricsEnabled) {
    GTEST_SKIP() << "metrics compiled out (XMLUP_METRICS=OFF)";
  }
  const std::vector<Txn> txns = MakeWorkload(kSeed, kTxnCount);
  // Both runs execute with every cell of this binary already registered
  // (prior tests ran the full pipeline), so the renders cover the same
  // name set — the acceptance bar: identical runs, identical bytes.
  MemFileSystem fs1;
  RunOutcome first = RunPlainStore(txns, &fs1);
  MemFileSystem fs2;
  RunOutcome second = RunPlainStore(txns, &fs2);
  EXPECT_EQ(first.text, second.text);
  ASSERT_FALSE(first.text.empty());

  MemFileSystem fs3;
  RunOutcome c1 = RunConcurrent(txns, &fs3);
  MemFileSystem fs4;
  RunOutcome c2 = RunConcurrent(txns, &fs4);
  EXPECT_EQ(c1.text, c2.text);
}

}  // namespace
}  // namespace xmlup
