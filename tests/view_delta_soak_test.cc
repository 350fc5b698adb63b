// Differential soak for O(delta) view publication: a delta-publishing
// store and a twin forced through the full snapshot round-trip
// (force_snapshot_views) receive an identical update stream — inserts at
// label-stressing positions, value updates, deletes, and multi-request
// transactions that fail partway (exercising rollback and capture
// truncation). After every few acknowledged steps the two published
// views must be bit-identical: same serialized XML, same label bytes in
// document order, same query answers. Every scheme runs twice: once with
// budgets shrunk until relabels/overflows force the snapshot fallback
// constantly, once with roomy budgets so the delta path carries the run.
// Checkpoints roll every few records (arena compaction → lineage bumps),
// the pipeline audits every delta publication (crosscheck_every = 1),
// and reader threads race publication throughout. Under TSan this is the
// data-race proof for the two-stage write pipeline.

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "concurrency/concurrent_store.h"
#include "labels/registry.h"
#include "store/file.h"
#include "updates/update.h"
#include "xml/parser.h"

namespace xmlup::concurrency {
namespace {

using store::MemFileSystem;
using updates::UpdateRequest;
using updates::UpdateResult;

// LSDX and Com-D reproduce the documented Sans & Laurent collision (see
// lsdx_scheme_test.cc): under front insertions they assign duplicate
// labels, which the snapshot round-trip's uniqueness verification
// rejects at publish time while the delta path faithfully mirrors the
// live document. A differential run can therefore never agree for them;
// every other scheme must match bit for bit.
std::vector<std::string> SoakSchemeNames() {
  std::vector<std::string> names;
  for (const std::string& name : labels::AllSchemeNames()) {
    if (name == "lsdx" || name == "com-d") continue;
    names.push_back(name);
  }
  return names;
}

// Stops and joins the racing readers on every exit path — including the
// early returns ASSERT_* generates — so a soak failure reports cleanly
// instead of terminating in ~thread().
struct ReaderPool {
  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  ~ReaderPool() {
    stop.store(true, std::memory_order_release);
    for (auto& reader : readers) reader.join();
  }
};

xml::Tree BaseTree() {
  auto tree = xml::ParseDocument(
      "<root><a>alpha</a><b>beta</b><c>gamma</c></root>");
  EXPECT_TRUE(tree.ok());
  return std::move(*tree);
}

std::vector<std::string> ViewLabels(const ReadView& view) {
  std::vector<std::string> out;
  const core::LabeledDocument& doc = view.document();
  for (xml::NodeId n : doc.tree().PreorderNodes()) {
    out.push_back(doc.label(n).bytes());
  }
  return out;
}

UpdateRequest Insert(UpdateRequest::Op op, std::string xpath,
                     std::string name, std::string value) {
  UpdateRequest request;
  request.op = op;
  request.xpath = std::move(xpath);
  request.kind = xml::NodeKind::kElement;
  request.name = std::move(name);
  request.value = std::move(value);
  return request;
}

// One deterministic transaction per step; the mix hits every DeltaOp
// kind, front insertions (the label-budget stressor), and — every 11th
// step — a transaction whose second request fails, so the first request
// must be rolled back out of the journal AND the delta capture.
std::vector<UpdateRequest> StepRequests(int step) {
  std::vector<UpdateRequest> requests;
  switch (step % 11) {
    case 0:
    case 1:
    case 2:
      requests.push_back(Insert(UpdateRequest::Op::kInsertChild, "/a",
                                "n" + std::to_string(step),
                                std::to_string(step)));
      break;
    case 3:
      // Front sibling insertion: the worst case for gap-based budgets.
      requests.push_back(Insert(UpdateRequest::Op::kInsertBefore, "/b",
                                "f" + std::to_string(step), ""));
      break;
    case 4:
      requests.push_back(Insert(UpdateRequest::Op::kInsertAfter, "/a",
                                "g" + std::to_string(step), ""));
      break;
    case 5: {
      UpdateRequest request;
      request.op = UpdateRequest::Op::kSetValue;
      request.xpath = "/c";
      request.value = "v" + std::to_string(step);
      requests.push_back(request);
      break;
    }
    case 6: {
      // Delete a child inserted a few steps ago (step-6 hit case 0..2).
      UpdateRequest request;
      request.op = UpdateRequest::Op::kDelete;
      request.xpath = "/a/n" + std::to_string(step - 6);
      requests.push_back(request);
      break;
    }
    case 7:
      // Two inserts in one all-or-nothing transaction.
      requests.push_back(Insert(UpdateRequest::Op::kInsertChild, "/b",
                                "p" + std::to_string(step), "x"));
      requests.push_back(Insert(UpdateRequest::Op::kInsertChild, "/b",
                                "q" + std::to_string(step), "y"));
      break;
    case 8:
    case 9:
      requests.push_back(Insert(UpdateRequest::Op::kInsertChild, "/c",
                                "m" + std::to_string(step), ""));
      break;
    case 10:
      // Applies an insert, then fails on an unparsable XPath: the whole
      // transaction rolls back on both stores.
      requests.push_back(Insert(UpdateRequest::Op::kInsertChild, "/a",
                                "dead" + std::to_string(step), ""));
      requests.push_back(Insert(UpdateRequest::Op::kInsertChild, "///",
                                "never", ""));
      break;
  }
  return requests;
}

void ExpectViewsIdentical(const ReadView& delta_view,
                          const ReadView& snap_view, int step) {
  auto delta_xml = delta_view.SerializeXml();
  auto snap_xml = snap_view.SerializeXml();
  ASSERT_TRUE(delta_xml.ok() && snap_xml.ok());
  ASSERT_EQ(*delta_xml, *snap_xml) << "XML diverged at step " << step;
  ASSERT_EQ(ViewLabels(delta_view), ViewLabels(snap_view))
      << "labels diverged at step " << step;
  auto delta_hits = delta_view.Query("//a");
  auto snap_hits = snap_view.Query("//a");
  ASSERT_TRUE(delta_hits.ok() && snap_hits.ok());
  ASSERT_EQ(delta_hits->size(), snap_hits->size())
      << "query diverged at step " << step;
  for (size_t i = 0; i < delta_hits->size(); ++i) {
    ASSERT_EQ(delta_view.StringValue((*delta_hits)[i]),
              snap_view.StringValue((*snap_hits)[i]))
        << "string-value diverged at step " << step;
  }
}

void RunSoak(const std::string& scheme, const labels::SchemeOptions& budgets,
             int steps, ConcurrentStoreStats* delta_stats) {
  MemFileSystem delta_fs;
  ConcurrentStoreOptions delta_options;
  delta_options.store.fs = &delta_fs;
  delta_options.store.scheme_options = budgets;
  // Roll the journal constantly: every checkpoint compacts the arena and
  // bumps the delta lineage, invalidating every recycled view.
  delta_options.store.checkpoint.max_journal_records = 48;
  delta_options.max_batch = 8;
  delta_options.crosscheck_every = 1;  // audit every delta publication

  ConcurrentStoreOptions snap_options = delta_options;
  MemFileSystem snap_fs;
  snap_options.store.fs = &snap_fs;
  snap_options.force_snapshot_views = true;

  auto delta_st =
      ConcurrentStore::Create("db", BaseTree(), scheme, delta_options);
  ASSERT_TRUE(delta_st.ok()) << delta_st.status().ToString();
  auto snap_st =
      ConcurrentStore::Create("db", BaseTree(), scheme, snap_options);
  ASSERT_TRUE(snap_st.ok()) << snap_st.status().ToString();

  // Readers race publication on the delta store: pin, serialize, query.
  // They assert nothing — their job is to hold pins at awkward moments
  // (forcing the recycler down its miss paths) and, under TSan, to
  // witness every load the publication protocol performs.
  ReaderPool pool;
  for (int r = 0; r < 2; ++r) {
    pool.readers.emplace_back([&] {
      while (!pool.stop.load(std::memory_order_acquire)) {
        std::shared_ptr<const ReadView> view = (*delta_st)->PinView();
        auto xml = view->SerializeXml();
        auto hits = view->Query("//a");
        if (!xml.ok() || !hits.ok()) std::abort();
      }
    });
  }

  for (int step = 0; step < steps; ++step) {
    std::vector<UpdateRequest> requests = StepRequests(step);
    std::future<UpdateResult> delta_future =
        (*delta_st)->SubmitTransaction(requests);
    std::future<UpdateResult> snap_future =
        (*snap_st)->SubmitTransaction(std::move(requests));
    UpdateResult delta_result = delta_future.get();
    UpdateResult snap_result = snap_future.get();
    ASSERT_EQ(delta_result.status.ok(), snap_result.status.ok())
        << "step " << step << ": delta=" << delta_result.status.ToString()
        << " snap=" << snap_result.status.ToString();
    ASSERT_EQ(delta_result.matched, snap_result.matched) << "step " << step;
    if (step % 5 == 4) {
      std::shared_ptr<const ReadView> delta_view = (*delta_st)->PinView();
      std::shared_ptr<const ReadView> snap_view = (*snap_st)->PinView();
      ExpectViewsIdentical(*delta_view, *snap_view, step);
    }
  }

  std::shared_ptr<const ReadView> delta_view = (*delta_st)->PinView();
  std::shared_ptr<const ReadView> snap_view = (*snap_st)->PinView();
  ExpectViewsIdentical(*delta_view, *snap_view, steps);
  *delta_stats = (*delta_st)->stats();
}

class ViewDeltaSoakTest : public ::testing::TestWithParam<std::string> {};

TEST_P(ViewDeltaSoakTest, MatchesSnapshotTwinWithRoomyBudgets) {
  // Default budgets: most batches delta-apply, so the run proves the
  // O(delta) fast path (and its every-publication cross-check audit)
  // reproduces the snapshot round-trip bit for bit.
  ConcurrentStoreStats stats;
  RunSoak(GetParam(), labels::SchemeOptions{}, 220, &stats);
  EXPECT_GT(stats.views_published, 0u);
  EXPECT_GE(stats.crosschecks, 1u);
  EXPECT_EQ(stats.crosscheck_failures, 0u);
}

TEST_P(ViewDeltaSoakTest, MatchesSnapshotTwinWithTightBudgets) {
  // Budgets shrunk until front insertions overflow/relabel constantly:
  // most batches are dirty, so the run soaks the snapshot-fallback rule
  // and the ring restarts around it.
  labels::SchemeOptions tight;
  tight.dln_max_components = 3;
  tight.ordpath_max_code_bits = 64;
  tight.prime_order_gap = 4;
  tight.prepost_gap = 8;
  ConcurrentStoreStats stats;
  RunSoak(GetParam(), tight, 220, &stats);
  EXPECT_GT(stats.views_published, 0u);
  EXPECT_GE(stats.crosschecks, 1u);
  EXPECT_EQ(stats.crosscheck_failures, 0u);
}

INSTANTIATE_TEST_SUITE_P(Schemes, ViewDeltaSoakTest,
                         ::testing::ValuesIn(SoakSchemeNames()),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

}  // namespace
}  // namespace xmlup::concurrency
