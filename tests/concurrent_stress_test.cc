// Readers-versus-writer stress: reader threads continuously pin views and
// re-read them while the writer commits batches and checkpoints (with
// deliberately tiny thresholds, so the journal rolls and the arena
// compacts many times during the run). A pinned view must stay
// bit-identical — same serialized XML, same label bytes — no matter how
// many checkpoints happen underneath it, and every freshly pinned view
// must be internally consistent. Run under TSan this is also the data-race
// proof for the publication protocol.

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "concurrency/concurrent_store.h"
#include "store/file.h"
#include "support/label_bytes.h"
#include "updates/update.h"
#include "xml/parser.h"

namespace xmlup::concurrency {
namespace {

using store::MemFileSystem;
using updates::UpdateRequest;
using updates::UpdateResult;
using test_support::LabelBytes;

std::string Name(const char* prefix, int i) {
  std::string out = prefix;
  out += std::to_string(i);
  return out;
}

xml::Tree BaseTree() {
  auto tree = xml::ParseDocument(
      "<root><a>alpha</a><b>beta</b><c>gamma</c></root>");
  EXPECT_TRUE(tree.ok());
  return std::move(*tree);
}

class ConcurrentStressTest : public ::testing::TestWithParam<std::string> {};

TEST_P(ConcurrentStressTest, PinnedViewsStayBitIdenticalAcrossCheckpoints) {
  MemFileSystem fs;
  ConcurrentStoreOptions options;
  options.store.fs = &fs;
  // Roll the journal every few records: the run checkpoints constantly.
  options.store.checkpoint.max_journal_records = 8;
  options.max_batch = 8;
  auto st = ConcurrentStore::Create("db", BaseTree(), GetParam(), options);
  ASSERT_TRUE(st.ok()) << st.status().ToString();

  constexpr int kReaders = 4;
  constexpr int kWriterOps = 120;
  std::atomic<bool> done{false};
  std::atomic<int> reader_failures{0};

  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      uint64_t last_epoch = 0;
      while (!done.load(std::memory_order_acquire)) {
        std::shared_ptr<const ReadView> view = (*st)->PinView();
        if (view == nullptr) {
          ++reader_failures;
          return;
        }
        // Epochs never go backwards for a reader pinning repeatedly.
        if (view->epoch() < last_epoch) {
          ++reader_failures;
          return;
        }
        last_epoch = view->epoch();

        // Freeze the view's state, keep the pin across a few writer
        // batches, then re-read: every byte must be unchanged.
        auto xml_before = view->SerializeXml();
        auto labels_before = LabelBytes(view->document());
        auto hits_before = view->Query("//*");
        if (!xml_before.ok() || !hits_before.ok()) {
          ++reader_failures;
          return;
        }
        std::this_thread::yield();
        auto xml_after = view->SerializeXml();
        auto hits_after = view->Query("//*");
        if (!xml_after.ok() || *xml_after != *xml_before ||
            LabelBytes(view->document()) != labels_before ||
            !hits_after.ok() || *hits_after != *hits_before) {
          ++reader_failures;
          return;
        }
      }
    });
  }

  for (int i = 0; i < kWriterOps; ++i) {
    UpdateRequest request;
    if (i % 7 == 3) {
      request.op = UpdateRequest::Op::kDelete;
      request.xpath = Name("/x", i - 3);
    } else {
      request.op = UpdateRequest::Op::kInsertChild;
      request.xpath = ".";
      request.kind = xml::NodeKind::kElement;
      request.name = Name("x", i);
      request.value = "";
    }
    UpdateResult result = (*st)->Update(std::move(request));
    ASSERT_TRUE(result.status.ok())
        << "op " << i << ": " << result.status.ToString();
  }

  done.store(true, std::memory_order_release);
  for (auto& th : readers) th.join();
  EXPECT_EQ(reader_failures.load(), 0);
  EXPECT_GE((*st)->stats().checkpoints, 2u)
      << "thresholds did not force checkpoints; the test lost its point";

  // And the store survived all of it: restart agrees with the live state.
  std::string live_xml = *(*st)->PinView()->SerializeXml();
  (*st)->Stop();
  auto reopened = ConcurrentStore::Open("db", options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(*(*reopened)->PinView()->SerializeXml(), live_xml);
}

// Mixed submitters and readers with a small queue: backpressure, group
// commit and view publication all running at once. TSan-clean is the
// main assertion; the counts make it a correctness test as well.
TEST_P(ConcurrentStressTest, SubmittersAndReadersDontTread) {
  MemFileSystem fs;
  ConcurrentStoreOptions options;
  options.store.fs = &fs;
  options.queue_capacity = 4;
  options.store.checkpoint.max_journal_records = 16;
  auto st = ConcurrentStore::Create("db", BaseTree(), GetParam(), options);
  ASSERT_TRUE(st.ok()) << st.status().ToString();

  constexpr int kSubmitters = 3;
  constexpr int kPerThread = 30;
  std::atomic<bool> done{false};
  std::atomic<int> ok_updates{0};
  std::atomic<int> reader_failures{0};

  std::vector<std::thread> threads;
  for (int t = 0; t < kSubmitters; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        UpdateRequest request;
        request.op = UpdateRequest::Op::kInsertChild;
        request.xpath = ".";
        request.kind = xml::NodeKind::kElement;
        request.name = Name("s", t) + Name("x", i);
        if ((*st)->Update(std::move(request)).status.ok()) ++ok_updates;
      }
    });
  }
  for (int r = 0; r < 2; ++r) {
    threads.emplace_back([&] {
      while (!done.load(std::memory_order_acquire)) {
        auto view = (*st)->PinView();
        auto hits = view->Query("/*");
        if (!hits.ok() || hits->size() < 3) {
          ++reader_failures;
          return;
        }
      }
    });
  }
  for (int t = 0; t < kSubmitters; ++t) threads[t].join();
  done.store(true, std::memory_order_release);
  for (size_t t = kSubmitters; t < threads.size(); ++t) threads[t].join();

  EXPECT_EQ(ok_updates.load(), kSubmitters * kPerThread);
  EXPECT_EQ(reader_failures.load(), 0);
  auto final_hits = (*st)->PinView()->Query("/*");
  ASSERT_TRUE(final_hits.ok());
  EXPECT_EQ(final_hits->size(), 3u + kSubmitters * kPerThread);
}

INSTANTIATE_TEST_SUITE_P(Schemes, ConcurrentStressTest,
                         ::testing::Values("dewey", "ordpath"),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           return info.param;
                         });

}  // namespace
}  // namespace xmlup::concurrency
