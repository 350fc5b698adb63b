// Concurrency subsystem benchmarks: read scaling across 1..N reader
// threads on pinned snapshot views (with and without a rate-paced
// concurrent writer), and update acknowledgement throughput under
// pipelined group commit versus per-update fsync — the fsync
// amortisation and overlap the two-stage write pipeline exists for. The
// self-timed sweep writes BENCH_concurrency.json; the registered
// microbenchmarks cover PinView and view-query cost.
//
// Methodology notes (hard-won):
//   * Update throughput is driven by *windowed* submitters: each keeps a
//     fixed number of asynchronous submissions in flight instead of
//     waiting for every ack before sending the next. Closed-loop
//     submitters cap offered load at submitters-per-fsync and can never
//     show batches growing under load; a window is how a real client
//     (replication feed, bulk loader, server session) actually drives a
//     group-commit pipeline.
//   * The concurrent writer in the read-scaling sweep is paced at a
//     fixed rate. A closed-loop writer measures reader interference at
//     "whatever the write path happens to sustain", so making the write
//     path faster silently makes the read numbers worse — an artifact,
//     not a regression.
//   * Reader measurement starts after a warmup and the JSON records
//     hardware_concurrency: on boxes with fewer cores than reader
//     threads, the flat (or noisy-degrading) tail is oversubscription,
//     not contention.

#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "concurrency/concurrent_store.h"
#include "observability/metrics.h"
#include "store/document_store.h"
#include "store/file.h"
#include "updates/update.h"
#include "xml/parser.h"

namespace {

using namespace xmlup;
using concurrency::ConcurrentStore;
using concurrency::ConcurrentStoreOptions;
using concurrency::ConcurrentStoreStats;
using concurrency::ReadView;
using updates::UpdateRequest;
using updates::UpdateResult;
using store::DocumentStore;
using store::MemFileSystem;
using store::StoreOptions;

constexpr char kScheme[] = "dewey";

// A moderately sized library: enough structure that queries do real work.
xml::Tree BuildTree(int shelves, int books_per_shelf) {
  std::string text = "<library>";
  for (int s = 0; s < shelves; ++s) {
    text += "<shelf id=\"s";
    text += std::to_string(s);
    text += "\">";
    for (int b = 0; b < books_per_shelf; ++b) {
      text += "<book><title>t";
      text += std::to_string(s * 100 + b);
      text += "</title><year>1900</year></book>";
    }
    text += "</shelf>";
  }
  text += "</library>";
  auto tree = xml::ParseDocument(text);
  if (!tree.ok()) std::abort();
  return std::move(*tree);
}

UpdateRequest InsertBook(int i) {
  UpdateRequest request;
  request.op = UpdateRequest::Op::kInsertChild;
  request.xpath = "/shelf[1]";
  request.kind = xml::NodeKind::kElement;
  request.name = "book";
  request.value = std::to_string(i);
  return request;
}

double MsSince(std::chrono::steady_clock::time_point start) {
  return static_cast<double>(
             std::chrono::duration_cast<std::chrono::microseconds>(
                 std::chrono::steady_clock::now() - start)
                 .count()) /
         1000.0;
}

// --- read scaling ----------------------------------------------------------

struct ReadPoint {
  int threads = 0;
  double queries_per_s = 0;         // readers alone
  double queries_per_s_writer = 0;  // same, with a writer paced at kWriterHz
};

// Fixed offered write load for the interference measurement (see the
// methodology note at the top of the file).
constexpr double kWriterHz = 500.0;

double MeasureReaders(ConcurrentStore* st, int threads, double warmup_ms,
                      double duration_ms, bool with_writer) {
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> queries{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        std::shared_ptr<const ReadView> view = st->PinView();
        auto hits = view->Query("//book/title");
        if (!hits.ok()) std::abort();
        benchmark::DoNotOptimize(hits->size());
        queries.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  std::thread writer;
  if (with_writer) {
    writer = std::thread([&] {
      const auto tick =
          std::chrono::microseconds(static_cast<long>(1e6 / kWriterHz));
      auto next = std::chrono::steady_clock::now();
      int i = 0;
      while (!stop.load(std::memory_order_acquire)) {
        next += tick;
        std::this_thread::sleep_until(next);
        if (!st->Update(InsertBook(i++)).status.ok()) std::abort();
      }
    });
  }
  std::this_thread::sleep_for(
      std::chrono::milliseconds(static_cast<long>(warmup_ms)));
  const uint64_t before = queries.load(std::memory_order_relaxed);
  const auto start = std::chrono::steady_clock::now();
  while (MsSince(start) < duration_ms) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  const double elapsed_ms = MsSince(start);
  const uint64_t after = queries.load(std::memory_order_relaxed);
  stop.store(true, std::memory_order_release);
  for (auto& w : workers) w.join();
  if (writer.joinable()) writer.join();
  return static_cast<double>(after - before) / (elapsed_ms / 1000.0);
}

std::vector<ReadPoint> MeasureReadScaling() {
  std::vector<ReadPoint> points;
  // Always sweep 1..4 (plus 8 when the hardware has it): on a small box
  // the flat tail is itself the datum — readers don't degrade each other.
  std::vector<int> counts = {1, 2, 4};
  if (std::thread::hardware_concurrency() >= 8) counts.push_back(8);
  for (int threads : counts) {
    // A fresh store per point so writer-grown documents don't skew the
    // later (larger) thread counts.
    ReadPoint point;
    point.threads = threads;
    {
      MemFileSystem fs;
      ConcurrentStoreOptions options;
      options.store.fs = &fs;
      auto st = ConcurrentStore::Create("db", BuildTree(10, 20), kScheme,
                                        options);
      if (!st.ok()) std::abort();
      point.queries_per_s =
          MeasureReaders(st->get(), threads, 100.0, 400.0, false);
    }
    {
      MemFileSystem fs;
      ConcurrentStoreOptions options;
      options.store.fs = &fs;
      auto st = ConcurrentStore::Create("db", BuildTree(10, 20), kScheme,
                                        options);
      if (!st.ok()) std::abort();
      point.queries_per_s_writer =
          MeasureReaders(st->get(), threads, 100.0, 400.0, true);
    }
    points.push_back(point);
  }
  return points;
}

// --- group commit vs per-update fsync --------------------------------------

// Both sides run on the REAL file system: the whole point is the price of
// fsync(2), which MemFileSystem does not charge.
std::string MakeTempDir() {
  char tmpl[] = "/tmp/xmlup_bench_XXXXXX";
  char* dir = mkdtemp(tmpl);
  if (dir == nullptr) std::abort();
  return dir;
}

struct SyncedRates {
  double updates_per_s = 0;
  double fsyncs_per_s = 0;
};

SyncedRates MeasurePerUpdateFsync(double duration_ms) {
  SyncedRates rates;
  const std::string dir = MakeTempDir();
  StoreOptions options;
  options.sync_each_update = true;
  options.auto_checkpoint = false;
  auto st = DocumentStore::Create(dir + "/db", BuildTree(2, 4), kScheme,
                                  options);
  if (!st.ok()) std::abort();
  xml::NodeId root = (*st)->document().tree().root();
  auto start = std::chrono::steady_clock::now();
  uint64_t updates = 0;
  while (MsSince(start) < duration_ms) {
    auto node =
        (*st)->InsertNode(root, xml::NodeKind::kElement, "book", "");
    if (!node.ok()) std::abort();
    ++updates;
  }
  double elapsed_ms = MsSince(start);
  rates.updates_per_s = static_cast<double>(updates) / (elapsed_ms / 1000.0);
  rates.fsyncs_per_s =
      static_cast<double>((*st)->stats().syncs) / (elapsed_ms / 1000.0);
  return rates;
}

struct GroupCommitPoint {
  int submitters = 0;
  size_t window = 1;  ///< In-flight submissions per submitter.
  double updates_per_s = 0;
  double fsyncs_per_s = 0;  // one per batch
  double mean_batch = 0;
  uint64_t views_delta = 0;    ///< Views published by O(delta) replay.
  uint64_t views_rebuilt = 0;  ///< Views published by full rebuild.
  // Stage-to-durable latency of a staged batch (queueing behind earlier
  // barriers + the fsync), from "cstore.commit_ns"; plus the pipeline's
  // per-stage attribution: writer-side view publication
  // ("cstore.publish_ns") and flusher-side barrier ("cstore.fsync_ns").
  // All zero when the metrics layer is compiled out.
  uint64_t commit_p50_ns = 0;
  uint64_t commit_p95_ns = 0;
  uint64_t commit_p99_ns = 0;
  uint64_t publish_p50_ns = 0;
  uint64_t fsync_p50_ns = 0;
};

// max_batch = 1 with window = 1 degrades the pipeline to one fsync per
// update — the apples-to-apples baseline for the group-commit comparison
// (same queue, same writer thread, same ack path; only the fsync
// amortisation differs). The headline group-commit points use a window
// so batches can actually grow under load.
GroupCommitPoint MeasureGroupCommit(int submitters, size_t max_batch,
                                    size_t window, double duration_ms) {
  GroupCommitPoint point;
  point.submitters = submitters;
  point.window = window;
  const std::string dir = MakeTempDir();
  ConcurrentStoreOptions options;
  options.max_batch = max_batch;
  auto st = ConcurrentStore::Create(dir + "/db", BuildTree(2, 4), kScheme,
                                    options);
  if (!st.ok()) std::abort();
  // Reset so the latency quantiles cover exactly this point's run.
  obs::GlobalMetrics().Reset();
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> acked{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < submitters; ++t) {
    threads.emplace_back([&, t] {
      int i = t * 1000000;
      uint64_t local = 0;
      std::deque<std::future<UpdateResult>> inflight;
      while (!stop.load(std::memory_order_acquire)) {
        while (inflight.size() < window) {
          inflight.push_back((*st)->SubmitUpdate(InsertBook(i++)));
        }
        if (!inflight.front().get().status.ok()) std::abort();
        inflight.pop_front();
        ++local;
      }
      while (!inflight.empty()) {
        if (!inflight.front().get().status.ok()) std::abort();
        inflight.pop_front();
        ++local;
      }
      acked.fetch_add(local);
    });
  }
  auto start = std::chrono::steady_clock::now();
  while (MsSince(start) < duration_ms) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  stop.store(true, std::memory_order_release);
  for (auto& th : threads) th.join();
  // Elapsed includes the in-flight drain after `stop` — at most
  // submitters*window acks, a few batches' worth.
  double elapsed_ms = MsSince(start);
  ConcurrentStoreStats stats = (*st)->stats();
  point.updates_per_s =
      static_cast<double>(acked.load()) / (elapsed_ms / 1000.0);
  point.fsyncs_per_s =
      static_cast<double>(stats.batches) / (elapsed_ms / 1000.0);
  point.mean_batch =
      stats.batches > 0 ? static_cast<double>(stats.updates_applied) /
                              static_cast<double>(stats.batches)
                        : 0.0;
  point.views_delta = stats.views_delta;
  point.views_rebuilt = stats.views_rebuilt;
  if (obs::kMetricsEnabled) {
    obs::Registry& reg = obs::GlobalMetrics();
    obs::Histogram* commit = reg.GetHistogram("cstore.commit_ns");
    point.commit_p50_ns = commit->ValueAtPercentile(50);
    point.commit_p95_ns = commit->ValueAtPercentile(95);
    point.commit_p99_ns = commit->ValueAtPercentile(99);
    point.publish_p50_ns =
        reg.GetHistogram("cstore.publish_ns")->ValueAtPercentile(50);
    point.fsync_p50_ns =
        reg.GetHistogram("cstore.fsync_ns")->ValueAtPercentile(50);
  }
  return point;
}

// --- self-timed JSON sweep -------------------------------------------------

void WriteJsonSweep() {
  FILE* out = std::fopen("BENCH_concurrency.json", "w");
  if (out == nullptr) return;

  std::fprintf(out, "{\n  \"hardware_concurrency\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(out, "  \"read_scaling_writer_hz\": %.0f,\n", kWriterHz);
  std::fprintf(out, "  \"read_scaling\": [\n");
  std::vector<ReadPoint> reads = MeasureReadScaling();
  for (size_t i = 0; i < reads.size(); ++i) {
    std::fprintf(out,
                 "    {\"threads\": %d, \"queries_per_s\": %.0f, "
                 "\"queries_per_s_with_writer\": %.0f}%s\n",
                 reads[i].threads, reads[i].queries_per_s,
                 reads[i].queries_per_s_writer,
                 i + 1 < reads.size() ? "," : "");
    std::fprintf(stderr,
                 "readers=%d: %.0f q/s alone, %.0f q/s with writer\n",
                 reads[i].threads, reads[i].queries_per_s,
                 reads[i].queries_per_s_writer);
  }
  std::fprintf(out, "  ],\n");

  // Raw single-threaded baseline: a plain DocumentStore fsyncing every
  // insert, with no queue or writer thread in the way.
  SyncedRates per_update = MeasurePerUpdateFsync(500.0);
  std::fprintf(out,
               "  \"direct_per_update_fsync\": {\"updates_per_s\": %.0f, "
               "\"fsyncs_per_s\": %.0f},\n",
               per_update.updates_per_s, per_update.fsyncs_per_s);
  std::fprintf(stderr,
               "direct per-update fsync: %.0f updates/s (%.0f fsync/s)\n",
               per_update.updates_per_s, per_update.fsyncs_per_s);

  // Pipeline comparison: max_batch=1/window=1 is one fsync per update
  // through the same queue and writer; group commit proper runs windowed
  // submitters so batches grow under load.
  const std::vector<int> submitter_counts = {1, 2, 4};
  for (int grouped = 0; grouped < 2; ++grouped) {
    std::fprintf(out, "  \"%s\": [\n",
                 grouped ? "group_commit" : "pipeline_per_update_fsync");
    for (size_t i = 0; i < submitter_counts.size(); ++i) {
      GroupCommitPoint point = MeasureGroupCommit(
          submitter_counts[i], grouped ? 256 : 1, grouped ? 32 : 1, 500.0);
      std::fprintf(out,
                   "    {\"submitters\": %d, \"window\": %zu, "
                   "\"updates_per_s\": %.0f, "
                   "\"fsyncs_per_s\": %.0f, \"mean_batch\": %.1f, "
                   "\"views_delta\": %llu, \"views_rebuilt\": %llu, "
                   "\"commit_ns_p50\": %llu, \"commit_ns_p95\": %llu, "
                   "\"commit_ns_p99\": %llu, \"publish_ns_p50\": %llu, "
                   "\"fsync_ns_p50\": %llu}%s\n",
                   point.submitters, point.window, point.updates_per_s,
                   point.fsyncs_per_s, point.mean_batch,
                   static_cast<unsigned long long>(point.views_delta),
                   static_cast<unsigned long long>(point.views_rebuilt),
                   static_cast<unsigned long long>(point.commit_p50_ns),
                   static_cast<unsigned long long>(point.commit_p95_ns),
                   static_cast<unsigned long long>(point.commit_p99_ns),
                   static_cast<unsigned long long>(point.publish_p50_ns),
                   static_cast<unsigned long long>(point.fsync_p50_ns),
                   i + 1 < submitter_counts.size() ? "," : "");
      std::fprintf(stderr,
                   "%s, %d submitters (window %zu): %.0f updates/s "
                   "(%.0f fsync/s, mean batch %.1f, views %llu delta / "
                   "%llu rebuilt, commit p50=%llu ns p99=%llu ns, "
                   "publish p50=%llu ns, fsync p50=%llu ns)\n",
                   grouped ? "group commit" : "pipeline per-update fsync",
                   point.submitters, point.window, point.updates_per_s,
                   point.fsyncs_per_s, point.mean_batch,
                   static_cast<unsigned long long>(point.views_delta),
                   static_cast<unsigned long long>(point.views_rebuilt),
                   static_cast<unsigned long long>(point.commit_p50_ns),
                   static_cast<unsigned long long>(point.commit_p99_ns),
                   static_cast<unsigned long long>(point.publish_p50_ns),
                   static_cast<unsigned long long>(point.fsync_p50_ns));
    }
    std::fprintf(out, "  ]%s\n", grouped ? "" : ",");
  }
  std::fprintf(out, "}\n");
  std::fclose(out);
}

// --- registered microbenchmarks --------------------------------------------

void BM_PinView(benchmark::State& state) {
  MemFileSystem fs;
  ConcurrentStoreOptions options;
  options.store.fs = &fs;
  auto st = ConcurrentStore::Create("db", BuildTree(10, 20), kScheme,
                                    options);
  if (!st.ok()) {
    state.SkipWithError("create failed");
    return;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize((*st)->PinView());
  }
}
BENCHMARK(BM_PinView)->MinTime(0.1);

void BM_ViewQuery(benchmark::State& state) {
  MemFileSystem fs;
  ConcurrentStoreOptions options;
  options.store.fs = &fs;
  auto st = ConcurrentStore::Create("db", BuildTree(10, 20), kScheme,
                                    options);
  if (!st.ok()) {
    state.SkipWithError("create failed");
    return;
  }
  auto view = (*st)->PinView();
  for (auto _ : state) {
    auto hits = view->Query("//book/title");
    if (!hits.ok()) {
      state.SkipWithError("query failed");
      return;
    }
    benchmark::DoNotOptimize(hits->size());
  }
}
BENCHMARK(BM_ViewQuery)->MinTime(0.1);

void BM_UpdateAckBuffered(benchmark::State& state) {
  // Acknowledgement round-trip through the queue + writer thread + view
  // publication + flusher ack, with MemFS so no fsync dominates.
  MemFileSystem fs;
  ConcurrentStoreOptions options;
  options.store.fs = &fs;
  auto st = ConcurrentStore::Create("db", BuildTree(2, 4), kScheme,
                                    options);
  if (!st.ok()) {
    state.SkipWithError("create failed");
    return;
  }
  int i = 0;
  for (auto _ : state) {
    if (!(*st)->Update(InsertBook(i++)).status.ok()) {
      state.SkipWithError("update failed");
      return;
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_UpdateAckBuffered)->MinTime(0.1);

}  // namespace

int main(int argc, char** argv) {
  WriteJsonSweep();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
