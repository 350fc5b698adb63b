// Update-script subsystem benchmarks: acked update throughput through
// the ConcurrentStore's parallel-apply stage (apply_workers 1/2/4) for
// two adversarial streams — pairwise-disjoint transactions, where the
// independence analysis should let the prepare stage parallelise XPath
// resolution, and fully conflicting transactions, where every plan
// overlaps and the pipeline must degrade to the live serial path. The
// self-timed sweep writes BENCH_updates.json (consumed by the CI gate:
// disjoint at 4 workers must beat serial by >= 1.5x on >= 4 cores); the
// registered microbenchmarks cover script compilation and the static
// footprint analysis itself.
//
// Methodology notes:
//   * The submitter is a single windowed thread: it keeps a fixed number
//     of transactions in flight so the queue runs ahead of the writer
//     and multi-transaction batches actually form — the prepare stage
//     only runs on batches of >= 2.
//   * MemFileSystem throughout: fsync is free there, so the measurement
//     isolates the writer-side work (resolution + mutation + journal
//     encode) that the prepare stage exists to take off the critical
//     path. On a real disk the fsync amortisation of group commit
//     dominates both configurations equally (see bench_concurrency).
//   * The corpus is wide (many sections under the root) so each XPath
//     resolution pays a real child scan; that is the serial cost the
//     parallel prepare removes, and it is the same shape the router's
//     per-shard corpora have.

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
#include <utility>
#include <vector>

#include "concurrency/concurrent_store.h"
#include "core/labeled_document.h"
#include "labels/registry.h"
#include "store/file.h"
#include "updates/footprint.h"
#include "updates/script.h"
#include "updates/update.h"
#include "xml/parser.h"

namespace {

using namespace xmlup;
using concurrency::ConcurrentStore;
using concurrency::ConcurrentStoreOptions;
using concurrency::ConcurrentStoreStats;
using store::MemFileSystem;
using updates::UpdateRequest;
using updates::UpdateResult;

constexpr const char* kScheme = "dewey";
constexpr size_t kSections = 512;

std::string CorpusXml(size_t sections) {
  std::string xml = "<corpus>";
  for (size_t i = 0; i < sections; ++i) {
    std::string tag = "s";
    tag += std::to_string(i);
    xml += "<" + tag + "><item><v>seed</v></item></" + tag + ">";
  }
  xml += "</corpus>";
  return xml;
}

xml::Tree BuildCorpus(size_t sections) {
  auto tree = xml::ParseDocument(CorpusXml(sections));
  if (!tree.ok()) std::abort();
  return std::move(*tree);
}

double MsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

struct ApplyPoint {
  size_t workers = 1;
  bool conflicting = false;
  double updates_per_s = 0;
  double mean_batch = 0;
  uint64_t parallel_batches = 0;
  uint64_t txns_fast = 0;
  uint64_t txns_conflicted = 0;
  uint64_t prepare_fallbacks = 0;
};

// One windowed submitter drives set-value transactions for
// `duration_ms`; disjoint mode round-robins the target section (all
// pairwise independent), conflicting mode hammers section 0 (no pair
// independent). Acked throughput is what a client sees: submission to
// durable-commit future resolution.
ApplyPoint MeasureApplyStream(size_t workers, bool conflicting,
                              double duration_ms) {
  ApplyPoint point;
  point.workers = workers;
  point.conflicting = conflicting;
  MemFileSystem fs;
  ConcurrentStoreOptions options;
  options.store.fs = &fs;
  options.apply_workers = workers;
  auto st = ConcurrentStore::Create("db", BuildCorpus(kSections), kScheme,
                                    options);
  if (!st.ok()) std::abort();

  constexpr size_t kWindow = 64;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> acked{0};
  std::thread submitter([&] {
    uint64_t i = 0;
    uint64_t local = 0;
    std::deque<std::future<UpdateResult>> inflight;
    while (!stop.load(std::memory_order_acquire)) {
      while (inflight.size() < kWindow) {
        const uint64_t section = conflicting ? 0 : i % kSections;
        UpdateRequest request;
        request.op = UpdateRequest::Op::kSetValue;
        char buf[64];
        std::snprintf(buf, sizeof(buf), "/s%llu/item/v/text()",
                      static_cast<unsigned long long>(section));
        request.xpath = buf;
        std::snprintf(buf, sizeof(buf), "v%llu",
                      static_cast<unsigned long long>(i++));
        request.value = buf;
        std::vector<UpdateRequest> txn;
        txn.push_back(std::move(request));
        inflight.push_back((*st)->SubmitTransaction(txn));
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

  auto start = std::chrono::steady_clock::now();
  while (MsSince(start) < duration_ms) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  stop.store(true, std::memory_order_release);
  submitter.join();
  // Elapsed includes the in-flight drain after `stop`: at most kWindow
  // acks, a batch or two.
  const double elapsed_ms = MsSince(start);
  ConcurrentStoreStats stats = (*st)->stats();
  point.updates_per_s =
      static_cast<double>(acked.load()) / (elapsed_ms / 1000.0);
  point.mean_batch =
      stats.batches > 0 ? static_cast<double>(stats.updates_applied) /
                              static_cast<double>(stats.batches)
                        : 0.0;
  point.parallel_batches = stats.parallel_batches;
  point.txns_fast = stats.txns_fast;
  point.txns_conflicted = stats.txns_conflicted;
  point.prepare_fallbacks = stats.prepare_fallbacks;
  return point;
}

void WriteJsonSweep() {
  FILE* out = std::fopen("BENCH_updates.json", "w");
  if (out == nullptr) return;
  std::fprintf(out, "{\n  \"hardware_concurrency\": %u,\n",
               std::thread::hardware_concurrency());
  const std::vector<size_t> worker_counts = {1, 2, 4};
  for (int conflicting = 0; conflicting < 2; ++conflicting) {
    std::fprintf(out, "  \"%s\": [\n",
                 conflicting ? "conflicting" : "disjoint");
    for (size_t i = 0; i < worker_counts.size(); ++i) {
      ApplyPoint point = MeasureApplyStream(
          worker_counts[i], conflicting != 0, /*duration_ms=*/700.0);
      std::fprintf(out,
                   "    {\"workers\": %zu, \"updates_per_s\": %.0f, "
                   "\"mean_batch\": %.1f, \"parallel_batches\": %llu, "
                   "\"txns_fast\": %llu, \"txns_conflicted\": %llu, "
                   "\"prepare_fallbacks\": %llu}%s\n",
                   point.workers, point.updates_per_s, point.mean_batch,
                   static_cast<unsigned long long>(point.parallel_batches),
                   static_cast<unsigned long long>(point.txns_fast),
                   static_cast<unsigned long long>(point.txns_conflicted),
                   static_cast<unsigned long long>(point.prepare_fallbacks),
                   i + 1 < worker_counts.size() ? "," : "");
      std::fprintf(stderr,
                   "%s, %zu workers: %.0f acked updates/s (mean batch "
                   "%.1f, %llu parallel batches, %llu fast, %llu "
                   "conflicted, %llu fallbacks)\n",
                   conflicting ? "conflicting" : "disjoint", point.workers,
                   point.updates_per_s, point.mean_batch,
                   static_cast<unsigned long long>(point.parallel_batches),
                   static_cast<unsigned long long>(point.txns_fast),
                   static_cast<unsigned long long>(point.txns_conflicted),
                   static_cast<unsigned long long>(point.prepare_fallbacks));
    }
    std::fprintf(out, "  ]%s\n", conflicting ? "" : ",");
  }
  std::fprintf(out, "}\n");
  std::fclose(out);
}

// --- registered microbenchmarks --------------------------------------------

void BM_ParseUpdateScript(benchmark::State& state) {
  const std::string script =
      "# seed a section\n"
      "let SECTION = /s3\n"
      "let VALUE = \"hello world\"\n"
      "-u ${SECTION}/item/v/text() -v ${VALUE}\n"
      "-s ${SECTION}/item -t elem -n x -v ${VALUE}\n"
      "-m ${SECTION}/item/x /s4/item\n"
      "-r /s4/item/x -v renamed\n";
  for (auto _ : state) {
    auto compiled = updates::ParseUpdateScript(script, "bench");
    if (!compiled.ok()) {
      state.SkipWithError("parse failed");
      return;
    }
    benchmark::DoNotOptimize(compiled->requests.size());
  }
}
BENCHMARK(BM_ParseUpdateScript)->MinTime(0.1);

void BM_PlanTransaction(benchmark::State& state) {
  auto scheme = labels::CreateScheme(kScheme);
  if (!scheme.ok()) {
    state.SkipWithError("scheme failed");
    return;
  }
  auto doc = core::LabeledDocument::Build(BuildCorpus(64), scheme->get());
  if (!doc.ok()) {
    state.SkipWithError("build failed");
    return;
  }
  auto requests = updates::ParseActionTokens(
      {"-u", "/s7/item/v/text()", "-v", "x", "-s", "/s9/item", "-t",
       "elem", "-n", "y"});
  if (!requests.ok()) {
    state.SkipWithError("tokens failed");
    return;
  }
  for (auto _ : state) {
    auto plan = updates::PlanTransaction(*doc, *requests);
    benchmark::DoNotOptimize(plan.usable);
  }
}
BENCHMARK(BM_PlanTransaction)->MinTime(0.1);

}  // namespace

int main(int argc, char** argv) {
  WriteJsonSweep();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
