// Replication cost model: replica-side apply throughput (replay in
// memory + journal append, the whole AppendFrames path), catch-up time
// as a function of journal length (snapshot install + frame replay +
// durability barrier), and one live end-to-end run over a real Unix
// socket — primary ack rate with a subscribed replica and the replica's
// convergence time at quiesce. Self-timed sweep written to
// BENCH_replication.json.

#include <benchmark/benchmark.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "concurrency/concurrent_store.h"
#include "concurrency/server.h"
#include "replication/applier.h"
#include "replication/replica_store.h"
#include "replication/source.h"
#include "store/document_store.h"
#include "store/file.h"
#include "store/journal.h"
#include "updates/update.h"
#include "xml/parser.h"

namespace {

using namespace xmlup;
using store::DocumentStore;
using store::MemFileSystem;
using store::StoreOptions;
using xml::NodeId;

constexpr char kBaseDoc[] =
    "<library><shelf id=\"a\"><book><title>Iliad</title></book></shelf>"
    "</library>";

double MsSince(std::chrono::steady_clock::time_point start) {
  return static_cast<double>(
             std::chrono::duration_cast<std::chrono::microseconds>(
                 std::chrono::steady_clock::now() - start)
                 .count()) /
         1000.0;
}

// A primary's durable artifacts: the snapshot that opens a generation and
// the committed journal built on top of it — exactly what a catching-up
// replica receives.
struct PrimaryImage {
  uint64_t generation = 0;
  std::string snapshot;
  std::string journal;  // Full file, 8-byte header included.
  size_t records = 0;
};

PrimaryImage BuildPrimaryImage(const std::string& scheme, size_t records) {
  PrimaryImage image;
  MemFileSystem fs;
  StoreOptions options;
  options.fs = &fs;
  options.sync_each_update = false;
  options.auto_checkpoint = false;
  auto tree = xml::ParseDocument(kBaseDoc);
  if (!tree.ok()) return image;
  auto st = DocumentStore::Create("db", std::move(*tree), scheme, options);
  if (!st.ok()) return image;
  NodeId root = (*st)->document().tree().root();
  for (size_t i = 0; i < records; ++i) {
    if (!(*st)->InsertNode(root, xml::NodeKind::kElement, "item", "").ok()) {
      return image;
    }
  }
  if (!(*st)->Sync().ok()) return image;
  image.generation = (*st)->stats().sequence;
  auto snapshot =
      fs.GetFile("db/" + store::SnapshotFileName(image.generation));
  auto journal = fs.GetFile("db/" + store::JournalFileName(image.generation));
  if (!snapshot.ok() || !journal.ok()) return image;
  image.snapshot = *snapshot;
  image.journal = *journal;
  image.records = records;
  return image;
}

// The replica's catch-up sequence against a prepared image: install the
// snapshot, replay every journal frame through AppendFrames, hit the
// durability barrier. Returns total ms (negative on failure).
double ReplayImage(const PrimaryImage& image) {
  MemFileSystem fs;
  replication::ReplicaStoreOptions options;
  options.fs = &fs;
  auto start = std::chrono::steady_clock::now();
  auto replica = replication::ReplicaStore::Open("r", options);
  if (!replica.ok()) return -1;
  if (!(*replica)->InstallSnapshot(image.generation, image.snapshot).ok()) {
    return -1;
  }
  if (!(*replica)
           ->AppendFrames(image.generation, store::kJournalHeaderSize, 0,
                          std::string_view(image.journal)
                              .substr(store::kJournalHeaderSize))
           .ok()) {
    return -1;
  }
  if (!(*replica)->Sync().ok()) return -1;
  if ((*replica)->position().records != image.records) return -1;
  return MsSince(start);
}

// --- google-benchmark micro view ------------------------------------------

void BM_ReplicaApply(benchmark::State& state, const std::string& scheme) {
  PrimaryImage image = BuildPrimaryImage(scheme, 2000);
  if (image.records == 0) {
    state.SkipWithError("image build failed");
    return;
  }
  for (auto _ : state) {
    double ms = ReplayImage(image);
    if (ms < 0) {
      state.SkipWithError("replay failed");
      return;
    }
    benchmark::DoNotOptimize(ms);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(image.records));
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(image.journal.size()));
}

// --- self-timed JSON sweep -------------------------------------------------

struct LiveRun {
  size_t inserts = 0;
  double primary_ms = 0;   // Submit + ack of every insert.
  double converge_ms = 0;  // Quiesce to zero lag after the last ack.
  bool ok = false;
};

// One primary + one replica over a real socket: how fast the primary
// acks with a subscriber attached, and how far behind the replica is
// when the writer stops.
LiveRun MeasureLive(const std::string& scheme, size_t inserts) {
  LiveRun run;
  run.inserts = inserts;
  char dir_template[] = "/tmp/xmlup_rbench_XXXXXX";
  if (::mkdtemp(dir_template) == nullptr) return run;
  const std::string tmp_dir = dir_template;
  const std::string socket_path = tmp_dir + "/s";

  MemFileSystem primary_fs;
  replication::ReplicationSource source;
  concurrency::ConcurrentStoreOptions options;
  options.store.fs = &primary_fs;
  options.commit_hook = &source;
  auto tree = xml::ParseDocument(kBaseDoc);
  if (!tree.ok()) return run;
  auto primary =
      concurrency::ConcurrentStore::Create("p", std::move(*tree), scheme,
                                           options);
  if (!primary.ok()) return run;

  concurrency::Server server(primary->get());
  server.EnableReplication(&source);
  server.set_drain_deadline_ms(200);
  std::thread server_thread(
      [&] { (void)server.ServeUnixSocket(socket_path); });
  bool up = false;
  for (int i = 0; i < 5000 && !up; ++i) {
    up = concurrency::UnixSocketRequest(socket_path, {"--ping"}).ok();
    if (!up) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  MemFileSystem replica_fs;
  replication::ReplicaApplierOptions applier_options;
  applier_options.store.fs = &replica_fs;
  auto applier =
      replication::ReplicaApplier::Start("r", socket_path, applier_options);

  if (up && applier.ok()) {
    auto write_start = std::chrono::steady_clock::now();
    for (size_t i = 0; i < inserts; ++i) {
      updates::UpdateRequest request;
      request.op = updates::UpdateRequest::Op::kInsertChild;
      request.xpath = ".";
      request.kind = xml::NodeKind::kElement;
      request.name = "item";
      if (!(*primary)->Update(std::move(request)).status.ok()) break;
    }
    run.primary_ms = MsSince(write_start);

    auto quiesce_start = std::chrono::steady_clock::now();
    if ((*applier)->WaitForPosition(source.committed(), 30000)) {
      for (int poll = 0; poll < 30000; ++poll) {
        replication::ReplicaStatus s = (*applier)->status();
        if (s.lag_bytes == 0 && s.lag_records == 0 &&
            s.primary == source.committed()) {
          run.converge_ms = MsSince(quiesce_start);
          run.ok = true;
          break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
    (*applier)->Stop();
  }
  (void)concurrency::UnixSocketRequest(socket_path, {"--shutdown"});
  server_thread.join();
  (*primary)->Stop();
  ::rmdir(tmp_dir.c_str());
  return run;
}

void WriteJsonSweep() {
  const std::vector<std::string> schemes = {"ordpath", "dewey",
                                            "xpath-accelerator"};
  const std::vector<size_t> lengths = {1000, 2000, 5000, 10000};

  FILE* out = std::fopen("BENCH_replication.json", "w");
  if (out == nullptr) return;

  // Catch-up: snapshot install + full journal replay + sync, per scheme
  // and journal length. The apply rate falls out of the longest run.
  std::fprintf(out, "{\n  \"catchup\": {\n");
  bool first_scheme = true;
  for (const std::string& scheme : schemes) {
    std::fprintf(out, "%s    \"%s\": [\n", first_scheme ? "" : ",\n",
                 scheme.c_str());
    first_scheme = false;
    bool first_point = true;
    for (size_t n : lengths) {
      PrimaryImage image = BuildPrimaryImage(scheme, n);
      double ms = image.records == n ? ReplayImage(image) : -1;
      double rate = ms > 0 ? static_cast<double>(n) / (ms / 1000.0) : 0.0;
      std::fprintf(out,
                   "%s      {\"records\": %zu, \"snapshot_bytes\": %zu, "
                   "\"journal_bytes\": %zu, \"catchup_ms\": %.2f, "
                   "\"apply_records_per_s\": %.0f}",
                   first_point ? "" : ",\n", n, image.snapshot.size(),
                   image.journal.size(), ms, rate);
      first_point = false;
      std::fprintf(stderr,
                   "%-18s %6zu records (%7zu B journal): catch-up %8.2f ms "
                   "(%.0f records/s)\n",
                   scheme.c_str(), n, image.journal.size(), ms, rate);
    }
    std::fprintf(out, "\n    ]");
  }
  std::fprintf(out, "\n  },\n");

  // Live end-to-end over a socket: one subscribed replica, 2000
  // group-committed inserts, convergence at quiesce.
  LiveRun live = MeasureLive("ordpath", 2000);
  std::fprintf(out,
               "  \"live\": {\"scheme\": \"ordpath\", \"inserts\": %zu, "
               "\"ok\": %s, \"primary_ms\": %.2f, "
               "\"primary_inserts_per_s\": %.0f, \"converge_ms\": %.2f}\n}\n",
               live.inserts, live.ok ? "true" : "false", live.primary_ms,
               live.primary_ms > 0
                   ? static_cast<double>(live.inserts) /
                         (live.primary_ms / 1000.0)
                   : 0.0,
               live.converge_ms);
  std::fprintf(stderr,
               "live: %zu inserts acked in %.2f ms, replica converged "
               "%.2f ms after quiesce (%s)\n",
               live.inserts, live.primary_ms, live.converge_ms,
               live.ok ? "ok" : "FAILED");
  std::fclose(out);
}

void RegisterAll() {
  for (const std::string& name :
       {std::string("ordpath"), std::string("dewey"),
        std::string("xpath-accelerator")}) {
    benchmark::RegisterBenchmark(("replica-apply/" + name).c_str(),
                                 BM_ReplicaApply, name)
        ->MinTime(0.1);
  }
}

}  // namespace

int main(int argc, char** argv) {
  WriteJsonSweep();
  RegisterAll();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
