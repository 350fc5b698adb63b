// Differential replication soak: for EVERY registered labelling scheme,
// a primary and two replicas run through a seeded schedule of updates,
// checkpoint rolls, replica kills/restarts (including restarts from a
// journal corrupted mid-frame by a bitflip) and a phase that strands a
// replica across two rolls so catch-up MUST go through a snapshot
// transfer. At quiesce every replica must converge to XML and label
// bytes identical to the primary with zero reported lag. The suite name
// carries "ReplicationSoak" so CI runs it under TSan, where the
// readers-during-catch-up test races query threads against the applier.

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "concurrency/concurrent_store.h"
#include "concurrency/server.h"
#include "labels/registry.h"
#include "replication/applier.h"
#include "replication/source.h"
#include "store/document_store.h"
#include "store/file.h"
#include "updates/update.h"
#include "xml/parser.h"

namespace xmlup::replication {
namespace {

using concurrency::ConcurrentStore;
using concurrency::ConcurrentStoreOptions;
using updates::UpdateRequest;
using store::MemFileSystem;

// Built with += rather than operator+: GCC 12's -Werror=restrict
// misfires on the inlined char*+string concatenation under -fsanitize.
std::string Name(const char* prefix, int i) {
  std::string out = prefix;
  out += std::to_string(i);
  return out;
}

xml::Tree ParseOrDie(std::string_view text) {
  auto tree = xml::ParseDocument(text);
  EXPECT_TRUE(tree.ok()) << tree.status().ToString();
  return std::move(*tree);
}

std::vector<std::string> LabelBytes(const core::LabeledDocument& doc) {
  std::vector<std::string> out;
  for (xml::NodeId n : doc.tree().PreorderNodes()) {
    out.push_back(doc.label(n).bytes());
  }
  return out;
}

// One primary + N replica slots over a real Unix socket, reusable per
// scheme. Replica slots can be killed, corrupted, and restarted.
class Cluster {
 public:
  explicit Cluster(const std::string& scheme) : scheme_(scheme) {
    char dir_template[] = "/tmp/xmlup_rsoak_XXXXXX";
    EXPECT_NE(::mkdtemp(dir_template), nullptr);
    tmp_dir_ = dir_template;
    socket_path_ = tmp_dir_ + "/s";

    ConcurrentStoreOptions options;
    options.store.fs = &primary_fs_;
    // Tiny threshold: generations roll every few records, exercising
    // roll-following constantly and making strand-a-replica cheap.
    options.store.checkpoint.max_journal_records = 7;
    options.commit_hook = &source_;
    auto created = ConcurrentStore::Create(
        "p", ParseOrDie("<root><seed><a/><b/></seed></root>"), scheme_,
        options);
    EXPECT_TRUE(created.ok()) << scheme_ << ": " << created.status().ToString();
    primary_ = std::move(*created);

    server_ = std::make_unique<concurrency::Server>(primary_.get());
    server_->EnableReplication(&source_);
    server_->SetReplStatus([this] { return source_.StatusFields(); });
    server_->set_drain_deadline_ms(200);
    server_thread_ = std::thread([this] {
      EXPECT_TRUE(server_->ServeUnixSocket(socket_path_).ok());
    });
    bool up = false;
    for (int i = 0; i < 5000 && !up; ++i) {
      up = concurrency::UnixSocketRequest(socket_path_, {"--ping"}).ok();
      if (!up) std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_TRUE(up) << "server socket never came up";
  }

  ~Cluster() {
    for (auto& r : replicas_) {
      if (r.applier != nullptr) r.applier->Stop();
    }
    replicas_.clear();
    EXPECT_TRUE(
        concurrency::UnixSocketRequest(socket_path_, {"--shutdown"}).ok());
    server_thread_.join();
    primary_->Stop();
    ::rmdir(tmp_dir_.c_str());
  }

  size_t AddReplica() {
    replicas_.emplace_back();
    replicas_.back().fs = std::make_unique<MemFileSystem>();
    StartReplica(replicas_.size() - 1);
    return replicas_.size() - 1;
  }

  void StartReplica(size_t i) {
    ReplicaApplierOptions options;
    options.store.fs = replicas_[i].fs.get();
    auto applier = ReplicaApplier::Start("r", socket_path_, options);
    ASSERT_TRUE(applier.ok()) << applier.status().ToString();
    replicas_[i].applier = std::move(*applier);
  }

  // Stops the applier (its thread joins, so the test thread may touch
  // the replica's MemFileSystem afterwards) and remembers the applied
  // generation for corruption targeting.
  void KillReplica(size_t i) {
    replicas_[i].last_generation =
        replicas_[i].applier->status().applied.generation;
    replicas_[i].applier->Stop();
    replicas_[i].applier.reset();
    ++kills_;
  }

  bool ReplicaRunning(size_t i) const {
    return replicas_[i].applier != nullptr;
  }

  // Mid-frame corruption: flips one journal bit of the (stopped)
  // replica's current generation, somewhere past the file header.
  void CorruptStoppedReplica(size_t i, std::mt19937* rng) {
    MemFileSystem* fs = replicas_[i].fs.get();
    const std::string path =
        "r/" + store::JournalFileName(replicas_[i].last_generation);
    if (!fs->FileExists(path)) return;
    const uint64_t size = fs->FileSize(path);
    if (size <= store::kJournalHeaderSize) return;
    std::uniform_int_distribution<uint64_t> offset(store::kJournalHeaderSize,
                                                   size - 1);
    std::uniform_int_distribution<int> bit(0, 7);
    ASSERT_TRUE(fs->FlipBit(path, offset(*rng), bit(*rng)).ok());
    ++corruptions_;
  }

  void Insert(const std::string& name) {
    UpdateRequest request;
    request.op = UpdateRequest::Op::kInsertChild;
    request.xpath = ".";
    request.kind = xml::NodeKind::kElement;
    request.name = name;
    auto result = primary_->Update(std::move(request));
    ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  }

  void AwaitConverged(size_t i) {
    ReplicaApplier* applier = replicas_[i].applier.get();
    ASSERT_TRUE(applier->WaitForPosition(source_.committed(), 20000))
        << scheme_ << ": replica " << i << " never reached "
        << source_.committed().generation;
    for (int poll = 0; poll < 20000; ++poll) {
      ReplicaStatus s = applier->status();
      if (s.lag_bytes == 0 && s.lag_records == 0 &&
          s.primary == source_.committed()) {
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    FAIL() << scheme_ << ": replica " << i << " lag never reached zero";
  }

  void ExpectIdenticalToPrimary(size_t i) {
    auto replica_view = replicas_[i].applier->PinView();
    ASSERT_NE(replica_view, nullptr);
    auto primary_view = primary_->PinView();
    auto replica_xml = replica_view->SerializeXml();
    auto primary_xml = primary_view->SerializeXml();
    ASSERT_TRUE(replica_xml.ok() && primary_xml.ok());
    EXPECT_EQ(*replica_xml, *primary_xml) << scheme_ << ": replica " << i;
    EXPECT_EQ(LabelBytes(replica_view->document()),
              LabelBytes(primary_view->document()))
        << scheme_ << ": replica " << i;
  }

  ReplicaApplier* applier(size_t i) { return replicas_[i].applier.get(); }
  ReplicationSource& source() { return source_; }
  uint64_t kills() const { return kills_; }
  uint64_t corruptions() const { return corruptions_; }

 private:
  struct ReplicaSlot {
    std::unique_ptr<MemFileSystem> fs;
    std::unique_ptr<ReplicaApplier> applier;
    uint64_t last_generation = 0;
  };

  std::string scheme_;
  std::string tmp_dir_;
  std::string socket_path_;
  MemFileSystem primary_fs_;
  ReplicationSource source_;
  std::unique_ptr<ConcurrentStore> primary_;
  std::unique_ptr<concurrency::Server> server_;
  std::thread server_thread_;
  std::vector<ReplicaSlot> replicas_;
  uint64_t kills_ = 0;
  uint64_t corruptions_ = 0;
};

TEST(ReplicationSoakTest, AllSchemesConvergeBitIdenticalAfterChaos) {
  const std::vector<std::string> schemes = labels::AllSchemeNames();
  ASSERT_FALSE(schemes.empty());
  for (const std::string& scheme : schemes) {
    SCOPED_TRACE(scheme);
    std::mt19937 rng(0xC0FFEE ^ std::hash<std::string>{}(scheme));
    Cluster cluster(scheme);
    const size_t r0 = cluster.AddReplica();
    const size_t r1 = cluster.AddReplica();

    int next_name = 0;
    std::uniform_int_distribution<int> coin(0, 99);
    for (int round = 0; round < 8; ++round) {
      for (int u = 0; u < 3; ++u) {
        cluster.Insert(Name("n", next_name++));
      }
      // Random chaos: kill / corrupt-and-restart / restart one replica.
      const size_t victim = coin(rng) % 2 == 0 ? r0 : r1;
      const int roll = coin(rng);
      if (cluster.ReplicaRunning(victim)) {
        if (roll < 40) {
          cluster.KillReplica(victim);
          if (roll < 20) cluster.CorruptStoppedReplica(victim, &rng);
        }
      } else if (roll < 70) {
        cluster.StartReplica(victim);
      }
    }
    // Strand replica 0 across at least two generation rolls, so its
    // handshake position falls off the retained images and catch-up must
    // ship a snapshot.
    if (cluster.ReplicaRunning(r0)) cluster.KillReplica(r0);
    for (int u = 0; u < 20; ++u) {
      cluster.Insert(Name("s", next_name++));
    }
    cluster.StartReplica(r0);
    if (!cluster.ReplicaRunning(r1)) cluster.StartReplica(r1);

    for (int u = 0; u < 3; ++u) {
      cluster.Insert(Name("t", next_name++));
    }

    // Quiesce: both replicas converge, bit-identical, zero lag.
    cluster.AwaitConverged(r0);
    cluster.AwaitConverged(r1);
    cluster.ExpectIdenticalToPrimary(r0);
    cluster.ExpectIdenticalToPrimary(r1);
    EXPECT_EQ(cluster.applier(r0)->status().lag_bytes, 0u);
    EXPECT_EQ(cluster.applier(r1)->status().lag_bytes, 0u);
    // The stranded restart really did go through a snapshot transfer.
    EXPECT_GE(cluster.applier(r0)->status().snapshots_installed, 1u)
        << "catch-up was expected to require a snapshot";
    EXPECT_GE(cluster.kills(), 1u);
  }
}

TEST(ReplicationSoakTest, ReadersDuringCatchUpSeeOnlyConsistentViews) {
  Cluster cluster("ordpath");
  // Build up history first, so the replica has real catching-up to do.
  for (int i = 0; i < 40; ++i) cluster.Insert(Name("pre", i));

  const size_t r = cluster.AddReplica();
  std::atomic<bool> done{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      uint64_t last_epoch = 0;
      while (!done.load()) {
        auto view = cluster.applier(r)->PinView();
        if (view == nullptr) continue;  // still bootstrapping
        // Epochs only move forward, and every view answers reads.
        EXPECT_GE(view->epoch(), last_epoch);
        last_epoch = view->epoch();
        auto nodes = view->Query(".");
        EXPECT_TRUE(nodes.ok());
        EXPECT_TRUE(view->SerializeXml().ok());
      }
    });
  }
  // Keep writing while the readers race the applier's publications.
  for (int i = 0; i < 20; ++i) cluster.Insert(Name("live", i));
  cluster.AwaitConverged(r);
  done.store(true);
  for (auto& t : readers) t.join();
  cluster.ExpectIdenticalToPrimary(r);
}

}  // namespace
}  // namespace xmlup::replication
