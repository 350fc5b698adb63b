#include "cluster/sharded_service.h"

#include <dirent.h>
#include <sys/stat.h>
#include <sys/types.h>

#include <algorithm>
#include <utility>

#include "cluster/router.h"
#include "concurrency/wire.h"
#include "replication/protocol.h"
#include "store/document_store.h"
#include "xml/tree.h"

namespace xmlup::cluster {

using common::Result;
using common::Status;

namespace {

std::vector<std::string> ErrorResponse(const Status& status) {
  return {"err", status.ToString()};
}

bool IsStoreDirectory(const std::string& corpus_dir, const std::string& key) {
  struct stat st{};
  const std::string current =
      corpus_dir + "/" + key + "/" + store::kCurrentFileName;
  return ::stat(current.c_str(), &st) == 0 && S_ISREG(st.st_mode);
}

/// Keys the upstream's cluster-hello reply names: every `doc.<key>=`
/// field whose value is the CommitPoint quad. Keys may contain dots, so
/// the `docrole.` / `docfence.` fields use distinct prefixes and are
/// simply skipped here.
std::vector<std::string> UpstreamDocumentKeys(
    const std::vector<std::string>& reply) {
  std::vector<std::string> keys;
  for (const std::string& field : reply) {
    if (field.rfind("doc.", 0) != 0) continue;
    const size_t eq = field.find('=');
    if (eq == std::string::npos) continue;
    const std::string key = field.substr(4, eq - 4);
    if (ValidDocumentKey(key)) keys.push_back(key);
  }
  return keys;
}

}  // namespace

ShardedService::ShardedService(std::string corpus_dir,
                               ShardedServiceOptions options)
    : corpus_dir_(std::move(corpus_dir)), options_(std::move(options)) {
  obs::Registry& reg = obs::GlobalMetrics();
  metrics_.frames = reg.GetCounter("shard.frames");
  metrics_.unknown_doc = reg.GetCounter("shard.unknown_doc");
  metrics_.creates = reg.GetCounter("shard.creates");
  metrics_.promotions = reg.GetCounter("shard.promotions");
  metrics_.demotions = reg.GetCounter("shard.demotions");
  metrics_.docs = reg.GetGauge("shard.docs");
}

ShardedService::~ShardedService() { Stop(); }

Result<std::unique_ptr<ShardedService>> ShardedService::Open(
    const std::string& corpus_dir, const ShardedServiceOptions& options) {
  struct stat st{};
  if (::stat(corpus_dir.c_str(), &st) != 0) {
    if (::mkdir(corpus_dir.c_str(), 0755) != 0) {
      return Status::Internal("cannot create corpus directory " + corpus_dir);
    }
  } else if (!S_ISDIR(st.st_mode)) {
    return Status::InvalidArgument(corpus_dir + " is not a directory");
  }

  std::unique_ptr<ShardedService> service(
      new ShardedService(corpus_dir, options));

  // Discover the corpus: every valid-key subdirectory with a CURRENT
  // file is a document. Anything else under the root is ignored (a
  // half-created directory without CURRENT never recovers to a store
  // anyway; the operator can inspect it).
  DIR* dir = ::opendir(corpus_dir.c_str());
  if (dir == nullptr) {
    return Status::Internal("cannot list corpus directory " + corpus_dir);
  }
  std::vector<std::string> keys;
  while (dirent* entry = ::readdir(dir)) {
    const std::string key = entry->d_name;
    if (!ValidDocumentKey(key)) continue;
    if (IsStoreDirectory(corpus_dir, key)) keys.push_back(key);
  }
  ::closedir(dir);

  if (!options.replicate_from.empty()) {
    // A replica corpus additionally adopts every document its upstream
    // reports, so a fresh (empty-directory) replica bootstraps the whole
    // corpus from the stream. An unreachable upstream is not an error —
    // the appliers reconnect with backoff — it just means only the
    // on-disk documents are known until a restart.
    Result<std::vector<std::string>> hello = concurrency::EndpointRequest(
        options.replicate_from, {kClusterHelloVerb});
    if (hello.ok() && hello->size() >= 1 && (*hello)[0] == "ok") {
      for (std::string& key : UpstreamDocumentKeys(*hello)) {
        keys.push_back(std::move(key));
      }
    }
  }
  std::sort(keys.begin(), keys.end());  // deterministic open order
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());

  for (const std::string& key : keys) {
    std::unique_ptr<DocEntry> entry;
    if (options.replicate_from.empty()) {
      XMLUP_ASSIGN_OR_RETURN(entry,
                             service->OpenEntry(key, /*create=*/false, ""));
    } else {
      XMLUP_ASSIGN_OR_RETURN(entry, service->OpenReplicaEntry(key));
    }
    service->docs_.emplace(key, std::move(entry));
  }
  service->metrics_.docs->Set(static_cast<int64_t>(service->docs_.size()));
  return service;
}

Status ShardedService::OpenPipeline(
    const std::string& key, bool create, const std::string& scheme,
    std::unique_ptr<replication::ReplicationSource>* source,
    std::unique_ptr<concurrency::ConcurrentStore>* store) {
  const std::string dir = corpus_dir_ + "/" + key;
  // The stored fence survives role flips and restarts: a primary that
  // restarts keeps its epoch, so a replica that was promoted meanwhile
  // (higher epoch) correctly refuses to follow it.
  XMLUP_ASSIGN_OR_RETURN(
      const replication::FenceToken fence,
      replication::ReadFence(options_.store.store.fs, dir));
  replication::ReplicationSource::Options source_options;
  source_options.fence = fence;
  source_options.sync_ship = options_.sync_replication;
  *source =
      std::make_unique<replication::ReplicationSource>(source_options);
  concurrency::ConcurrentStoreOptions store_options = options_.store;
  store_options.commit_hook = source->get();
  if (create) {
    xml::Tree tree;
    XMLUP_RETURN_NOT_OK(
        tree.CreateRoot(xml::NodeKind::kElement, "root").status());
    XMLUP_ASSIGN_OR_RETURN(*store,
                           concurrency::ConcurrentStore::Create(
                               dir, std::move(tree), scheme, store_options));
  } else {
    XMLUP_ASSIGN_OR_RETURN(
        *store, concurrency::ConcurrentStore::Open(dir, store_options));
  }
  return Status::Ok();
}

Result<std::unique_ptr<ShardedService::DocEntry>> ShardedService::OpenEntry(
    const std::string& key, bool create, const std::string& scheme) {
  auto entry = std::make_unique<DocEntry>();
  XMLUP_RETURN_NOT_OK(
      OpenPipeline(key, create, scheme, &entry->source, &entry->store));
  entry->primary = true;
  entry->server = std::make_unique<concurrency::Server>(entry->store.get());
  entry->server->EnableReplication(entry->source.get());
  entry->server->SetReplStatus(
      [source = entry->source.get()] { return source->StatusFields(); });
  return entry;
}

Result<std::unique_ptr<replication::ReplicaApplier>>
ShardedService::StartApplier(const std::string& key,
                             const std::string& upstream) {
  replication::ReplicaApplierOptions options;
  options.store.fs = options_.store.store.fs;
  options.store.scheme_options = options_.store.store.scheme_options;
  options.hello_prefix = {"--doc", key};
  return replication::ReplicaApplier::Start(corpus_dir_ + "/" + key, upstream,
                                            options);
}

Result<std::unique_ptr<ShardedService::DocEntry>>
ShardedService::OpenReplicaEntry(const std::string& key) {
  auto entry = std::make_unique<DocEntry>();
  XMLUP_ASSIGN_OR_RETURN(entry->applier,
                         StartApplier(key, options_.replicate_from));
  entry->upstream = options_.replicate_from;
  entry->primary = false;
  entry->server = std::make_unique<concurrency::Server>(
      static_cast<concurrency::ViewProvider*>(entry->applier.get()));
  entry->server->SetReplStatus(
      [applier = entry->applier.get()] { return applier->StatusFields(); });
  return entry;
}

void ShardedService::PromoteDoc(DocEntry* entry, const std::string& key,
                                uint64_t epoch,
                                std::vector<std::string>* response) {
  std::lock_guard<std::mutex> lock(entry->mu);
  const std::string dir = corpus_dir_ + "/" + key;
  store::FileSystem* fs = options_.store.store.fs;

  if (entry->primary) {
    // Idempotent: promoting a primary only (maybe) re-fences it. The
    // failover monitor retries promotion until it gets an ok, so a
    // repeat of an already-applied promotion must not fail.
    uint64_t current = entry->source->fence_epoch();
    if (epoch > current) {
      const replication::FenceToken bumped{epoch,
                                           entry->source->committed()};
      const Status written = replication::WriteFence(fs, dir, bumped);
      if (!written.ok()) {
        *response = ErrorResponse(written);
        return;
      }
      entry->source->SetFence(bumped);
      current = epoch;
    }
    *response = {"ok", "already-primary", "fence=" + std::to_string(current)};
    return;
  }

  // Replica → primary. Refuse to promote a replica that never received a
  // snapshot: it has no document to serve, and electing it would erase
  // the corpus (the monitor's election already filters these; this is
  // the shard-side backstop).
  const replication::ReplicaStatus before = entry->applier->status();
  if (!before.has_view || before.applied.generation == 0) {
    *response = ErrorResponse(Status::InvalidArgument(
        "cannot promote '" + key + "': replica holds no document yet"));
    return;
  }

  entry->applier->Stop();
  // The applier's final applied position is the new fence point: frames
  // up to here are shared history any peer may resume from; anything an
  // old primary holds beyond it is a divergent tail the new epoch
  // disowns.
  const store::CommitPoint position = entry->applier->status().applied;
  const uint64_t stored = entry->applier->status().fence_epoch;
  const uint64_t fence_epoch = std::max(epoch, stored + 1);
  const replication::FenceToken fence{fence_epoch, position};
  Status status = replication::WriteFence(fs, dir, fence);
  std::unique_ptr<replication::ReplicationSource> source;
  std::unique_ptr<concurrency::ConcurrentStore> store;
  if (status.ok()) {
    status = OpenPipeline(key, /*create=*/false, "", &source, &store);
  }
  if (!status.ok()) {
    // Roll back to replica role so the document keeps serving (stale)
    // reads and keeps following its upstream rather than going dark.
    Result<std::unique_ptr<replication::ReplicaApplier>> restored =
        StartApplier(key, entry->upstream);
    if (restored.ok()) {
      entry->server->SetRole(
          nullptr, restored->get(), nullptr,
          [applier = restored->get()] { return applier->StatusFields(); });
      entry->applier = std::move(*restored);
    }
    *response = ErrorResponse(status);
    return;
  }

  entry->server->SetRole(
      store.get(), store.get(), source.get(),
      [src = source.get()] { return src->StatusFields(); });
  entry->server->EnableReplication(source.get());
  entry->store = std::move(store);
  entry->source = std::move(source);
  entry->applier.reset();  // safe: SetRole drained in-flight requests
  entry->primary = true;
  metrics_.promotions->Add(1);
  *response = {"ok",
               "promoted",
               key,
               "fence=" + std::to_string(fence_epoch),
               "generation=" + std::to_string(position.generation),
               "records=" + std::to_string(position.records),
               "bytes=" + std::to_string(position.bytes)};
}

void ShardedService::DemoteDoc(DocEntry* entry, const std::string& key,
                               const std::string& upstream,
                               std::vector<std::string>* response) {
  std::lock_guard<std::mutex> lock(entry->mu);

  if (!entry->primary) {
    if (entry->upstream == upstream) {
      *response = {"ok", "already-replica", "upstream=" + upstream};
      return;
    }
    // Re-target an existing replica (its primary moved): stop the old
    // applier, recover the store from disk, follow the new upstream.
    entry->applier->Stop();
    Result<std::unique_ptr<replication::ReplicaApplier>> applier =
        StartApplier(key, upstream);
    if (!applier.ok()) {
      *response = ErrorResponse(applier.status());
      return;
    }
    entry->server->SetRole(
        nullptr, applier->get(), nullptr,
        [a = applier->get()] { return a->StatusFields(); });
    entry->applier = std::move(*applier);
    entry->upstream = upstream;
    *response = {"ok", "retargeted", key, "upstream=" + upstream};
    return;
  }

  // Primary → replica: the rejoin path for a fenced old primary. Stop
  // the pipeline first (drains and syncs), close the source so replica
  // subscriptions terminate, then hand the directory to an applier —
  // whose handshake at the new primary decides frames-vs-snapshot by the
  // fence, erasing any divergent tail this primary wrote past the fence
  // point before it died.
  entry->store->Stop();
  entry->source->Close();
  Result<std::unique_ptr<replication::ReplicaApplier>> applier =
      StartApplier(key, upstream);
  if (!applier.ok()) {
    // Pipeline is stopped and the source closed: the document still
    // serves reads from its last published view but rejects updates.
    // The monitor (or operator) retries the demote.
    *response = ErrorResponse(applier.status());
    return;
  }
  entry->server->SetRole(
      nullptr, applier->get(), nullptr,
      [a = applier->get()] { return a->StatusFields(); });
  entry->applier = std::move(*applier);
  entry->upstream = upstream;
  // The closed source may still have replica subscription threads inside
  // ServeReplica; retire it instead of destroying it. The store is safe
  // to free: SetRole drained requests and the retired source never
  // touches it again (its cursor is only read under OnCommit, which the
  // stopped store no longer calls).
  entry->retired_sources.push_back(std::move(entry->source));
  entry->store.reset();
  entry->primary = false;
  metrics_.demotions->Add(1);
  *response = {"ok", "demoted", key, "upstream=" + upstream};
}

ShardedService::DocEntry* ShardedService::Find(const std::string& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = docs_.find(key);
  return it == docs_.end() ? nullptr : it->second.get();
}

bool ShardedService::HandleRequest(const std::vector<std::string>& request,
                                   std::vector<std::string>* response) {
  metrics_.frames->Add(1);
  if (request.empty() || request[0].empty()) {
    *response = ErrorResponse(Status::InvalidArgument("empty request"));
    return false;
  }
  const std::string& verb = request[0];

  if (verb == "--ping") {
    *response = {"ok"};
    return false;
  }
  if (verb == "--shutdown") {
    *response = {"ok"};
    return true;
  }
  if (verb == kClusterHelloVerb || verb == "--cluster-status") {
    *response = {"ok"};
    for (std::string& field : StatusFields()) {
      response->push_back(std::move(field));
    }
    return false;
  }
  if (verb == "--stats") {
    // The corpus-level picture: pipeline counters summed across every
    // primary-role document, then the (process-global) registry fields —
    // the same shape as a single-document server's reply, so
    // `xmlup req --stats` parsers keep working.
    std::string mode;
    if (request.size() >= 2) mode = request[1];
    if (!mode.empty() && mode != "json" && mode != "timing") {
      *response = ErrorResponse(
          Status::InvalidArgument("--stats takes 'json' or 'timing'"));
      return false;
    }
    if (mode == "json") {
      *response = {"ok", obs::GlobalMetrics().RenderJson(false)};
      return false;
    }
    concurrency::ConcurrentStoreStats total;
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (const auto& [key, entry] : docs_) {
        std::lock_guard<std::mutex> entry_lock(entry->mu);
        if (!entry->primary) continue;
        concurrency::ConcurrentStoreStats s = entry->store->stats();
        total.updates_applied += s.updates_applied;
        total.updates_failed += s.updates_failed;
        total.batches += s.batches;
        total.largest_batch = std::max(total.largest_batch, s.largest_batch);
        total.views_published += s.views_published;
        total.checkpoints += s.checkpoints;
        total.checkpoint_failures += s.checkpoint_failures;
      }
      *response = {"ok", "docs=" + std::to_string(docs_.size())};
    }
    response->push_back("updates_applied=" +
                        std::to_string(total.updates_applied));
    response->push_back("updates_failed=" +
                        std::to_string(total.updates_failed));
    response->push_back("batches=" + std::to_string(total.batches));
    response->push_back("largest_batch=" +
                        std::to_string(total.largest_batch));
    response->push_back("views_published=" +
                        std::to_string(total.views_published));
    response->push_back("checkpoints=" + std::to_string(total.checkpoints));
    response->push_back("checkpoint_failures=" +
                        std::to_string(total.checkpoint_failures));
    for (const auto& [name, value] :
         obs::GlobalMetrics().TextFields(mode == "timing")) {
      response->push_back(name + "=" + value);
    }
    return false;
  }
  if (verb == "--doc") {
    if (request.size() < 3) {
      *response = ErrorResponse(Status::InvalidArgument(
          "--doc takes a key and a request: --doc <key> <tokens...>"));
      return false;
    }
    const std::string& key = request[1];
    if (!ValidDocumentKey(key)) {
      *response = ErrorResponse(Status::InvalidArgument(
          "invalid document key '" + key +
          "' (want [A-Za-z0-9_.-]{1,128}, not starting with '.')"));
      return false;
    }
    const std::vector<std::string> rest(request.begin() + 2, request.end());
    if (rest[0] == "--create") {
      if (rest.size() != 2) {
        *response = ErrorResponse(Status::InvalidArgument(
            "--create takes exactly one scheme name"));
        return false;
      }
      if (!options_.allow_create || !options_.replicate_from.empty()) {
        *response = ErrorResponse(Status::Unsupported(
            options_.replicate_from.empty()
                ? "this shard does not allow --create"
                : "replica corpus: create documents on the primary"));
        return false;
      }
      {
        std::lock_guard<std::mutex> lock(mu_);
        if (docs_.count(key) != 0) {
          *response = ErrorResponse(Status::InvalidArgument(
              "document '" + key + "' already exists"));
          return false;
        }
      }
      Result<std::unique_ptr<DocEntry>> entry =
          OpenEntry(key, /*create=*/true, rest[1]);
      if (!entry.ok()) {
        *response = ErrorResponse(entry.status());
        return false;
      }
      {
        std::lock_guard<std::mutex> lock(mu_);
        docs_.emplace(key, std::move(entry).value());
        metrics_.docs->Set(static_cast<int64_t>(docs_.size()));
      }
      metrics_.creates->Add(1);
      *response = {"ok", "created", key};
      return false;
    }
    DocEntry* entry = Find(key);
    if (entry == nullptr) {
      metrics_.unknown_doc->Add(1);
      *response = {"err", std::string(kUnknownDocumentError) +
                              ": no document '" + key + "' on this shard"};
      return false;
    }
    if (rest[0] == "--shutdown") {
      *response = ErrorResponse(Status::InvalidArgument(
          "--shutdown is service-level; send it without --doc"));
      return false;
    }
    if (rest[0] == "--promote") {
      uint64_t epoch = 0;
      if (rest.size() > 2 ||
          (rest.size() == 2 && !replication::ParseU64(rest[1], &epoch))) {
        *response = ErrorResponse(Status::InvalidArgument(
            "--promote takes at most one numeric epoch"));
        return false;
      }
      PromoteDoc(entry, key, epoch, response);
      return false;
    }
    if (rest[0] == "--demote") {
      if (rest.size() != 2 || rest[1].empty()) {
        *response = ErrorResponse(Status::InvalidArgument(
            "--demote takes exactly one upstream endpoint"));
        return false;
      }
      DemoteDoc(entry, key, rest[1], response);
      return false;
    }
    entry->server->HandleRequest(rest, response);
    return false;
  }
  *response = ErrorResponse(Status::InvalidArgument(
      "a corpus endpoint needs a document: --doc <key> <tokens...>"));
  return false;
}

bool ShardedService::HandleConnection(int in_fd, int out_fd,
                                      const std::atomic<bool>& stop) {
  using concurrency::ReadFrame;
  using concurrency::WriteFrame;
  for (;;) {
    Result<std::optional<std::vector<std::string>>> frame = ReadFrame(in_fd);
    if (!frame.ok()) return false;          // torn frame or IO error
    if (!frame->has_value()) return false;  // clean EOF
    const std::vector<std::string>& request = **frame;
    // A replica subscribing to one document: hand the connection to that
    // document's streamer, exactly as a single-document server routes a
    // bare repl-hello. The streamer writes the reply and every message
    // after it; when it returns, the subscription — and connection — is
    // over.
    if (request.size() >= 3 && request[0] == "--doc" &&
        request[2] == concurrency::kReplicationHelloVerb) {
      metrics_.frames->Add(1);
      DocEntry* entry = Find(request[1]);
      if (entry == nullptr) {
        metrics_.unknown_doc->Add(1);
        (void)WriteFrame(out_fd,
                         {"err", std::string(kUnknownDocumentError) +
                                     ": no document '" + request[1] +
                                     "' on this shard"});
        return false;
      }
      // Copy the source under the role lock, stream outside it. A
      // demotion mid-stream Closes the source, which terminates the
      // subscription with an error — and the retired source stays alive
      // until service Stop, so the raw pointer remains valid.
      replication::ReplicationSource* source = nullptr;
      {
        std::lock_guard<std::mutex> lock(entry->mu);
        if (entry->primary) source = entry->source.get();
      }
      if (source == nullptr) {
        (void)WriteFrame(out_fd, {"err", "document '" + request[1] +
                                             "' is a replica here: "
                                             "subscribe to its primary"});
        return false;
      }
      const std::vector<std::string> hello(request.begin() + 2,
                                           request.end());
      source->ServeReplica(hello, out_fd, stop);
      return false;
    }
    if (!request.empty() &&
        request[0] == concurrency::kReplicationHelloVerb) {
      metrics_.frames->Add(1);
      (void)WriteFrame(
          out_fd,
          ErrorResponse(Status::InvalidArgument(
              "a corpus endpoint needs a document: --doc <key> repl-hello")));
      continue;
    }
    std::vector<std::string> response;
    const bool shutdown = HandleRequest(request, &response);
    if (!WriteFrame(out_fd, response).ok()) return shutdown;
    if (shutdown) return true;
  }
}

std::vector<std::string> ShardedService::StatusFields() const {
  std::vector<std::string> fields;
  fields.push_back("proto=" + std::to_string(kClusterProtocolVersion));
  fields.push_back("role=shard");
  if (!options_.replicate_from.empty()) {
    fields.push_back("upstream=" + options_.replicate_from);
  }
  std::lock_guard<std::mutex> lock(mu_);
  fields.push_back("docs=" + std::to_string(docs_.size()));
  for (const auto& [key, entry] : docs_) {
    std::lock_guard<std::mutex> entry_lock(entry->mu);
    store::CommitPoint commit;
    uint64_t epoch = 0;
    uint64_t fence = 0;
    if (entry->primary) {
      commit = entry->source->committed();
      epoch = entry->store->stats().current_epoch;
      fence = entry->source->fence_epoch();
    } else {
      const replication::ReplicaStatus rs = entry->applier->status();
      commit = rs.applied;
      fence = rs.fence_epoch;
      if (std::shared_ptr<const concurrency::ReadView> view =
              entry->applier->PinView()) {
        epoch = view->epoch();
      }
    }
    fields.push_back("doc." + key + "=" + std::to_string(commit.generation) +
                     ":" + std::to_string(commit.records) + ":" +
                     std::to_string(commit.bytes) + ":" +
                     std::to_string(epoch));
    fields.push_back("docrole." + key + "=" +
                     (entry->primary ? "primary" : "replica"));
    fields.push_back("docfence." + key + "=" + std::to_string(fence));
  }
  return fields;
}

void ShardedService::Stop() {
  std::lock_guard<std::mutex> lock(mu_);
  if (stopped_) return;
  stopped_ = true;
  for (auto& [key, entry] : docs_) {
    std::lock_guard<std::mutex> entry_lock(entry->mu);
    if (entry->primary) {
      entry->store->Stop();
      entry->source->Close();
    } else {
      entry->applier->Stop();
    }
  }
}

size_t ShardedService::document_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return docs_.size();
}

std::vector<std::string> ShardedService::DocumentKeys() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> keys;
  keys.reserve(docs_.size());
  for (const auto& [key, entry] : docs_) keys.push_back(key);
  return keys;
}

}  // namespace xmlup::cluster
