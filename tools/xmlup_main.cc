// xmlup — command-line front end for the durable document store.
//
// An xmlstar-style `ed` command set (SNIPPETS §1) over a journaled
// labelled document: open a store, apply structural edits by XPath, crash
// it (or damage the journal deliberately), and recover — all from the
// shell. Every edit is one or more CRC-framed journal records; `cat`
// after a process restart replays them on top of the latest snapshot.

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "cluster/coordinator.h"
#include "cluster/failover.h"
#include "cluster/router.h"
#include "cluster/sharded_service.h"
#include "concurrency/concurrent_store.h"
#include "concurrency/server.h"
#include "core/labeled_document.h"
#include "labels/registry.h"
#include "observability/metrics.h"
#include "observability/trace.h"
#include "replication/applier.h"
#include "replication/fence.h"
#include "replication/source.h"
#include "store/document_store.h"
#include "store/file.h"
#include "updates/script.h"
#include "updates/update.h"
#include "workload/engine/engine.h"
#include "workload/engine/spec.h"
#include "xml/parser.h"
#include "xml/serializer.h"
#include "xpath/evaluator.h"

namespace {

using namespace xmlup;
using store::DocumentStore;
using store::StoreOptions;
using xml::NodeId;

int Usage() {
  std::fprintf(stderr, R"(xmlup — durable XML document store

usage:
  xmlup init <dir> --scheme <name> [--xml <file>]
      create a store at <dir> labelling <file> (default: an empty <root/>)
  xmlup ed <dir> [--print] [--labels] {<action>}...
      apply structural edits; actions are executed in order:
        -i <xpath> -t elem|attr|text|comment -n <name> [-v <value>]
            insert a new sibling before each match
        -a <xpath> -t <type> -n <name> [-v <value>]
            insert a new sibling after each match
        -s <xpath> -t <type> -n <name> [-v <value>]
            insert as a child of each match (attrs before element children)
        -d <xpath>
            delete each matched subtree
        -u <xpath> -v <value>
            replace the value/text of each match
        -m <src-xpath> <dst-xpath>
            move each match to be the last child of <dst-xpath>'s first
            match (attrs slot in before element children)
        -r <xpath> -v <new-name>
            rename each matched element or attribute
      the script is applied all-or-nothing with one fsync at the end
      (group commit): a failing action rolls the journal back, leaving
      the store exactly as before the invocation; a malformed action
      list exits 2 with a one-line diagnostic quoting the bad token
      --print / --labels echo the resulting XML / node labels afterwards
  xmlup apply <dir> <script-file> [--print] [--labels]
      compile an update script and apply it as one all-or-nothing
      transaction. Scripts are line-oriented: '#' comments, blank
      lines, `let NAME = <value>` bindings (referenced as ${NAME}),
      and action lines in the ed grammar above ("quotes" group
      tokens). Compile errors exit 2 with a one-line
      <file>:<line>: diagnostic quoting the offending token
  xmlup apply (--socket <path> | --tcp <host:port>) [--doc <key>]
              <script-file>
      the same script sent to a running server (or through a router
      with --doc) as a single --apply frame: one group-commit
      transaction, acknowledged after the fsync; prints
      <matched> and <epoch>
  xmlup cat <dir> [--pretty]
      recover the document and serialize it to stdout
  xmlup labels <dir>
      recover and list every node with its label (preorder, indented)
  xmlup info <dir>
      recovery and journal statistics
  xmlup stats <dir> [--json] [--timing] [--trace]
      open the store (running recovery) and dump the metrics registry;
      the default snapshot is deterministic — identical stores render
      identical bytes. --timing adds wall-clock histogram values,
      --trace appends the recovery trace spans
  xmlup checkpoint <dir>
      roll the journal into a fresh snapshot
  xmlup damage <dir> --truncate <n> | --flip <byte>[:<bit>]
      deliberately tear or corrupt the live journal (crash simulation)
  xmlup serve <dir> --socket <path> | --tcp <host:port> | --stdio
      serve the store to concurrent clients: snapshot-isolated reads,
      single-writer group commit; requests use the wire protocol
      (length-prefixed action/query frames — see `xmlup req`); a
      socket server is also a replication primary: replicas subscribe
      over the same socket
  xmlup serve <dir> --corpus --socket <path> | --tcp <host:port>
              [--sync-repl]
      serve a corpus of documents (one store per subdirectory) as a
      cluster shard: every request names its document with
      --doc <key> <tokens...>; --doc <key> --create <scheme> adds one;
      --sync-repl ships each commit to every connected replica before
      acknowledging it (the failover zero-loss mode)
  xmlup serve <dir> --corpus (--socket|--tcp ...)
              --replicate-from <endpoint> [--sync-repl]
      run a replica corpus: every document of the upstream shard is
      tailed into <dir>; documents flip to primary on
      --doc <key> --promote (failover) and back on --demote
  xmlup serve <dir> (--socket|--tcp ...) --replicate-from <endpoint>
              [--replicate-doc <key>]
      run a read-scaling replica: tail the primary's journal stream
      into <dir> (snapshot catch-up when too far behind) and serve
      reads from replicated snapshots; updates are rejected (until a
      --promote flips it into a primary over the same directory).
      <endpoint> is a socket path or tcp:HOST:PORT; --replicate-doc
      subscribes to one document of a corpus shard
  xmlup route --shards <ep>[,<ep>...] --socket <path> | --tcp <host:port>
              [--prefix <key-prefix>=<shard>,...]
              [--replica <shard>=<ep>]... [--failover]
      run a cluster router: forward each --doc <key> frame to the shard
      owning <key> (hash placement, or longest-prefix rules with hash
      fallback) over pooled connections; --cluster-status aggregates
      every shard's health and positions. --replica registers shard
      <shard>'s replica endpoints (repeatable); --failover watches every
      shard and, when one dies, promotes each of its documents' furthest-
      ahead replicas and repoints routing at them automatically
  xmlup promote --socket <path> | --tcp <host:port> [--doc <key>]
              [--epoch <n>]
      flip a running replica into a primary (manual failover): stops its
      applier, fences the old primary's epoch, and opens the full write
      pipeline over the same store directory. --doc targets one document
      of a replica corpus; --epoch forces a fence epoch (default: one
      past the highest known)
  xmlup req --socket <path> | --tcp <host:port> {<token>}...
      send one request frame to a running server and print the reply:
      the ed action grammar above, or -q <xpath>, --xml, --epoch,
      --stats, --ping, --repl-status, --shutdown
  xmlup repl-status --socket <path> | --tcp <host:port>
      replication role, position, and lag of a running server
  xmlup cluster-status --socket <path> | --tcp <host:port>
      cluster health: per-shard reachability, document keys, and
      CommitPoint triples (via a router), or one shard's corpus when
      pointed at the shard directly
  xmlup workload check <spec>
      parse and validate a declarative workload spec (graph of edit/
      query/random-choice/for-n/think-time nodes — see DESIGN.md §11);
      any structural defect exits 2 with a one-line diagnostic quoting
      the offending spec line
  xmlup workload run <spec> --target <endpoint> [--threads <n>]
              [--seed <s>] [--ops <n> | --duration <ms>] [--rate <hz>]
              [--retries <n>]
              [--set <name>=<value>]... [--out <file>] [--trace <file>]
      drive the spec against a running server (socket path or
      tcp:HOST:PORT — a single-document serve, a corpus shard, or a
      router) with <n> worker threads, each bit-reproducibly seeded
      from --seed; stops after --ops client ops per thread, after
      --duration, or after one pass through the graph. --rate paces
      each worker open-loop; --set overrides a spec variable. Per-node
      latency lands in the metrics registry and the run writes per-node
      p50/p95/p99, throughput, and error counts to --out (default
      BENCH_workload.json); --trace dumps the client-side op sequence;
      --retries raises the per-op transport attempt budget (and retries
      routed-unavailable replies) so a run rides out a failover window
  xmlup schemes
      list registered labelling schemes
)");
  return 2;
}

int Fail(const common::Status& status) {
  std::fprintf(stderr, "xmlup: %s\n", status.ToString().c_str());
  return 1;
}

common::Result<std::string> ReadInputFile(const std::string& path) {
  return store::PosixFileSystem()->ReadFile(path);
}

void PrintLabels(const core::LabeledDocument& doc) {
  for (NodeId n : doc.tree().PreorderNodes()) {
    int depth = doc.tree().Depth(n);
    std::string name = doc.tree().name(n);
    if (name.empty()) {
      name.push_back('#');
      name.append(xml::NodeKindName(doc.tree().kind(n)));
    }
    std::printf("%*s%-16s %s\n", depth * 2, "", name.c_str(),
                doc.scheme().Render(doc.label(n)).c_str());
  }
}

int PrintXml(const core::LabeledDocument& doc, bool pretty) {
  xml::SerializeOptions opts;
  opts.pretty = pretty;
  auto text = xml::SerializeDocument(doc.tree(), opts);
  if (!text.ok()) return Fail(text.status());
  std::fputs(text->c_str(), stdout);
  if (text->empty() || text->back() != '\n') std::fputc('\n', stdout);
  return 0;
}

// --- ed / apply -----------------------------------------------------------

// Applies one compiled request list to a local store as an all-or-nothing
// script with a single sync barrier — the body shared by `ed` (argv
// actions) and `apply` (a compiled script file).
int ApplyToLocalStore(const char* cmd, const std::string& dir,
                      const std::vector<updates::UpdateRequest>& actions,
                      bool print, bool labels) {
  StoreOptions options;
  // One barrier for the whole script; a mid-script failure rolls back.
  options.sync_each_update = false;
  // Checkpoints compact NodeIds; roll only between whole edit scripts.
  options.auto_checkpoint = false;
  auto st = DocumentStore::Open(dir, options);
  if (!st.ok()) return Fail(st.status());
  // Nothing this invocation appends is synced until CommitBatch below, so
  // a mid-script failure rolls the journal back to this mark — in place,
  // never rewriting (and so never endangering) the committed prefix.
  const DocumentStore::BatchMark mark = (*st)->Mark();
  for (const updates::UpdateRequest& action : actions) {
    common::Status status = updates::ApplyUpdate(st->get(), action, nullptr);
    if (!status.ok()) {
      // Unwind the unsynced tail this invocation appended: the journal —
      // and therefore the next recovery — must not contain a partially
      // applied script.
      common::Status rolled = (*st)->RollbackTail(mark);
      if (!rolled.ok()) {
        std::fprintf(stderr,
                     "xmlup %s: rollback failed, a partial script may "
                     "remain in the journal: %s\n",
                     cmd, rolled.ToString().c_str());
      }
      return Fail(status);
    }
  }
  common::Status committed = (*st)->CommitBatch();
  if (!committed.ok()) return Fail(committed);
  common::Status rolled = (*st)->MaybeCheckpoint();
  if (!rolled.ok()) return Fail(rolled);
  if (print) {
    int rc = PrintXml((*st)->document(), /*pretty=*/false);
    if (rc != 0) return rc;
  }
  if (labels) PrintLabels((*st)->document());
  return 0;
}

int CmdEd(int argc, char** argv) {
  if (argc < 1) return Usage();
  std::string dir = argv[0];
  bool print = false, labels = false;
  std::vector<std::string> tokens;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--print") {
      print = true;
    } else if (arg == "--labels") {
      labels = true;
    } else {
      tokens.push_back(std::move(arg));
    }
  }
  auto actions = updates::ParseActionTokens(tokens);
  if (!actions.ok()) {
    // A malformed action list is a usage error, not a store failure: the
    // one-line token-quoting diagnostic and exit 2, matching `workload
    // check` and `apply`.
    std::fprintf(stderr, "xmlup ed: %s\n",
                 actions.status().ToString().c_str());
    return 2;
  }
  if (actions->empty()) {
    std::fprintf(stderr, "xmlup ed: no actions given\n");
    return Usage();
  }
  return ApplyToLocalStore("ed", dir, *actions, print, labels);
}

int CmdApply(int argc, char** argv);  // defined after the req helpers

// --- serve / req ----------------------------------------------------------

// Strict positive-count parser for --threads/--ops/--epoch/...: strtoull's
// 0-on-junk would otherwise turn a typo into a silent zero (a run of no
// workers, no operations or no time).
bool ParseCountFor(const char* cmd, const char* flag, const char* text,
                   size_t* out) {
  char* end = nullptr;
  errno = 0;
  unsigned long long value = std::strtoull(text, &end, 10);
  size_t narrowed = static_cast<size_t>(value);
  if (errno != 0 || end == text || *end != '\0' || value == 0 ||
      narrowed != value) {
    std::fprintf(stderr, "xmlup %s: %s needs a positive integer, got '%s'\n",
                 cmd, flag, text);
    return false;
  }
  *out = narrowed;
  return true;
}

// Validates a --tcp HOST:PORT spec with the command's one-line-diagnostic
// contract (same spirit as ParseCount above: a typo'd port must not bind
// some other port, it must fail loudly).
bool ParseTcpSpec(const char* cmd, const std::string& spec, std::string* host,
                  uint16_t* port) {
  common::Status status = concurrency::ParseHostPort(spec, host, port);
  if (!status.ok()) {
    std::fprintf(stderr, "xmlup %s: %s\n", cmd, status.ToString().c_str());
    return false;
  }
  return true;
}

int CmdServe(int argc, char** argv) {
  if (argc < 1) return Usage();
  std::string dir = argv[0];
  std::string socket_path;
  std::string tcp_spec;
  std::string replicate_from;
  std::string replicate_doc;
  bool stdio = false;
  bool corpus = false;
  bool sync_repl = false;
  concurrency::ConcurrentStoreOptions options;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--socket" && i + 1 < argc) {
      socket_path = argv[++i];
    } else if (arg == "--tcp" && i + 1 < argc) {
      tcp_spec = argv[++i];
    } else if (arg == "--stdio") {
      stdio = true;
    } else if (arg == "--corpus") {
      corpus = true;
    } else if (arg == "--sync-repl") {
      sync_repl = true;
    } else if (arg == "--replicate-from" && i + 1 < argc) {
      replicate_from = argv[++i];
    } else if (arg == "--replicate-doc" && i + 1 < argc) {
      replicate_doc = argv[++i];
    } else {
      std::fprintf(stderr, "xmlup serve: unexpected argument '%s'\n",
                   arg.c_str());
      return 2;
    }
  }
  if ((socket_path.empty() ? 0 : 1) + (tcp_spec.empty() ? 0 : 1) +
          (stdio ? 1 : 0) !=
      1) {
    std::fprintf(
        stderr, "xmlup serve: exactly one of --socket/--tcp/--stdio required\n");
    return 2;
  }
  std::string tcp_host;
  uint16_t tcp_port = 0;
  if (!tcp_spec.empty() &&
      !ParseTcpSpec("serve", tcp_spec, &tcp_host, &tcp_port)) {
    return 2;
  }
  if (!replicate_doc.empty() && replicate_from.empty()) {
    std::fprintf(stderr,
                 "xmlup serve: --replicate-doc needs --replicate-from\n");
    return 2;
  }

  if (corpus) {
    // A cluster shard: one store per subdirectory of `dir`, each with its
    // own pipeline and replication source, multiplexed by --doc <key> —
    // or, with --replicate-from, a replica corpus tailing another shard,
    // ready to be promoted document by document.
    if (stdio) {
      std::fprintf(stderr,
                   "xmlup serve: --corpus needs --socket or --tcp\n");
      return 2;
    }
    cluster::ShardedServiceOptions service_options;
    service_options.store = options;
    service_options.replicate_from = replicate_from;
    service_options.sync_replication = sync_repl;
    auto service = cluster::ShardedService::Open(dir, service_options);
    if (!service.ok()) return Fail(service.status());
    concurrency::Listener listener(service->get());
    common::Status served = tcp_spec.empty()
                                ? listener.ServeUnixSocket(socket_path)
                                : listener.ServeTcp(tcp_host, tcp_port);
    (*service)->Stop();
    if (!served.ok()) return Fail(served);
    return 0;
  }

  if (!replicate_from.empty()) {
    // Replica: no local writer at all. The applier tails the primary into
    // `dir` (a normal store directory — `xmlup cat`/`info` read it) and
    // the server answers reads from replicated snapshots.
    if (stdio) {
      std::fprintf(stderr,
                   "xmlup serve: --replicate-from needs --socket or --tcp, "
                   "not --stdio\n");
      return 2;
    }
    replication::ReplicaApplierOptions applier_options;
    if (!replicate_doc.empty()) {
      applier_options.hello_prefix = {"--doc", replicate_doc};
    }
    auto applier = replication::ReplicaApplier::Start(dir, replicate_from,
                                                      applier_options);
    if (!applier.ok()) return Fail(applier.status());
    concurrency::Server server(applier->get());
    server.SetReplStatus(
        [a = applier->get()] { return a->StatusFields(); });
    // `--promote` flips this replica into a primary in place: stop the
    // applier, fence the old primary's epoch, open the full pipeline
    // over the same directory (the layouts are bit-identical), swap the
    // server's role. The promoted objects must outlive serving.
    struct PromotedRole {
      std::mutex mu;
      std::unique_ptr<replication::ReplicationSource> source;
      std::unique_ptr<concurrency::ConcurrentStore> store;
    };
    auto promoted = std::make_shared<PromotedRole>();
    server.SetPromoteHandler(
        [&, promoted](uint64_t epoch)
            -> common::Result<std::vector<std::string>> {
          std::lock_guard<std::mutex> lock(promoted->mu);
          if (promoted->store != nullptr) {
            return std::vector<std::string>{
                "already-primary",
                "fence=" + std::to_string(promoted->source->fence_epoch())};
          }
          replication::ReplicaApplier* a = applier->get();
          const replication::ReplicaStatus before = a->status();
          if (!before.has_view || before.applied.generation == 0) {
            return common::Status::InvalidArgument(
                "cannot promote: replica holds no document yet");
          }
          a->Stop();
          const store::CommitPoint position = a->status().applied;
          const uint64_t fence_epoch =
              std::max(epoch, a->status().fence_epoch + 1);
          const replication::FenceToken fence{fence_epoch, position};
          XMLUP_RETURN_NOT_OK(
              replication::WriteFence(nullptr, dir, fence));
          replication::ReplicationSource::Options source_options;
          source_options.fence = fence;
          source_options.sync_ship = sync_repl;
          auto source = std::make_unique<replication::ReplicationSource>(
              source_options);
          concurrency::ConcurrentStoreOptions open_options = options;
          open_options.commit_hook = source.get();
          XMLUP_ASSIGN_OR_RETURN(
              std::unique_ptr<concurrency::ConcurrentStore> store,
              concurrency::ConcurrentStore::Open(dir, open_options));
          server.SetRole(store.get(), store.get(), source.get(),
                         [s = source.get()] { return s->StatusFields(); });
          promoted->source = std::move(source);
          promoted->store = std::move(store);
          return std::vector<std::string>{
              "promoted", "fence=" + std::to_string(fence_epoch),
              "generation=" + std::to_string(position.generation),
              "records=" + std::to_string(position.records),
              "bytes=" + std::to_string(position.bytes)};
        });
    common::Status served = tcp_spec.empty()
                                ? server.ServeUnixSocket(socket_path)
                                : server.ServeTcp(tcp_host, tcp_port);
    {
      std::lock_guard<std::mutex> lock(promoted->mu);
      if (promoted->store != nullptr) {
        promoted->store->Stop();
        promoted->source->Close();
      } else {
        (*applier)->Stop();
      }
    }
    if (!served.ok()) return Fail(served);
    return 0;
  }

  // Primary: the source tails every group commit so replicas can
  // subscribe on the serving socket (no-op until one does). The stored
  // fence (if any) carries the epoch across restarts.
  auto fence = replication::ReadFence(nullptr, dir);
  if (!fence.ok()) return Fail(fence.status());
  replication::ReplicationSource::Options source_options;
  source_options.fence = *fence;
  source_options.sync_ship = sync_repl;
  replication::ReplicationSource source(source_options);
  options.commit_hook = &source;
  auto st = concurrency::ConcurrentStore::Open(dir, options);
  if (!st.ok()) return Fail(st.status());
  concurrency::Server server(st->get());
  server.EnableReplication(&source);
  server.SetReplStatus([&source] { return source.StatusFields(); });
  if (stdio) {
    server.ServeConnection(/*in_fd=*/0, /*out_fd=*/1);
  } else {
    common::Status served = tcp_spec.empty()
                                ? server.ServeUnixSocket(socket_path)
                                : server.ServeTcp(tcp_host, tcp_port);
    if (!served.ok()) return Fail(served);
  }
  (*st)->Stop();
  return 0;
}

// Shared by req/repl-status/cluster-status: exactly one of --socket
// <path> / --tcp HOST:PORT, folded into the DialEndpoint spec grammar.
// Returns false (after its one-line diagnostic) on a malformed flag set.
bool ParseEndpointFlags(const char* cmd, const std::string& socket_path,
                        const std::string& tcp_spec, std::string* endpoint) {
  if (socket_path.empty() == tcp_spec.empty()) {
    std::fprintf(stderr, "xmlup %s: exactly one of --socket/--tcp required\n",
                 cmd);
    return false;
  }
  if (!tcp_spec.empty()) {
    std::string host;
    uint16_t port = 0;
    if (!ParseTcpSpec(cmd, tcp_spec, &host, &port)) return false;
    *endpoint = "tcp:" + tcp_spec;
    return true;
  }
  *endpoint = socket_path;
  return true;
}

// Sends `request` to `endpoint` and prints the reply: after an `ok` head,
// its fields on stdout, one a line (exit 0); after any other head, the
// error text on stderr (exit 1).
int RequestAndPrint(const char* cmd, const std::string& endpoint,
                    const std::vector<std::string>& request) {
  auto response = concurrency::EndpointRequest(endpoint, request);
  if (!response.ok()) return Fail(response.status());
  if (response->empty() || (*response)[0] != "ok") {
    std::fprintf(stderr, "xmlup %s: %s\n", cmd,
                 response->size() > 1 ? (*response)[1].c_str()
                                      : "malformed reply");
    return 1;
  }
  for (size_t i = 1; i < response->size(); ++i) {
    std::printf("%s\n", (*response)[i].c_str());
  }
  return 0;
}

int CmdReq(int argc, char** argv) {
  std::string socket_path;
  std::string tcp_spec;
  std::vector<std::string> request;
  for (int i = 0; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--socket" && i + 1 < argc) {
      socket_path = argv[++i];
    } else if (arg == "--tcp" && i + 1 < argc) {
      tcp_spec = argv[++i];
    } else {
      request.push_back(std::move(arg));
    }
  }
  std::string endpoint;
  if (!ParseEndpointFlags("req", socket_path, tcp_spec, &endpoint)) return 2;
  if (request.empty()) return Usage();
  return RequestAndPrint("req", endpoint, request);
}

// `xmlup apply`: compile an update-script file and run it as one
// transaction — locally against a store directory, or remotely as a
// single `--apply` frame (optionally routed with --doc). Compile errors
// exit 2 with the script compiler's `<file>:<line>: ...` one-liner; the
// remote form compiles locally first so a typo never costs a round-trip.
int CmdApply(int argc, char** argv) {
  if (argc < 1) return Usage();
  std::string socket_path;
  std::string tcp_spec;
  std::string doc_key;
  bool print = false, labels = false;
  std::vector<std::string> positional;
  for (int i = 0; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--socket" && i + 1 < argc) {
      socket_path = argv[++i];
    } else if (arg == "--tcp" && i + 1 < argc) {
      tcp_spec = argv[++i];
    } else if (arg == "--doc" && i + 1 < argc) {
      doc_key = argv[++i];
    } else if (arg == "--print") {
      print = true;
    } else if (arg == "--labels") {
      labels = true;
    } else {
      positional.push_back(std::move(arg));
    }
  }
  const bool remote = !socket_path.empty() || !tcp_spec.empty();
  if (remote) {
    if (print || labels) {
      std::fprintf(stderr,
                   "xmlup apply: --print/--labels are local-only (use "
                   "`xmlup req ... --xml` against a server)\n");
      return 2;
    }
    if (positional.size() != 1) {
      std::fprintf(stderr,
                   "xmlup apply: remote form takes exactly one "
                   "<script-file>\n");
      return 2;
    }
  } else {
    if (!doc_key.empty()) {
      std::fprintf(stderr, "xmlup apply: --doc needs --socket or --tcp\n");
      return 2;
    }
    if (positional.size() != 2) return Usage();
  }
  const std::string& script_path = remote ? positional[0] : positional[1];
  auto text = ReadInputFile(script_path);
  if (!text.ok()) {
    std::fprintf(stderr, "xmlup apply: %s\n",
                 text.status().ToString().c_str());
    return 2;
  }
  auto script = updates::ParseUpdateScript(*text, script_path);
  if (!script.ok()) {
    std::fprintf(stderr, "xmlup apply: %s\n",
                 script.status().ToString().c_str());
    return 2;
  }
  if (script->requests.empty()) {
    std::fprintf(stderr, "xmlup apply: %s: script contains no actions\n",
                 script_path.c_str());
    return 2;
  }
  if (!remote) {
    return ApplyToLocalStore("apply", positional[0], script->requests, print,
                             labels);
  }
  std::string endpoint;
  if (!ParseEndpointFlags("apply", socket_path, tcp_spec, &endpoint)) return 2;
  std::vector<std::string> request;
  if (!doc_key.empty()) {
    request.push_back("--doc");
    request.push_back(doc_key);
  }
  request.push_back("--apply");
  request.push_back(*text);  // the server compiles its own copy
  return RequestAndPrint("apply", endpoint, request);
}

// Sugar for `req ... <verb>`: the same wire verb, a memorable name.
// repl-status asks one server for its replication role/lag;
// cluster-status asks a router (or a shard directly) for per-shard
// health, document keys, and CommitPoint triples.
int CmdStatusVerb(const char* cmd, const char* verb, int argc, char** argv) {
  std::string socket_path;
  std::string tcp_spec;
  for (int i = 0; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--socket" && i + 1 < argc) {
      socket_path = argv[++i];
    } else if (arg == "--tcp" && i + 1 < argc) {
      tcp_spec = argv[++i];
    } else {
      return Usage();
    }
  }
  std::string endpoint;
  if (!ParseEndpointFlags(cmd, socket_path, tcp_spec, &endpoint)) return 2;
  return RequestAndPrint(cmd, endpoint, {verb});
}

// --- promote ----------------------------------------------------------------

// Manual failover: sends `--promote` (optionally scoped to one document
// of a corpus) to a running replica and prints the reply fields.
int CmdPromote(int argc, char** argv) {
  std::string socket_path;
  std::string tcp_spec;
  std::string doc_key;
  std::string epoch_text;
  for (int i = 0; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--socket" && i + 1 < argc) {
      socket_path = argv[++i];
    } else if (arg == "--tcp" && i + 1 < argc) {
      tcp_spec = argv[++i];
    } else if (arg == "--doc" && i + 1 < argc) {
      doc_key = argv[++i];
    } else if (arg == "--epoch" && i + 1 < argc) {
      epoch_text = argv[++i];
    } else {
      return Usage();
    }
  }
  std::string endpoint;
  if (!ParseEndpointFlags("promote", socket_path, tcp_spec, &endpoint)) {
    return 2;
  }
  if (!epoch_text.empty()) {
    size_t ignored = 0;
    if (!ParseCountFor("promote", "--epoch", epoch_text.c_str(), &ignored)) {
      return 2;
    }
  }
  std::vector<std::string> request;
  if (!doc_key.empty()) request = {"--doc", doc_key};
  request.push_back("--promote");
  if (!epoch_text.empty()) request.push_back(epoch_text);
  return RequestAndPrint("promote", endpoint, request);
}

// --- route ------------------------------------------------------------------

int CmdRoute(int argc, char** argv) {
  std::string shards_text;
  std::string socket_path;
  std::string tcp_spec;
  std::string prefix_text;
  bool failover = false;
  // shard index -> replica endpoint specs, from repeated --replica flags.
  std::map<size_t, std::vector<std::string>> replica_map;
  for (int i = 0; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--shards" && i + 1 < argc) {
      shards_text = argv[++i];
    } else if (arg == "--socket" && i + 1 < argc) {
      socket_path = argv[++i];
    } else if (arg == "--tcp" && i + 1 < argc) {
      tcp_spec = argv[++i];
    } else if (arg == "--prefix" && i + 1 < argc) {
      prefix_text = argv[++i];
    } else if (arg == "--replica" && i + 1 < argc) {
      const std::string kv = argv[++i];
      const size_t eq = kv.find('=');
      char* end = nullptr;
      errno = 0;
      unsigned long long index =
          eq == std::string::npos
              ? 0
              : std::strtoull(kv.substr(0, eq).c_str(), &end, 10);
      if (eq == std::string::npos || eq == 0 || eq + 1 == kv.size() ||
          errno != 0 || end == nullptr || *end != '\0') {
        std::fprintf(stderr,
                     "xmlup route: --replica needs <shard-index>=<endpoint>, "
                     "got '%s'\n",
                     kv.c_str());
        return 2;
      }
      std::string spec = kv.substr(eq + 1);
      if (spec.rfind("tcp:", 0) != 0 &&
          spec.find(':') != std::string::npos) {
        spec = "tcp:" + spec;  // bare HOST:PORT is TCP
      }
      replica_map[static_cast<size_t>(index)].push_back(std::move(spec));
    } else if (arg == "--failover") {
      failover = true;
    } else {
      return Usage();
    }
  }
  if (shards_text.empty()) {
    std::fprintf(stderr, "xmlup route: --shards is required\n");
    return 2;
  }
  auto shards = cluster::ParseShardList(shards_text);
  if (!shards.ok()) {
    std::fprintf(stderr, "xmlup route: %s\n",
                 shards.status().ToString().c_str());
    return 2;
  }
  if ((socket_path.empty() ? 0 : 1) + (tcp_spec.empty() ? 0 : 1) != 1) {
    std::fprintf(stderr,
                 "xmlup route: exactly one of --socket/--tcp required\n");
    return 2;
  }
  std::string tcp_host;
  uint16_t tcp_port = 0;
  if (!tcp_spec.empty() &&
      !ParseTcpSpec("route", tcp_spec, &tcp_host, &tcp_port)) {
    return 2;
  }
  std::unique_ptr<cluster::ShardRouter> router;
  if (prefix_text.empty()) {
    router = std::make_unique<cluster::HashRouter>(shards->size());
  } else {
    auto rules = cluster::ParsePrefixRules(prefix_text, shards->size());
    if (!rules.ok()) {
      std::fprintf(stderr, "xmlup route: %s\n",
                   rules.status().ToString().c_str());
      return 2;
    }
    router = std::make_unique<cluster::PrefixRouter>(std::move(*rules),
                                                     shards->size());
  }
  const size_t shard_count = shards->size();
  for (const auto& [index, specs] : replica_map) {
    (void)specs;
    if (index >= shard_count) {
      std::fprintf(stderr,
                   "xmlup route: --replica shard index %zu out of range "
                   "(%zu shards)\n",
                   index, shard_count);
      return 2;
    }
  }
  if (failover && replica_map.empty()) {
    std::fprintf(stderr,
                 "xmlup route: --failover needs at least one --replica\n");
    return 2;
  }
  std::vector<std::string> primary_specs;
  primary_specs.reserve(shard_count);
  for (const cluster::ShardAddress& shard : *shards) {
    primary_specs.push_back(shard.spec);
  }
  cluster::Coordinator coordinator(std::move(*shards), std::move(router));
  std::unique_ptr<cluster::FailoverMonitor> monitor;
  if (failover) {
    std::vector<cluster::ShardTopology> topology(shard_count);
    for (size_t i = 0; i < shard_count; ++i) {
      topology[i].primary = primary_specs[i];
      auto it = replica_map.find(i);
      if (it != replica_map.end()) topology[i].replicas = it->second;
    }
    monitor = std::make_unique<cluster::FailoverMonitor>(
        &coordinator, std::move(topology), cluster::FailoverOptions{});
    coordinator.SetExtraStatus(
        [raw = monitor.get()] { return raw->StatusFields(); });
  }
  // Startup discovery: one cluster-hello sweep, printed before serving so
  // an operator sees immediately which shards answered and what they own.
  for (const std::string& field : coordinator.ClusterStatusFields()) {
    std::fprintf(stderr, "%s\n", field.c_str());
  }
  if (monitor) monitor->Start();
  concurrency::Listener listener(&coordinator);
  common::Status served = tcp_spec.empty()
                              ? listener.ServeUnixSocket(socket_path)
                              : listener.ServeTcp(tcp_host, tcp_port);
  if (monitor) monitor->Stop();
  if (!served.ok()) return Fail(served);
  return 0;
}

// --- workload ---------------------------------------------------------------

// `workload check <spec>`: the validate-only gate. Exit 2 with the
// parser's one-line spec-quoting diagnostic, matching the CLI's
// bad-flag convention, so CI can vet a spec before opening any traffic.
int CmdWorkloadCheck(int argc, char** argv) {
  if (argc != 1) return Usage();
  auto text = ReadInputFile(argv[0]);
  if (!text.ok()) {
    std::fprintf(stderr, "xmlup workload check: %s\n",
                 text.status().ToString().c_str());
    return 2;
  }
  auto spec = workload::ParseWorkloadSpec(*text);
  if (!spec.ok()) {
    std::fprintf(stderr, "xmlup workload check: %s\n",
                 spec.status().ToString().c_str());
    return 2;
  }
  // nodes includes the implicit finish; report what the author wrote.
  const std::string title = spec->name.empty() ? "" : spec->name + ", ";
  std::printf("ok: %s%zu nodes, start=%s\n", title.c_str(),
              spec->nodes.size() - 1,
              spec->nodes[spec->start].name.c_str());
  return 0;
}

int CmdWorkloadRun(int argc, char** argv) {
  if (argc < 1) return Usage();
  std::string spec_path = argv[0];
  workload::EngineOptions options;
  std::string out_path = "BENCH_workload.json";
  std::string trace_path;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--target" && i + 1 < argc) {
      options.target = argv[++i];
    } else if (arg == "--threads" && i + 1 < argc) {
      if (!ParseCountFor("workload run", "--threads", argv[++i], &options.threads)) return 2;
    } else if (arg == "--seed" && i + 1 < argc) {
      options.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--ops" && i + 1 < argc) {
      size_t ops = 0;
      if (!ParseCountFor("workload run", "--ops", argv[++i], &ops)) return 2;
      options.ops_per_thread = ops;
    } else if (arg == "--duration" && i + 1 < argc) {
      size_t ms = 0;
      if (!ParseCountFor("workload run", "--duration", argv[++i], &ms)) return 2;
      options.duration_ms = ms;
    } else if (arg == "--rate" && i + 1 < argc) {
      options.rate_hz = std::strtod(argv[++i], nullptr);
      if (!(options.rate_hz > 0)) {
        std::fprintf(stderr,
                     "xmlup workload run: --rate needs a positive number\n");
        return 2;
      }
    } else if (arg == "--set" && i + 1 < argc) {
      std::string kv = argv[++i];
      size_t eq = kv.find('=');
      if (eq == std::string::npos || eq == 0) {
        std::fprintf(stderr,
                     "xmlup workload run: --set needs <name>=<value>, got "
                     "'%s'\n",
                     kv.c_str());
        return 2;
      }
      options.overrides.emplace_back(kv.substr(0, eq), kv.substr(eq + 1));
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (arg == "--trace" && i + 1 < argc) {
      trace_path = argv[++i];
      options.collect_trace = true;
    } else if (arg == "--retries" && i + 1 < argc) {
      size_t attempts = 0;
      if (!ParseCountFor("workload run", "--retries", argv[++i], &attempts)) {
        return 2;
      }
      // The chaos knob: ops survive a failover window by retrying until
      // the promoted primary answers, and a router's "routed: ...
      // unavailable" reply becomes retryable instead of fatal.
      options.op_attempts = static_cast<int>(attempts);
      options.retry_routed_errors = true;
    } else {
      return Usage();
    }
  }
  if (options.target.empty()) {
    std::fprintf(stderr, "xmlup workload run: --target is required\n");
    return 2;
  }
  if (options.target.rfind("tcp:", 0) == 0) {
    std::string host;
    uint16_t port = 0;
    if (!ParseTcpSpec("workload run", options.target.substr(4), &host,
                      &port)) {
      return 2;
    }
  }
  if (options.ops_per_thread > 0 && options.duration_ms > 0) {
    std::fprintf(stderr,
                 "xmlup workload run: --ops and --duration are mutually "
                 "exclusive\n");
    return 2;
  }

  auto text = ReadInputFile(spec_path);
  if (!text.ok()) {
    std::fprintf(stderr, "xmlup workload run: %s\n",
                 text.status().ToString().c_str());
    return 2;
  }
  auto spec = workload::ParseWorkloadSpec(*text);
  if (!spec.ok()) {
    std::fprintf(stderr, "xmlup workload run: %s\n",
                 spec.status().ToString().c_str());
    return 2;
  }

  auto report = workload::RunWorkload(*spec, options);
  if (!report.ok()) return Fail(report.status());

  // Summary to stderr (stdout stays parseable), JSON to --out.
  for (const workload::NodeReport& node : report->nodes) {
    std::fprintf(stderr,
                 "node %-16s %-10s ops=%llu errors=%llu "
                 "p50=%lluus p95=%lluus p99=%lluus\n",
                 node.name.c_str(), node.type.c_str(),
                 static_cast<unsigned long long>(node.ops),
                 static_cast<unsigned long long>(node.errors),
                 static_cast<unsigned long long>(node.latency.p50 / 1000),
                 static_cast<unsigned long long>(node.latency.p95 / 1000),
                 static_cast<unsigned long long>(node.latency.p99 / 1000));
  }
  std::printf("ops=%llu errors=%llu elapsed_ms=%.0f ops_per_s=%.0f\n",
              static_cast<unsigned long long>(report->ops_total),
              static_cast<unsigned long long>(report->errors_total),
              report->elapsed_ms, report->ops_per_s);

  std::string json = workload::RenderWorkloadJson(*spec, options, *report);
  FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "xmlup workload run: cannot write %s\n",
                 out_path.c_str());
    return 1;
  }
  std::fputs(json.c_str(), out);
  std::fclose(out);

  if (!trace_path.empty()) {
    FILE* trace = std::fopen(trace_path.c_str(), "w");
    if (trace == nullptr) {
      std::fprintf(stderr, "xmlup workload run: cannot write %s\n",
                   trace_path.c_str());
      return 1;
    }
    for (size_t t = 0; t < report->trace.size(); ++t) {
      std::fprintf(trace, "# thread %zu\n", t);
      for (const std::string& line : report->trace[t]) {
        std::fprintf(trace, "%s\n", line.c_str());
      }
    }
    std::fclose(trace);
  }
  return 0;
}

int CmdWorkload(int argc, char** argv) {
  if (argc < 1) return Usage();
  std::string sub = argv[0];
  if (sub == "check") return CmdWorkloadCheck(argc - 1, argv + 1);
  if (sub == "run") return CmdWorkloadRun(argc - 1, argv + 1);
  std::fprintf(stderr, "xmlup workload: unknown subcommand '%s'\n",
               sub.c_str());
  return Usage();
}

// --- other commands -------------------------------------------------------

int CmdInit(int argc, char** argv) {
  if (argc < 1) return Usage();
  std::string dir = argv[0];
  std::string scheme_name, xml_path;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--scheme" && i + 1 < argc) {
      scheme_name = argv[++i];
    } else if (arg == "--xml" && i + 1 < argc) {
      xml_path = argv[++i];
    } else {
      return Usage();
    }
  }
  if (scheme_name.empty()) {
    std::fprintf(stderr, "xmlup init: --scheme is required\n");
    return Usage();
  }
  xml::Tree tree;
  if (xml_path.empty()) {
    auto root = tree.CreateRoot(xml::NodeKind::kElement, "root");
    if (!root.ok()) return Fail(root.status());
  } else {
    auto text = ReadInputFile(xml_path);
    if (!text.ok()) return Fail(text.status());
    auto parsed = xml::ParseDocument(*text);
    if (!parsed.ok()) return Fail(parsed.status());
    tree = std::move(*parsed);
  }
  auto st = DocumentStore::Create(dir, std::move(tree), scheme_name);
  if (!st.ok()) return Fail(st.status());
  std::printf("created %s: scheme=%s nodes=%zu\n", dir.c_str(),
              scheme_name.c_str(), (*st)->document().tree().node_count());
  return 0;
}

int CmdCat(int argc, char** argv) {
  if (argc < 1) return Usage();
  bool pretty = argc > 1 && std::strcmp(argv[1], "--pretty") == 0;
  auto st = DocumentStore::Open(argv[0]);
  if (!st.ok()) return Fail(st.status());
  return PrintXml((*st)->document(), pretty);
}

int CmdLabels(int argc, char** argv) {
  if (argc < 1) return Usage();
  auto st = DocumentStore::Open(argv[0]);
  if (!st.ok()) return Fail(st.status());
  PrintLabels((*st)->document());
  return 0;
}

int CmdInfo(int argc, char** argv) {
  if (argc < 1) return Usage();
  auto st = DocumentStore::Open(argv[0]);
  if (!st.ok()) return Fail(st.status());
  const store::StoreStats& stats = (*st)->stats();
  const core::LabeledDocument& doc = (*st)->document();
  std::printf("scheme:             %s\n", doc.scheme().traits().name.c_str());
  std::printf("nodes:              %zu\n", doc.tree().node_count());
  std::printf("avg label bits:     %.1f\n", doc.AverageLabelBits());
  std::printf("generation:         %llu\n",
              static_cast<unsigned long long>(stats.sequence));
  std::printf("journal bytes:      %llu\n",
              static_cast<unsigned long long>(stats.journal_bytes));
  std::printf("journal records:    %llu\n",
              static_cast<unsigned long long>(stats.journal_records));
  std::printf("recovered records:  %llu\n",
              static_cast<unsigned long long>(stats.recovered_records));
  std::printf("truncated bytes:    %llu\n",
              static_cast<unsigned long long>(stats.truncated_bytes));
  // The durable position triple — what a replica's handshake would send.
  const store::CommitPoint commit = (*st)->LastCommitPoint();
  std::printf("last commit:        gen=%llu records=%llu offset=%llu\n",
              static_cast<unsigned long long>(commit.generation),
              static_cast<unsigned long long>(commit.records),
              static_cast<unsigned long long>(commit.bytes));
  return 0;
}

// Opens the store — recovery populates doc.* and store.recovery.* cells —
// and dumps the registry. With metrics compiled out this still recovers
// (so it validates the store) but reports the layer as disabled.
int CmdStats(int argc, char** argv) {
  if (argc < 1) return Usage();
  std::string dir = argv[0];
  bool json = false, timing = false, trace = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--json") {
      json = true;
    } else if (arg == "--timing") {
      timing = true;
    } else if (arg == "--trace") {
      trace = true;
    } else {
      return Usage();
    }
  }
  auto st = DocumentStore::Open(dir);
  if (!st.ok()) return Fail(st.status());
  if (!obs::kMetricsEnabled) {
    std::fprintf(stderr,
                 "xmlup stats: metrics are compiled out "
                 "(build with -DXMLUP_METRICS=ON)\n");
    return 1;
  }
  obs::Registry& reg = obs::GlobalMetrics();
  if (json) {
    std::fputs(reg.RenderJson(timing).c_str(), stdout);
  } else {
    std::fputs(reg.RenderText(timing).c_str(), stdout);
  }
  if (trace) {
    std::fputs(obs::GlobalTrace().RenderText().c_str(), stdout);
  }
  return 0;
}

int CmdCheckpoint(int argc, char** argv) {
  if (argc < 1) return Usage();
  auto st = DocumentStore::Open(argv[0]);
  if (!st.ok()) return Fail(st.status());
  common::Status status = (*st)->Checkpoint();
  if (!status.ok()) return Fail(status);
  std::printf("checkpointed %s at generation %llu\n", argv[0],
              static_cast<unsigned long long>((*st)->stats().sequence));
  return 0;
}

int CmdDamage(int argc, char** argv) {
  if (argc < 2) return Usage();
  std::string dir = argv[0];
  store::FileSystem* fs = store::PosixFileSystem();
  auto current = fs->ReadFile(dir + "/" + store::kCurrentFileName);
  if (!current.ok()) return Fail(current.status());
  uint64_t sequence = std::strtoull(current->c_str(), nullptr, 10);
  std::string journal_path = dir + "/" + store::JournalFileName(sequence);
  auto bytes = fs->ReadFile(journal_path);
  if (!bytes.ok()) return Fail(bytes.status());

  std::string arg = argv[1];
  if (arg == "--truncate" && argc > 2) {
    uint64_t n = std::strtoull(argv[2], nullptr, 10);
    size_t keep = n >= bytes->size() ? 0 : bytes->size() - n;
    bytes->resize(keep);
    std::printf("tore %llu bytes off %s (now %zu bytes)\n",
                static_cast<unsigned long long>(n), journal_path.c_str(),
                bytes->size());
  } else if (arg == "--flip" && argc > 2) {
    char* colon = nullptr;
    uint64_t offset = std::strtoull(argv[2], &colon, 10);
    int bit = (colon != nullptr && *colon == ':')
                  ? std::atoi(colon + 1)
                  : 0;
    if (offset >= bytes->size() || bit < 0 || bit > 7) {
      return Fail(common::Status::OutOfRange("flip target outside journal"));
    }
    (*bytes)[offset] = static_cast<char>(
        static_cast<uint8_t>((*bytes)[offset]) ^ (1u << bit));
    std::printf("flipped bit %d of byte %llu in %s\n", bit,
                static_cast<unsigned long long>(offset),
                journal_path.c_str());
  } else {
    return Usage();
  }
  auto file = fs->OpenWritable(journal_path,
                               store::FileSystem::WriteMode::kTruncate);
  if (!file.ok()) return Fail(file.status());
  common::Status status = (*file)->Append(*bytes);
  if (status.ok()) status = (*file)->Sync();
  if (status.ok()) status = (*file)->Close();
  if (!status.ok()) return Fail(status);
  return 0;
}

int CmdSchemes() {
  for (const std::string& name : labels::AllSchemeNames()) {
    std::printf("%s\n", name.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  std::string cmd = argv[1];
  if (cmd == "init") return CmdInit(argc - 2, argv + 2);
  if (cmd == "ed") return CmdEd(argc - 2, argv + 2);
  if (cmd == "apply") return CmdApply(argc - 2, argv + 2);
  if (cmd == "serve") return CmdServe(argc - 2, argv + 2);
  if (cmd == "route") return CmdRoute(argc - 2, argv + 2);
  if (cmd == "promote") return CmdPromote(argc - 2, argv + 2);
  if (cmd == "req") return CmdReq(argc - 2, argv + 2);
  if (cmd == "repl-status") {
    return CmdStatusVerb("repl-status", "--repl-status", argc - 2, argv + 2);
  }
  if (cmd == "cluster-status") {
    return CmdStatusVerb("cluster-status", "--cluster-status", argc - 2,
                         argv + 2);
  }
  if (cmd == "workload") return CmdWorkload(argc - 2, argv + 2);
  if (cmd == "cat") return CmdCat(argc - 2, argv + 2);
  if (cmd == "labels") return CmdLabels(argc - 2, argv + 2);
  if (cmd == "info") return CmdInfo(argc - 2, argv + 2);
  if (cmd == "stats") return CmdStats(argc - 2, argv + 2);
  if (cmd == "checkpoint") return CmdCheckpoint(argc - 2, argv + 2);
  if (cmd == "damage") return CmdDamage(argc - 2, argv + 2);
  if (cmd == "schemes") return CmdSchemes();
  if (cmd == "--help" || cmd == "-h" || cmd == "help") {
    Usage();
    return 0;
  }
  std::fprintf(stderr, "xmlup: unknown command '%s'\n", cmd.c_str());
  return Usage();
}
