#include "concurrency/server.h"

#include <csignal>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <future>
#include <thread>

#include "concurrency/wire.h"
#include "updates/script.h"

namespace xmlup::concurrency {

using common::Result;
using common::Status;

namespace {

std::vector<std::string> ErrorResponse(const Status& status) {
  return {"err", status.ToString()};
}

void SetNoDelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

bool ParseDecimalU64(const std::string& text, uint64_t* out) {
  if (text.empty() || text.size() > 20) return false;
  uint64_t value = 0;
  for (char c : text) {
    if (c < '0' || c > '9') return false;
    const uint64_t digit = static_cast<uint64_t>(c - '0');
    if (value > (UINT64_MAX - digit) / 10) return false;
    value = value * 10 + digit;
  }
  *out = value;
  return true;
}

}  // namespace

// --- Listener ---------------------------------------------------------------

Status Listener::ServeUnixSocket(const std::string& socket_path) {
  int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::Internal(std::string("socket: ") + std::strerror(errno));
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (socket_path.size() >= sizeof(addr.sun_path)) {
    ::close(fd);
    return Status::InvalidArgument("socket path too long: " + socket_path);
  }
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
  ::unlink(socket_path.c_str());
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0 ||
      ::listen(fd, 64) < 0) {
    Status status =
        Status::Internal(socket_path + ": " + std::strerror(errno));
    ::close(fd);
    return status;
  }
  Status served = ServeLoop(fd);
  ::unlink(socket_path.c_str());
  return served;
}

Status Listener::ServeTcp(const std::string& host, uint16_t port) {
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  hints.ai_flags = AI_PASSIVE;
  addrinfo* result = nullptr;
  const std::string service = std::to_string(port);
  int rc = ::getaddrinfo(host.c_str(), service.c_str(), &hints, &result);
  if (rc != 0) {
    return Status::InvalidArgument("cannot resolve " + host + ": " +
                                   ::gai_strerror(rc));
  }
  int fd = ::socket(result->ai_family, result->ai_socktype,
                    result->ai_protocol);
  if (fd < 0) {
    ::freeaddrinfo(result);
    return Status::Internal(std::string("socket: ") + std::strerror(errno));
  }
  // A restarted shard must rebind its port without waiting out TIME_WAIT
  // from its previous incarnation's connections.
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(fd, result->ai_addr, result->ai_addrlen) < 0 ||
      ::listen(fd, 64) < 0) {
    Status status = Status::Internal(host + ":" + service + ": " +
                                     std::strerror(errno));
    ::freeaddrinfo(result);
    ::close(fd);
    return status;
  }
  ::freeaddrinfo(result);
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_len) ==
      0) {
    bound_port_.store(ntohs(bound.sin_port));
  }
  return ServeLoop(fd);
}

void Listener::Shutdown() {
  shutdown_.store(true);
  int fd = listen_fd_.load();
  if (fd >= 0) ::shutdown(fd, SHUT_RDWR);
}

Status Listener::ServeLoop(int listen_fd) {
  // A client disconnecting mid-reply (or a replica mid-stream) must
  // surface as a write error on its connection thread, not kill the whole
  // server process.
  ::signal(SIGPIPE, SIG_IGN);
  listen_fd_.store(listen_fd);

  // Connection threads are detached, so finished connections release
  // their thread handles immediately instead of accumulating join handles
  // for the listener's lifetime; the drain below gates return, which
  // keeps `this` alive until the last thread is done.
  while (!shutdown_.load()) {
    int conn = ::accept(listen_fd, nullptr, nullptr);
    if (conn < 0) {
      if (errno == EINTR) continue;
      break;  // listen socket shut down (or a hard accept failure)
    }
    SetNoDelay(conn);  // no-op on AF_UNIX
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      active_conns_.insert(conn);
    }
    std::thread([this, conn] {
      if (handler_->HandleConnection(conn, conn, shutdown_)) {
        // A --shutdown request: wake the accept loop by shutting the
        // listening socket down (close alone does not unblock accept).
        Shutdown();
      }
      // Unregister before closing: the drain only force-shuts fds still in
      // the set, so an fd is never shut down after its number could have
      // been reused. Notify under the lock: the waiter must not return
      // (destroying `this`) between the predicate turning true and the
      // notify call. The close after the lock touches only the local fd.
      {
        std::lock_guard<std::mutex> lock(conns_mu_);
        active_conns_.erase(conn);
        conns_done_.notify_all();
      }
      ::close(conn);
    }).detach();
  }

  // Graceful drain: in-flight connections get drain_deadline_ms to finish
  // their current request and disconnect on their own; whatever is still
  // open after that — an idle client holding its socket, a router's
  // pooled connection, a replica subscription streaming forever — is
  // forcibly shut down so its thread unblocks from read/write and exits.
  // Waiting without the deadline would hang shutdown on the first idle
  // connection.
  {
    std::unique_lock<std::mutex> lock(conns_mu_);
    conns_done_.wait_for(lock, std::chrono::milliseconds(drain_deadline_ms_),
                         [this] { return active_conns_.empty(); });
    for (int conn : active_conns_) ::shutdown(conn, SHUT_RDWR);
    conns_done_.wait(lock, [this] { return active_conns_.empty(); });
  }
  ::close(listen_fd);
  return Status::Ok();
}

// --- Server -----------------------------------------------------------------

Server::Server(ConcurrentStore* store, ViewProvider* views)
    : store_(store), views_(views) {
  obs::Registry& reg = obs::GlobalMetrics();
  metrics_.frames_in = reg.GetCounter("server.frames_in");
  metrics_.frames_out = reg.GetCounter("server.frames_out");
  metrics_.errors = reg.GetCounter("server.errors");
  metrics_.request_ns = reg.GetHistogram("server.request_ns");
  metrics_.queries = reg.GetCounter("server.verb.query");
  metrics_.updates = reg.GetCounter("server.verb.update");
  metrics_.admin = reg.GetCounter("server.verb.admin");
}

void Server::SetRole(ConcurrentStore* store, ViewProvider* views,
                     ReplicationStreamer* streamer,
                     std::function<std::vector<std::string>()> repl_status) {
  std::unique_lock<std::shared_mutex> lock(role_mu_);
  store_ = store;
  views_ = views;
  streamer_ = streamer;
  repl_status_ = std::move(repl_status);
}

bool Server::HandleRequest(const std::vector<std::string>& request,
                           std::vector<std::string>* response) {
  if (request.empty() || request[0].empty()) {
    *response = ErrorResponse(Status::InvalidArgument("empty request"));
    return false;
  }
  const std::string& verb = request[0];

  if (verb == "--promote") {
    // Handled before taking the role lock: the handler flips the role via
    // SetRole, which needs it exclusive.
    metrics_.admin->Add(1);
    if (!promote_handler_) {
      *response = ErrorResponse(
          Status::Unsupported("this server cannot be promoted"));
      return false;
    }
    uint64_t epoch = 0;
    if (request.size() > 2 ||
        (request.size() == 2 && !ParseDecimalU64(request[1], &epoch))) {
      *response = ErrorResponse(
          Status::InvalidArgument("--promote takes at most one numeric "
                                  "epoch"));
      return false;
    }
    Result<std::vector<std::string>> promoted = promote_handler_(epoch);
    if (!promoted.ok()) {
      *response = ErrorResponse(promoted.status());
      return false;
    }
    *response = {"ok"};
    for (std::string& field : *promoted) response->push_back(std::move(field));
    return false;
  }

  // Every other verb dispatches against the current role; holding the
  // lock shared for the whole request keeps the pointed-at objects alive
  // until the reply is composed (SetRole drains us before returning).
  std::shared_lock<std::shared_mutex> role_lock(role_mu_);

  if (verb == "--ping") {
    metrics_.admin->Add(1);
    *response = {"ok"};
    return false;
  }
  if (verb == "--shutdown") {
    metrics_.admin->Add(1);
    *response = {"ok"};
    return true;
  }
  if (verb == "--repl-status") {
    metrics_.admin->Add(1);
    if (!repl_status_) {
      *response =
          ErrorResponse(Status::Unsupported("replication is not enabled"));
      return false;
    }
    *response = {"ok"};
    for (std::string& field : repl_status_()) {
      response->push_back(std::move(field));
    }
    return false;
  }
  if (verb == "--epoch" || verb == "--xml" || verb == "-q") {
    // All read verbs run against one pinned snapshot: no locks, and a
    // concurrent batch commit (or replica catch-up step) cannot shear the
    // result set. A replica that has not yet installed its first snapshot
    // has nothing to answer from.
    std::shared_ptr<const ReadView> view = views_->PinView();
    if (view == nullptr) {
      metrics_.admin->Add(1);
      *response = ErrorResponse(Status::Unsupported(
          "replica has no view yet (still catching up with the primary)"));
      return false;
    }
    if (verb == "--epoch") {
      metrics_.admin->Add(1);
      *response = {"ok", std::to_string(view->epoch())};
      return false;
    }
    if (verb == "--xml") {
      metrics_.queries->Add(1);
      Result<std::string> xml = view->SerializeXml();
      if (!xml.ok()) {
        *response = ErrorResponse(xml.status());
        return false;
      }
      *response = {"ok", *std::move(xml)};
      return false;
    }
    metrics_.queries->Add(1);
    if (request.size() != 2) {
      *response =
          ErrorResponse(Status::InvalidArgument("-q takes exactly one XPath"));
      return false;
    }
    Result<std::vector<xml::NodeId>> matches = view->Query(request[1]);
    if (!matches.ok()) {
      *response = ErrorResponse(matches.status());
      return false;
    }
    response->clear();
    response->push_back("ok");
    response->push_back(std::to_string(matches->size()));
    for (xml::NodeId node : *matches) {
      response->push_back(view->StringValue(node));
    }
    return false;
  }
  if (verb == "--stats") {
    metrics_.admin->Add(1);
    // Optional mode field: "json" returns the registry as one JSON field;
    // "timing" adds wall-clock histogram values (sum/percentiles) to the
    // key=value form. The default reply is deterministic — identical
    // request histories render identical bytes (see obs::Registry).
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
    *response = {"ok"};
    if (store_ != nullptr) {
      ConcurrentStoreStats stats = store_->stats();
      response->push_back("updates_applied=" +
                          std::to_string(stats.updates_applied));
      response->push_back("updates_failed=" +
                          std::to_string(stats.updates_failed));
      response->push_back("batches=" + std::to_string(stats.batches));
      response->push_back("largest_batch=" +
                          std::to_string(stats.largest_batch));
      response->push_back("views_published=" +
                          std::to_string(stats.views_published));
      response->push_back("checkpoints=" + std::to_string(stats.checkpoints));
      response->push_back("checkpoint_failures=" +
                          std::to_string(stats.checkpoint_failures));
      response->push_back("epoch=" + std::to_string(stats.current_epoch));
    }
    // Registry fields ride behind the legacy pipeline counters so existing
    // clients keep parsing by prefix.
    for (const auto& [name, value] :
         obs::GlobalMetrics().TextFields(mode == "timing")) {
      response->push_back(name + "=" + value);
    }
    return false;
  }

  if (verb == "--apply") {
    // One compiled update script per frame, applied as one all-or-nothing
    // transaction — the wire twin of `xmlup apply <file>`. The script text
    // travels as a single field (fields are 0x1F-separated, so embedded
    // newlines survive verbatim) and diagnostics come back one-line,
    // `apply:<line>: <message>`, with the offending token quoted.
    metrics_.updates->Add(1);
    if (store_ == nullptr) {
      *response = ErrorResponse(Status::Unsupported(
          "read-only replica: send updates to the primary"));
      return false;
    }
    if (request.size() != 2) {
      *response = ErrorResponse(
          Status::InvalidArgument("--apply takes exactly one script field"));
      return false;
    }
    Result<updates::UpdateScript> script =
        updates::ParseUpdateScript(request[1], "apply");
    if (!script.ok()) {
      *response = ErrorResponse(script.status());
      return false;
    }
    if (script->requests.empty()) {
      *response = ErrorResponse(
          Status::InvalidArgument("script contains no actions"));
      return false;
    }
    UpdateResult result =
        store_->SubmitTransaction(std::move(script->requests)).get();
    if (!result.status.ok()) {
      *response = ErrorResponse(result.status);
      return false;
    }
    *response = {"ok", std::to_string(result.matched),
                 std::to_string(result.epoch)};
    return false;
  }

  // Anything else is an action script in the CLI grammar.
  metrics_.updates->Add(1);
  if (store_ == nullptr) {
    *response = ErrorResponse(Status::Unsupported(
        "read-only replica: send updates to the primary"));
    return false;
  }
  Result<std::vector<UpdateRequest>> actions = ParseActionTokens(request);
  if (!actions.ok()) {
    *response = ErrorResponse(actions.status());
    return false;
  }
  if (actions->empty()) {
    *response = ErrorResponse(Status::InvalidArgument("no actions given"));
    return false;
  }
  // The whole frame is one transaction: it applies all-or-nothing (the
  // same contract as an `xmlup ed` script), so a failure partway through
  // never leaves earlier actions durably applied behind an "err" reply —
  // clients can safely retry the frame.
  UpdateResult result = store_->SubmitTransaction(std::move(*actions)).get();
  if (!result.status.ok()) {
    *response = ErrorResponse(result.status);
    return false;
  }
  *response = {"ok", std::to_string(result.matched),
               std::to_string(result.epoch)};
  return false;
}

bool Server::HandleConnection(int in_fd, int out_fd,
                              const std::atomic<bool>& stop) {
  for (;;) {
    Result<std::optional<std::vector<std::string>>> frame = ReadFrame(in_fd);
    if (!frame.ok()) return false;          // torn frame or IO error
    if (!frame->has_value()) return false;  // clean EOF
    metrics_.frames_in->Add(1);
    if (!(*frame)->empty() && (**frame)[0] == kReplicationHelloVerb) {
      // The connection becomes a one-way replication stream; the streamer
      // writes the reply and every message after it. When it returns the
      // subscription is over — so is the connection. The streamer pointer
      // is copied under the role lock but the stream runs outside it — a
      // subscription lives as long as the connection and must not block a
      // role flip; whoever swaps the streamer out keeps the old one alive
      // (terminated) until its subscriptions drain.
      metrics_.admin->Add(1);
      ReplicationStreamer* streamer;
      {
        std::shared_lock<std::shared_mutex> role_lock(role_mu_);
        streamer = streamer_;
      }
      if (streamer == nullptr) {
        (void)WriteFrame(
            out_fd, ErrorResponse(Status::Unsupported(
                        "this server does not accept replica subscriptions")));
        metrics_.errors->Add(1);
        return false;
      }
      streamer->ServeReplica(**frame, out_fd, stop);
      return false;
    }
    std::vector<std::string> response;
    bool shutdown;
    {
      XMLUP_SCOPED_TIMER(metrics_.request_ns);
      shutdown = HandleRequest(**frame, &response);
    }
    if (!response.empty() && response[0] == "err") metrics_.errors->Add(1);
    if (!WriteFrame(out_fd, response).ok()) return shutdown;
    metrics_.frames_out->Add(1);
    if (shutdown) return true;
  }
}

// --- Client helpers ---------------------------------------------------------

Status ParseHostPort(const std::string& spec, std::string* host,
                     uint16_t* port) {
  size_t colon = spec.rfind(':');
  if (colon == std::string::npos || colon == 0) {
    return Status::InvalidArgument("'" + spec +
                                   "' is not HOST:PORT (missing host or ':')");
  }
  const std::string port_text = spec.substr(colon + 1);
  if (port_text.empty()) {
    return Status::InvalidArgument("'" + spec + "' has an empty port");
  }
  uint64_t value = 0;
  for (char c : port_text) {
    if (c < '0' || c > '9') {
      return Status::InvalidArgument("'" + spec +
                                     "' has a non-numeric port '" +
                                     port_text + "'");
    }
    value = value * 10 + static_cast<uint64_t>(c - '0');
    if (value > 65535) {
      return Status::InvalidArgument("'" + spec + "' port is out of range " +
                                     "(1-65535)");
    }
  }
  if (value == 0) {
    return Status::InvalidArgument(
        "'" + spec + "' names port 0 (an ephemeral bind cannot be dialled)");
  }
  *host = spec.substr(0, colon);
  *port = static_cast<uint16_t>(value);
  return Status::Ok();
}

Result<int> TcpConnect(const std::string& host, uint16_t port) {
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* result = nullptr;
  const std::string service = std::to_string(port);
  int rc = ::getaddrinfo(host.c_str(), service.c_str(), &hints, &result);
  if (rc != 0) {
    return Status::Internal("cannot resolve " + host + ": " +
                            ::gai_strerror(rc));
  }
  int fd =
      ::socket(result->ai_family, result->ai_socktype, result->ai_protocol);
  if (fd < 0) {
    ::freeaddrinfo(result);
    return Status::Internal(std::string("socket: ") + std::strerror(errno));
  }
  if (::connect(fd, result->ai_addr, result->ai_addrlen) < 0) {
    Status status = Status::Internal(host + ":" + service + ": " +
                                     std::strerror(errno));
    ::freeaddrinfo(result);
    ::close(fd);
    return status;
  }
  ::freeaddrinfo(result);
  SetNoDelay(fd);
  return fd;
}

Result<int> UnixConnect(const std::string& socket_path) {
  int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::Internal(std::string("socket: ") + std::strerror(errno));
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (socket_path.size() >= sizeof(addr.sun_path)) {
    ::close(fd);
    return Status::InvalidArgument("socket path too long: " + socket_path);
  }
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    Status status =
        Status::Internal(socket_path + ": " + std::strerror(errno));
    ::close(fd);
    return status;
  }
  return fd;
}

Result<int> DialEndpoint(const std::string& spec) {
  constexpr std::string_view kTcpPrefix = "tcp:";
  if (spec.rfind(kTcpPrefix, 0) == 0) {
    std::string host;
    uint16_t port = 0;
    XMLUP_RETURN_NOT_OK(
        ParseHostPort(spec.substr(kTcpPrefix.size()), &host, &port));
    return TcpConnect(host, port);
  }
  return UnixConnect(spec);
}

Result<std::vector<std::string>> EndpointRequest(
    const std::string& spec, const std::vector<std::string>& request) {
  XMLUP_ASSIGN_OR_RETURN(int fd, DialEndpoint(spec));
  Status written = WriteFrame(fd, request);
  if (!written.ok()) {
    ::close(fd);
    return written;
  }
  Result<std::optional<std::vector<std::string>>> response = ReadFrame(fd);
  ::close(fd);
  if (!response.ok()) return response.status();
  if (!response->has_value()) {
    return Status::Internal("server closed the connection without replying");
  }
  return std::move(**response);
}

Result<std::vector<std::string>> UnixSocketRequest(
    const std::string& socket_path, const std::vector<std::string>& request) {
  return EndpointRequest(socket_path, request);
}

Result<std::vector<std::string>> TcpRequest(
    const std::string& host, uint16_t port,
    const std::vector<std::string>& request) {
  return EndpointRequest("tcp:" + host + ":" + std::to_string(port), request);
}

}  // namespace xmlup::concurrency
