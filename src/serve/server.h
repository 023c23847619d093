// The hsyn daemon: a Listener accepting local connections, one request
// thread per connection, and a JobEngine multiplexing the jobs those
// connections submit over the shared deterministic runtime.
//
// Lifecycle: start() binds, run() blocks in the accept loop until a
// shutdown arrives -- a client `shutdown` request, a SIGINT/SIGTERM
// (polled via runtime::signal_received), or request_shutdown() from
// another thread. Teardown is graceful: stop accepting, cancel every
// queued and running job (their owners receive cancelled result frames
// first), close the connections, join everything, remove the socket.
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/listener.h"
#include "serve/scheduler.h"
#include "serve/session.h"

namespace hsyn::serve {

struct ServerOptions {
  std::string unix_path;  ///< listen on a unix socket...
  int tcp_port = 0;       ///< ...or a loopback TCP port (exactly one)
  int sessions = 2;       ///< concurrent jobs (clamped to >= 1)
  /// Optional Prometheus text endpoint: plain HTTP GET /metrics on this
  /// loopback port (0 = off).
  int metrics_port = 0;
};

class Server {
 public:
  explicit Server(ServerOptions opts) : opts_(std::move(opts)) {}
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind and listen. False (and `err`) when the address is taken or
  /// invalid.
  bool start(std::string* err);

  /// Accept-and-serve until shutdown. Returns the process exit code
  /// (0 for a clean shutdown).
  int run();

  /// Trigger a graceful shutdown from any thread. Idempotent.
  void request_shutdown();

 private:
  ServerOptions opts_;
  Listener listener_;
  Listener metrics_listener_;
  std::thread metrics_thread_;
  std::unique_ptr<JobEngine> engine_;
  std::atomic<bool> stopping_{false};

  std::mutex conn_mu_;
  // Weak: a connection (and its fd) goes away once its thread and its
  // jobs' callbacks are done with it, not at daemon teardown.
  std::vector<std::weak_ptr<ClientConn>> conns_;
  std::vector<std::thread> conn_threads_;
};

}  // namespace hsyn::serve
