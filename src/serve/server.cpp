#include "serve/server.h"

#include <chrono>
#include <string>

#include <unistd.h>

#include "obs/telemetry.h"
#include "runtime/cancel.h"

namespace hsyn::serve {
namespace {

/// Minimal one-request HTTP exchange for the Prometheus endpoint: read
/// whatever arrived, answer GET /metrics with the exposition text, and
/// close. Scrapers speak HTTP/1.0-with-close just fine.
void serve_metrics_request(int fd) {
  char buf[4096];
  const ssize_t n = ::read(fd, buf, sizeof buf - 1);
  const std::string req =
      n > 0 ? std::string(buf, static_cast<std::size_t>(n)) : std::string();
  std::string body;
  std::string head;
  if (req.rfind("GET /metrics", 0) == 0) {
    body = obs::prometheus_text();
    head = "HTTP/1.0 200 OK\r\n"
           "Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n"
           "Content-Length: " + std::to_string(body.size()) + "\r\n\r\n";
  } else {
    body = "not found\n";
    head = "HTTP/1.0 404 Not Found\r\n"
           "Content-Type: text/plain\r\n"
           "Content-Length: " + std::to_string(body.size()) + "\r\n\r\n";
  }
  const std::string resp = head + body;
  std::size_t off = 0;
  while (off < resp.size()) {
    const ssize_t w = ::write(fd, resp.data() + off, resp.size() - off);
    if (w <= 0) break;
    off += static_cast<std::size_t>(w);
  }
  ::close(fd);
}

}  // namespace

Server::~Server() {
  request_shutdown();
  if (engine_) engine_->shutdown();
  if (metrics_thread_.joinable()) metrics_thread_.join();
  listener_.close();
  metrics_listener_.close();
}

bool Server::start(std::string* err) {
  if (opts_.unix_path.empty() == (opts_.tcp_port == 0)) {
    if (err) *err = "exactly one of a unix path and a TCP port must be given";
    return false;
  }
  if (opts_.metrics_port > 0 &&
      !metrics_listener_.listen_tcp(opts_.metrics_port, err)) {
    return false;
  }
  if (!opts_.unix_path.empty()) {
    return listener_.listen_unix(opts_.unix_path, err);
  }
  return listener_.listen_tcp(opts_.tcp_port, err);
}

int Server::run() {
  engine_ = std::make_unique<JobEngine>(opts_.sessions);

  // Anchor uptime and start the sampler: the stats/watch verbs and the
  // metrics endpoint all read live samples.
  obs::process_uptime_ms();
  obs::Telemetry::instance().start();
  if (opts_.metrics_port > 0) {
    metrics_thread_ = std::thread([this] {
      while (true) {
        const int fd = metrics_listener_.accept_next();
        if (fd < 0) break;  // shutdown
        serve_metrics_request(fd);
      }
    });
  }

  // SIGINT/SIGTERM land in an atomic (runtime::note_signal); poll it so
  // a ^C turns into the same graceful teardown a `shutdown` request
  // does.
  std::thread watcher([this] {
    while (!stopping_.load(std::memory_order_relaxed)) {
      if (runtime::signal_received() != 0) {
        request_shutdown();
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
  });

  while (true) {
    const int fd = listener_.accept_next();
    if (fd < 0) break;  // shutdown requested or listener error
    auto conn = std::make_shared<ClientConn>(fd);
    std::lock_guard<std::mutex> lock(conn_mu_);
    conns_.push_back(conn);
    conn_threads_.emplace_back([this, conn] {
      serve_connection(conn, *engine_,
                       [this] { request_shutdown(); });
      conn->close();
    });
  }

  // Graceful teardown. Engine first: in-flight jobs unwind and their
  // cancelled result frames still reach clients whose connections are
  // open. Then drop the connections so their request threads see EOF.
  engine_->shutdown();
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    for (const auto& weak : conns_) {
      if (const auto conn = weak.lock()) conn->close();
    }
  }
  for (std::thread& t : conn_threads_) {
    if (t.joinable()) t.join();
  }
  // Every connection thread has removed its watch listener by now; stop
  // the sampler so nothing fires after the engine goes away (the ring
  // stays readable for a --telemetry-out flush).
  obs::Telemetry::instance().stop();
  if (metrics_thread_.joinable()) metrics_thread_.join();
  listener_.close();
  metrics_listener_.close();
  stopping_.store(true, std::memory_order_relaxed);
  if (watcher.joinable()) watcher.join();
  return 0;
}

void Server::request_shutdown() {
  stopping_.store(true, std::memory_order_relaxed);
  listener_.shutdown();
  metrics_listener_.shutdown();
}

}  // namespace hsyn::serve
