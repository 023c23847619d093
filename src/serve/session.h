// One client connection of the hsyn daemon.
//
// A connection owns a socket fd and a write lock. The request loop runs
// on a dedicated thread; response frames are written both by that
// thread (acks, status) and by scheduler session threads (progress,
// results), so every write goes through ClientConn::send, which
// serializes frames and turns writes to a dead peer into no-ops. Job
// callbacks keep the ClientConn alive via shared_ptr, so a job that
// outlives its client finishes harmlessly.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <string>

namespace hsyn::serve {

class JobEngine;

class ClientConn {
 public:
  explicit ClientConn(int fd) : fd_(fd) {}
  /// Releases the fd. The connection thread holds a reference while it
  /// reads, so the fd is never closed under a read() in flight.
  ~ClientConn();
  ClientConn(const ClientConn&) = delete;
  ClientConn& operator=(const ClientConn&) = delete;

  /// Write one frame; serialized against concurrent senders. False once
  /// the connection is dead (peer gone or close() called) -- the first
  /// failed write kills it.
  bool send(const std::string& frame);

  /// Mark dead and shut the socket down, which wakes a reader blocked in
  /// read() with EOF; the fd itself stays open until destruction. Safe
  /// to call twice; safe while other threads are in send() or read().
  void close();

  int fd() const { return fd_; }
  bool alive() const { return alive_.load(std::memory_order_acquire); }

 private:
  const int fd_;
  std::mutex mu_;
  std::atomic<bool> alive_{true};
};

/// Run one connection's request loop on the calling thread until the
/// client disconnects. Submissions go to `engine`; a `shutdown` request
/// is acked and forwarded to `request_shutdown` (the server then tears
/// everything down, including this connection).
void serve_connection(const std::shared_ptr<ClientConn>& conn,
                      JobEngine& engine,
                      const std::function<void()>& request_shutdown);

}  // namespace hsyn::serve
