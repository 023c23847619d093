#include "serve/session.h"

#include <condition_variable>
#include <utility>

#include <sys/socket.h>
#include <unistd.h>

#include "obs/telemetry.h"
#include "serve/framing.h"
#include "serve/proto.h"
#include "serve/scheduler.h"

namespace hsyn::serve {
namespace {

/// Open-once gate: job callbacks wait on it so the submit ack always
/// reaches the client before the first progress/result frame.
class AckGate {
 public:
  void open() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      open_ = true;
    }
    cv_.notify_all();
  }
  void wait() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return open_; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool open_ = false;
};

void handle_submit(const std::shared_ptr<ClientConn>& conn, JobEngine& engine,
                   Request& req) {
  auto gate = std::make_shared<AckGate>();
  const std::uint64_t id = engine.submit(
      std::move(req.spec),
      [conn, gate](std::uint64_t job, const SynthProgress& ev) {
        gate->wait();
        conn->send(encode_progress(job, ev));
      },
      [conn, gate](std::uint64_t job, const JobOutcome& out) {
        gate->wait();
        conn->send(encode_result(job, out));
      });
  if (id == 0) {
    conn->send(encode_error(req.tag, "daemon is shutting down"));
  } else {
    conn->send(encode_ack(req.tag, id));
  }
  gate->open();
}

}  // namespace

bool ClientConn::send(const std::string& frame) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!alive_.load(std::memory_order_relaxed)) return false;
  if (write_frame(fd_, frame)) return true;
  alive_.store(false, std::memory_order_release);
  return false;
}

ClientConn::~ClientConn() {
  close();
  ::close(fd_);
}

void ClientConn::close() {
  std::lock_guard<std::mutex> lock(mu_);
  if (!alive_.exchange(false, std::memory_order_acq_rel)) return;
  // Both halves: a reader blocked in next() gets EOF immediately. No
  // ::close here: the reader may still be inside read() on this fd, and a
  // closed fd number can be reused by the next open under it.
  ::shutdown(fd_, SHUT_RDWR);
}

void serve_connection(const std::shared_ptr<ClientConn>& conn,
                      JobEngine& engine,
                      const std::function<void()>& request_shutdown) {
  FrameReader reader(conn->fd());
  std::string frame;
  // At most one watch subscription per connection (a new watch replaces
  // the old one). The listener lambda captures &engine: the Server
  // joins connection threads (which remove the listener on the way out)
  // before the engine is destroyed, and Telemetry invokes listeners
  // under its listener lock, so remove_listener() never returns while
  // the lambda is mid-call.
  std::uint64_t watch_id = 0;
  obs::Telemetry& tel = obs::Telemetry::instance();
  while (conn->alive() && reader.next(&frame)) {
    Request req;
    std::string err;
    if (!parse_request(frame, &req, &err)) {
      conn->send(encode_error(req.tag, err));
      continue;
    }
    switch (req.type) {
      case Request::Type::Submit:
        handle_submit(conn, engine, req);
        break;
      case Request::Type::Cancel:
        if (engine.cancel(req.job, "cancelled by client")) {
          conn->send(encode_ack(req.tag, req.job));
        } else {
          conn->send(encode_error(req.tag, "no such queued or running job"));
        }
        break;
      case Request::Type::Status:
        conn->send(
            encode_status(engine.status(), engine.sessions(), engine.queued()));
        break;
      case Request::Type::Ping:
        conn->send(encode_pong(obs::process_uptime_ms(), engine.active(),
                               engine.queued()));
        break;
      case Request::Type::Stats: {
        ServerStats st;
        st.uptime_ms = obs::process_uptime_ms();
        st.sessions = engine.sessions();
        st.active = engine.active();
        st.queued = engine.queued();
        st.interval_ms = tel.interval_ms();
        st.sampler_running = tel.running();
        conn->send(encode_stats(
            st, make_frame(tel.sample_now(), 0, engine.status())));
        break;
      }
      case Request::Type::Watch: {
        tel.start();  // idempotent; the daemon normally started it already
        if (watch_id != 0) tel.remove_listener(watch_id);
        const std::uint64_t job = req.job;
        JobEngine* eng = &engine;
        watch_id = tel.add_listener(
            [conn, eng, job](const obs::TelemetrySample& s) {
              conn->send(encode_telemetry(make_frame(s, job, eng->status())));
            });
        conn->send(encode_ack(req.tag, job));
        break;
      }
      case Request::Type::Unwatch:
        if (watch_id != 0) {
          tel.remove_listener(watch_id);
          watch_id = 0;
        }
        conn->send(encode_ack(req.tag, 0));
        break;
      case Request::Type::Shutdown:
        conn->send(encode_ack(req.tag, 0));
        request_shutdown();
        break;
    }
  }
  if (watch_id != 0) tel.remove_listener(watch_id);
}

}  // namespace hsyn::serve
