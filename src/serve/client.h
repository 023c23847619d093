// Thin synchronous client of the hsyn daemon: one connection, one
// outstanding request at a time (the CLI's usage pattern). Concurrent
// callers each open their own Client.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "serve/framing.h"
#include "serve/jobs.h"
#include "serve/proto.h"

namespace hsyn::serve {

class Client {
 public:
  Client() = default;
  ~Client() { close(); }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Connect to a unix socket path (contains '/') or a loopback TCP
  /// port. False (and `err`) when the daemon is not there.
  bool connect(const std::string& addr, std::string* err);
  bool connected() const { return fd_ >= 0; }
  void close();

  /// Submit a job and block until its result. Progress frames (when the
  /// spec asked for them) invoke `on_progress` as they arrive. False
  /// (and `err`) on transport failure or a daemon-side error; a job
  /// that *ran* and failed comes back true with outcome.ok == false.
  bool run_job(const JobSpec& spec,
               const std::function<void(const SynthProgress&)>& on_progress,
               JobOutcome* outcome, std::string* err);

  /// Round-trip a ping.
  bool ping(std::string* err);

  /// Fetch the daemon's job table.
  bool status(std::vector<JobStatus>* jobs, int* sessions,
              std::uint64_t* queued, std::string* err);

  /// One-shot server + per-job telemetry snapshot. `raw` (optional)
  /// receives the undecoded frame for jq-style consumers.
  bool stats(ServerStats* st, TelemetryFrame* frame, std::string* raw,
             std::string* err);

  /// Subscribe to periodic telemetry frames for one job (0 = whole
  /// server) and invoke `on_frame` per frame until it returns false;
  /// then unsubscribe and return true. False on transport/daemon error.
  bool watch(std::uint64_t job,
             const std::function<bool(const TelemetryFrame&)>& on_frame,
             std::string* err);

  /// Ask the daemon to shut down gracefully (acked before it stops).
  bool shutdown_server(std::string* err);

 private:
  bool send(const std::string& frame, std::string* err);
  bool recv(Response* out, std::string* err);

  int fd_ = -1;
  std::unique_ptr<FrameReader> reader_;
};

}  // namespace hsyn::serve
