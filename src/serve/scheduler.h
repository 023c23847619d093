// The concurrent job engine: N session threads draining one FIFO of
// synthesis jobs over the shared process runtime.
//
// Concurrency model. Each session thread runs run_job() start to
// finish for one job at a time, so up to N jobs are in flight. They
// share the process-global deterministic thread pool -- a job that
// finds another job's point fan-out holding the pool runs its own
// inline on its session thread -- and the shared eval
// caches, which are keyed by content fingerprints and therefore safe
// (and profitable) to share across jobs. Every job carries its own
// CancelToken, its own obs job id (ledger/cache attribution), and its
// own budgets; results are bit-identical to a solo run of the same
// spec because nothing a neighbor job does can change what a cache
// returns or how the pool chunks a region's index space.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "serve/jobs.h"
#include "serve/proto.h"

namespace hsyn::serve {

class JobEngine {
 public:
  /// Spawns `sessions` job threads (clamped to >= 1).
  explicit JobEngine(int sessions);
  /// Implies shutdown().
  ~JobEngine();
  JobEngine(const JobEngine&) = delete;
  JobEngine& operator=(const JobEngine&) = delete;

  /// Enqueue a job; returns its id (ids start at 1; 0 is never used).
  /// `progress` fires per SynthProgress event (only when the spec asked
  /// for progress), `done` exactly once with the outcome -- both from a
  /// session thread (or from shutdown(), for jobs that never ran).
  /// Returns 0 when the engine is already shut down.
  std::uint64_t submit(
      JobSpec spec,
      std::function<void(std::uint64_t, const SynthProgress&)> progress,
      std::function<void(std::uint64_t, const JobOutcome&)> done);

  /// Cancel a job: a queued job is dropped (its `done` fires with a
  /// cancelled outcome), a running one unwinds at its next cancel
  /// point. False for unknown/finished jobs.
  bool cancel(std::uint64_t job, const std::string& reason);

  /// Snapshot of every job this engine has seen, by ascending id.
  std::vector<JobStatus> status() const;

  int sessions() const { return static_cast<int>(threads_.size()); }
  std::size_t queued() const { return queue_.size(); }

  /// Jobs currently running on a session thread.
  std::size_t active() const;

  /// Stop accepting, drop queued jobs (their `done` fires cancelled),
  /// cancel running jobs, and join the session threads. Idempotent.
  void shutdown();

 private:
  struct Record {
    JobState state = JobState::Queued;
    std::string error;
    std::shared_ptr<runtime::CancelToken> cancel;
  };

  void session_loop();
  void finish(std::uint64_t id, const JobOutcome& outcome);

  JobQueue queue_;
  std::vector<std::thread> threads_;

  mutable std::mutex mu_;
  std::uint64_t next_id_ = 1;
  std::map<std::uint64_t, Record> records_;
  bool down_ = false;
};

}  // namespace hsyn::serve
