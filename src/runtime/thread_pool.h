// Deterministic fixed thread pool for H-SYN's searches.
//
// A region's chunks are whole searches: a job's operating points
// (synth/search_core.cpp) or a portfolio's strategies
// (synth/portfolio.cpp). Everything inside a chunk -- candidate
// evaluation, energy estimation, trace replay -- is a plain serial loop
// on the chunk's lane.
//
// Design goals (in priority order):
//   1. Determinism. There is no work stealing and no dynamic load
//      balancing that could change *what* is computed: a region is a
//      fixed set of chunk indices [0, n); which worker runs a chunk may
//      vary between runs, but every chunk computes the same values into
//      its own slot, and callers combine the slots in index order. The
//      result is bit-identical for 1, 2 or 64 threads.
//   2. Simplicity. One region runs at a time; the caller participates
//      in the work and blocks until the region completes. A nested
//      region (a portfolio strategy reaching its point fan-out) executes
//      inline on the calling thread, so nesting cannot deadlock the
//      pool. A submitter that finds another region holding the pool runs
//      its own region inline too, instead of waiting for the pool to
//      free up.
//   3. Exceptions propagate: the lowest-indexed chunk's exception is
//      rethrown in the caller once the region has drained.
//
// The process-global pool is configured once via set_threads() (CLI
// --threads, HSYN_THREADS env, or hardware_concurrency).
//
// Every region bumps a handful of relaxed atomics, exported as the
// "runtime" metrics source (obs::Registry) with the keys regions,
// inline_regions, busy_inline_regions (the inline ones that ran so
// because another submitter held the pool), chunks, tasks (the chunks
// run() executed, pooled or inline; the same count as chunks),
// max_region_chunks, and lane<i>_busy_ns: the time lane i spent running
// chunks of pooled regions (lane 0 is the submitting thread, lanes 1..
// the workers). The source is registered when the global pool is first
// configured or used.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace hsyn::runtime {

class ThreadPool {
 public:
  /// A pool of `threads` total execution lanes: the caller plus
  /// `threads - 1` workers. `threads <= 1` spawns no workers; run()
  /// then degrades to a plain serial loop.
  explicit ThreadPool(int threads);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total lanes (caller included); always >= 1.
  int threads() const { return static_cast<int>(workers_.size()) + 1; }

  /// Execute fn(c) for every chunk index c in [0, nchunks), distributing
  /// chunks over the pool, and block until all complete. Lanes claim
  /// chunks in index order, one at a time, so long chunks balance
  /// dynamically. Runs inline (serially, in index order) when the pool
  /// is serial, nchunks <= 1, the calling thread is already inside a
  /// region, or another submitter's region holds the pool. The first
  /// exception by chunk index is rethrown.
  ///
  /// Concurrent submitters are safe and never wait on each other: when
  /// several job threads reach run() at once (the serve daemon's
  /// sessions share this pool), the first one takes the pool and the
  /// others run their regions inline on their own threads. Each region
  /// is deterministic in isolation either way. The submitting thread's
  /// obs::current_job() tag is re-applied on every lane that executes a
  /// chunk, so per-job attribution (ledger records, cache-budget
  /// charges) survives the fan-out.
  void run(int nchunks, const std::function<void(int)>& fn);

  /// True when the current thread is executing inside a region (worker
  /// or participating caller); run() then runs a nested region inline.
  static bool in_region();

 private:
  /// Run fn(c) for c in [0, nchunks) on the calling thread, in index
  /// order, as an inline region: nested regions see in_region() and
  /// stay inline too. Counted as an inline region.
  static void run_inline(int nchunks, const std::function<void(int)>& fn);

  void worker_loop(int lane);
  /// Pull chunk indices until the region is exhausted; `lane` indexes
  /// the busy-time counters (0 = the submitter).
  void drain_region(int lane);

  std::vector<std::thread> workers_;

  /// Held by a submitter for the whole lifetime of its region. The
  /// region state below describes one region, so a concurrent
  /// top-level caller that cannot take it runs inline instead.
  std::mutex submit_mu_;

  std::mutex mu_;
  std::condition_variable cv_work_;   ///< workers wait for a new region
  std::condition_variable cv_done_;   ///< caller waits for region drain
  bool stop_ = false;
  std::uint64_t generation_ = 0;      ///< bumped per region
  const std::function<void(int)>* job_ = nullptr;
  std::uint64_t job_owner_ = 0;       ///< obs job id of the submitting thread
  int job_chunks_ = 0;
  int next_chunk_ = 0;                ///< next unclaimed chunk (under mu_)
  int busy_ = 0;                      ///< lanes currently inside the region
  std::vector<std::exception_ptr> errors_;  ///< per-chunk, for ordered rethrow
};

/// Configure the process-global pool. `threads <= 0` selects the
/// automatic default: the HSYN_THREADS environment variable if set,
/// otherwise std::thread::hardware_concurrency(). Must not be called
/// while a parallel region is running.
void set_threads(int threads);

/// Lanes of the global pool (>= 1). Instantiates the pool on first use.
int threads();

/// The global pool itself (instantiated on first use).
ThreadPool& pool();

}  // namespace hsyn::runtime
