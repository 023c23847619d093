#include "runtime/thread_pool.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>

#include "obs/job.h"
#include "obs/metrics.h"

namespace hsyn::runtime {
namespace {

thread_local bool tl_in_region = false;

std::atomic<std::uint64_t> g_regions{0};
std::atomic<std::uint64_t> g_inline_regions{0};
std::atomic<std::uint64_t> g_chunks{0};
std::atomic<std::uint64_t> g_max_region_chunks{0};
std::atomic<std::uint64_t> g_busy_inline_regions{0};

/// Busy time per lane; lanes past the last slot share it.
constexpr int kLaneSlots = 64;
std::array<std::atomic<std::uint64_t>, kLaneSlots> g_lane_busy_ns{};
std::atomic<int> g_lanes{0};  ///< most lanes of any pool built so far

std::uint64_t steady_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct RegionGuard {
  bool prev;
  RegionGuard() : prev(tl_in_region) { tl_in_region = true; }
  ~RegionGuard() { tl_in_region = prev; }
};

void count_region(int nchunks, bool inline_run) {
  (inline_run ? g_inline_regions : g_regions)
      .fetch_add(1, std::memory_order_relaxed);
  g_chunks.fetch_add(static_cast<std::uint64_t>(nchunks),
                     std::memory_order_relaxed);
  std::uint64_t prev = g_max_region_chunks.load(std::memory_order_relaxed);
  while (prev < static_cast<std::uint64_t>(nchunks) &&
         !g_max_region_chunks.compare_exchange_weak(
             prev, static_cast<std::uint64_t>(nchunks),
             std::memory_order_relaxed)) {
  }
}

}  // namespace

bool ThreadPool::in_region() { return tl_in_region; }

ThreadPool::ThreadPool(int threads) {
  const int workers = threads > 1 ? threads - 1 : 0;
  int lanes = g_lanes.load(std::memory_order_relaxed);
  while (lanes < workers + 1 &&
         !g_lanes.compare_exchange_weak(lanes, workers + 1,
                                        std::memory_order_relaxed)) {
  }
  workers_.reserve(static_cast<std::size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i + 1); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_work_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::drain_region(int lane) {
  // Called with mu_ held; claims and executes chunks until none remain.
  std::unique_lock<std::mutex> lock(mu_, std::adopt_lock);
  std::atomic<std::uint64_t>& busy_ns =
      g_lane_busy_ns[static_cast<std::size_t>(std::min(lane, kLaneSlots - 1))];
  while (next_chunk_ < job_chunks_) {
    const int c = next_chunk_++;
    const std::uint64_t owner = job_owner_;
    ++busy_;
    lock.unlock();
    const std::uint64_t t0 = steady_ns();
    {
      RegionGuard guard;
      // Attribute this lane's work to the submitting job (per-job ledger
      // records and cache-budget charges; see obs/job.h).
      obs::JobScope job_scope(owner);
      try {
        (*job_)(c);
      } catch (...) {
        errors_[static_cast<std::size_t>(c)] = std::current_exception();
      }
    }
    busy_ns.fetch_add(steady_ns() - t0, std::memory_order_relaxed);
    lock.lock();
    --busy_;
    if (busy_ == 0 && next_chunk_ >= job_chunks_) cv_done_.notify_all();
  }
  lock.release();  // caller keeps holding mu_
}

void ThreadPool::worker_loop(int lane) {
  std::unique_lock<std::mutex> lock(mu_);
  std::uint64_t seen = 0;
  for (;;) {
    cv_work_.wait(lock, [&] {
      return stop_ || (generation_ != seen && job_ != nullptr &&
                       next_chunk_ < job_chunks_);
    });
    if (stop_) return;
    seen = generation_;
    drain_region(lane);
  }
}

void ThreadPool::run_inline(int nchunks, const std::function<void(int)>& fn) {
  if (nchunks <= 0) return;
  count_region(nchunks, /*inline_run=*/true);
  RegionGuard guard;
  for (int c = 0; c < nchunks; ++c) fn(c);
}

void ThreadPool::run(int nchunks, const std::function<void(int)>& fn) {
  if (nchunks <= 0) return;
  if (workers_.empty() || nchunks == 1 || tl_in_region) {
    run_inline(nchunks, fn);
    return;
  }

  // The region state below (job_, next_chunk_, errors_) describes
  // exactly one region. The serve daemon's job sessions all share this
  // pool: a submitter that finds another region in progress runs its
  // own inline rather than stall its job behind a region that may last
  // a whole search.
  std::unique_lock<std::mutex> submit(submit_mu_, std::try_to_lock);
  if (!submit.owns_lock()) {
    g_busy_inline_regions.fetch_add(1, std::memory_order_relaxed);
    run_inline(nchunks, fn);
    return;
  }
  std::unique_lock<std::mutex> lock(mu_);
  job_ = &fn;
  job_owner_ = obs::current_job();
  job_chunks_ = nchunks;
  next_chunk_ = 0;
  errors_.assign(static_cast<std::size_t>(nchunks), nullptr);
  ++generation_;
  cv_work_.notify_all();

  drain_region(0);  // the caller is a lane too
  cv_done_.wait(lock, [&] { return next_chunk_ >= job_chunks_ && busy_ == 0; });
  job_ = nullptr;

  std::exception_ptr first;
  for (const std::exception_ptr& e : errors_) {
    if (e) {
      first = e;
      break;
    }
  }
  errors_.clear();
  lock.unlock();
  count_region(nchunks, /*inline_run=*/false);
  if (first) std::rethrow_exception(first);
}

namespace {

std::unique_ptr<ThreadPool>& pool_slot() {
  // The first configure-or-use of the global pool also exports its
  // counters as the "runtime" metrics source.
  static std::unique_ptr<ThreadPool> slot = [] {
    obs::Registry::instance().register_source("runtime", [] {
      std::map<std::string, std::uint64_t> out{
          {"regions", g_regions.load(std::memory_order_relaxed)},
          {"inline_regions", g_inline_regions.load(std::memory_order_relaxed)},
          {"busy_inline_regions",
           g_busy_inline_regions.load(std::memory_order_relaxed)},
          {"chunks", g_chunks.load(std::memory_order_relaxed)},
          {"tasks", g_chunks.load(std::memory_order_relaxed)},
          {"max_region_chunks",
           g_max_region_chunks.load(std::memory_order_relaxed)}};
      const int lanes =
          std::min(g_lanes.load(std::memory_order_relaxed), kLaneSlots);
      for (int i = 0; i < lanes; ++i) {
        out["lane" + std::to_string(i) + "_busy_ns"] =
            g_lane_busy_ns[static_cast<std::size_t>(i)].load(
                std::memory_order_relaxed);
      }
      return out;
    });
    return std::unique_ptr<ThreadPool>();
  }();
  return slot;
}

std::mutex& pool_mu() {
  static std::mutex mu;
  return mu;
}

int auto_threads() {
  if (const char* env = std::getenv("HSYN_THREADS")) {
    const int n = std::atoi(env);
    if (n > 0) return n;
  }
  const unsigned hc = std::thread::hardware_concurrency();
  return hc > 0 ? static_cast<int>(hc) : 1;
}

}  // namespace

void set_threads(int threads) {
  const int n = threads > 0 ? threads : auto_threads();
  std::lock_guard<std::mutex> lock(pool_mu());
  if (pool_slot() && pool_slot()->threads() == n) return;
  pool_slot() = std::make_unique<ThreadPool>(n);
}

ThreadPool& pool() {
  std::lock_guard<std::mutex> lock(pool_mu());
  if (!pool_slot()) pool_slot() = std::make_unique<ThreadPool>(auto_threads());
  return *pool_slot();
}

int threads() { return pool().threads(); }

}  // namespace hsyn::runtime
