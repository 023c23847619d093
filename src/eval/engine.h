// The evaluation engine: one process-wide set of sharded LRU caches
// (eval/cache.h) that owns candidate evaluation end to end.
//
// It replaces three scattered thread-local memos (the estimator's energy
// cache, the trace evaluator's per-DFG memo, the gate expander's per-op
// memo) with caches that are
//   * shared across the parallel runtime's workers,
//   * keyed by content fingerprints (rtl/fingerprint.h, Dfg::content_hash,
//     trace_fingerprint, Library::uid) -- never by raw pointers,
//   * byte-bounded with LRU eviction,
//   * instrumented (hit/miss/eviction/cross-thread counters surfaced
//     as obs::Registry counter sources).
//
// Capacity: HSYN_EVAL_CACHE_MB environment variable or set_capacity_mb()
// (the hsyn CLI exposes --eval-cache-mb). The budget is split evenly
// over the six caches.
//
// Verification: HSYN_EVAL_VERIFY=1 makes every hit recompute the value
// and compare -- the cheap way to catch a stale-fingerprint bug in a
// whole synthesis run. Debug builds can afford it; tests use it.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "eval/cache.h"
#include "power/estimator.h"
#include "rtl/cost.h"

namespace hsyn {
class EdgeMatrix;      // power/replay.h: edge-major trace values
struct ReplayProgram;  // power/replay.h: compiled DFG replay program
}  // namespace hsyn

namespace hsyn::lint {
struct DataflowFacts;  // check/dataflow.h: abstract-interpretation facts
}  // namespace hsyn::lint

namespace hsyn::eval {

/// Snapshot of one job's cache-budget account (see set_job_cache_budget).
struct JobCacheUsage {
  std::uint64_t limit_bytes = 0;    ///< configured insertion budget
  std::uint64_t charged_bytes = 0;  ///< bytes admitted so far
  std::uint64_t rejected = 0;       ///< inserts skipped over budget
};

class EvalEngine {
 public:
  /// The process-wide engine (thread-safe).
  static EvalEngine& instance();

  EvalEngine(const EvalEngine&) = delete;
  EvalEngine& operator=(const EvalEngine&) = delete;

  // ---- Typed caches ------------------------------------------------------
  ShardedLruCache<EnergyBreakdown>& energy_cache() { return energy_; }
  ShardedLruCache<AreaBreakdown>& area_cache() { return area_; }
  ShardedLruCache<std::shared_ptr<const Connectivity>>& connectivity_cache() {
    return conn_;
  }
  ShardedLruCache<std::shared_ptr<const EdgeMatrix>>& edge_values_cache() {
    return edge_vals_;
  }
  /// Compiled replay programs (power/replay.h), keyed by Dfg content
  /// hash: a DFG is compiled at most once per structural novelty.
  ShardedLruCache<std::shared_ptr<const ReplayProgram>>& program_cache() {
    return programs_;
  }
  /// Dataflow analysis results (check/dataflow.h), keyed by Dfg content
  /// hash (+ trace fingerprint for trace-seeded analyses): a DFG is
  /// abstractly interpreted at most once per structural novelty.
  ShardedLruCache<std::shared_ptr<const lint::DataflowFacts>>& facts_cache() {
    return facts_;
  }

  // ---- High-level cached evaluations ------------------------------------
  /// This level's connectivity, computed at most once per structural
  /// fingerprint.
  std::shared_ptr<const Connectivity> connectivity(const Datapath& dp);

  /// Seed the connectivity cache for a freshly mutated candidate from its
  /// base datapath's connectivity plus the move's dirty-region hint,
  /// avoiding the full recompute downstream area/energy would do. With
  /// binding_changed == false the base connectivity is aliased verbatim.
  /// The hint must be complete (see DirtyRegion); HSYN_EVAL_VERIFY checks
  /// it against the full recompute.
  void prime_connectivity(const Datapath& cand,
                          std::shared_ptr<const Connectivity> base,
                          const DirtyRegion& dirty);

  /// Recursive area (area_of's implementation), memoized per level.
  AreaBreakdown area(const Datapath& dp, const Library& lib, bool top_level);

  // ---- Capacity and lifecycle -------------------------------------------
  void set_capacity_mb(std::size_t mb);
  std::size_t capacity_bytes() const {
    return capacity_.load(std::memory_order_relaxed);
  }
  /// Drop every cached value (explicit invalidation; counters survive).
  void clear();
  /// True when HSYN_EVAL_VERIFY=1: hits recompute and compare.
  bool verify() const { return verify_; }

  // ---- Per-job cache budgets (serve daemon) -------------------------------
  /// Cap the bytes that threads tagged with obs job `job` may insert
  /// into the shared caches (across all six caches together). Over
  /// budget, puts become no-ops -- a pure cache bypass that slows the
  /// job down but cannot change its results. Job 0 (solo CLI) is never
  /// budgeted. `limit_bytes == 0` removes the cap for `job`.
  void set_job_cache_budget(std::uint64_t job, std::size_t limit_bytes);
  /// Drop `job`'s account entirely (job finished or was cancelled).
  void clear_job_cache_budget(std::uint64_t job);
  /// Current account for `job`; all-zero when no budget is set.
  JobCacheUsage job_cache_usage(std::uint64_t job) const;

 private:
  EvalEngine();

  std::atomic<std::size_t> capacity_;
  bool verify_ = false;
  ShardedLruCache<EnergyBreakdown> energy_;
  ShardedLruCache<AreaBreakdown> area_;
  ShardedLruCache<std::shared_ptr<const Connectivity>> conn_;
  ShardedLruCache<std::shared_ptr<const EdgeMatrix>> edge_vals_;
  ShardedLruCache<std::shared_ptr<const ReplayProgram>> programs_;
  ShardedLruCache<std::shared_ptr<const lint::DataflowFacts>> facts_;
};

}  // namespace hsyn::eval
