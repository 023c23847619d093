// Move ledger: a structured record of every move the improvement engine
// attempted -- move class, target, gain, accept/reject outcome, and
// (observational) evaluation time and cache traffic.
//
// Determinism contract. A search is serial: every move generator builds
// its candidate list and then evaluates the candidates in order on the
// same thread. begin_group() is called at each (totally ordered)
// enumeration site and returns a fresh group id from a global counter;
// around each candidate's evaluation a CandidateScope tags the thread
// with (group, candidate index). finish_move() reads the tag and
// appends the record to a per-thread buffer with no cross-thread
// synchronization. merged() sorts by (group, cand) -- both ids are
// assigned independently of which lane ran the search, so the merged
// ledger is identical at any thread count.
//
// Outcome marks (applied / rolled back / accepted) are produced by the
// serial improvement loop after evaluation, keyed by the same
// (group, cand), and folded in at merge time.
//
// Portfolio search relaxes "serial" to "serial per explorer": each
// concurrent search strategy runs its whole trajectory on one pool lane
// under a StrategyScope, and begin_group() then allocates from that
// strategy's *own* sequence counter, encoded into the group id
// ((strategy + 1) << kStrategyShift | seq). Group ids -- and therefore
// the merged, (group, cand)-sorted ledger -- stay a pure function of
// each strategy's deterministic trajectory, byte-identical at any
// thread count even when explorers interleave arbitrarily. Records are
// stamped with the allocating strategy (-1 outside any scope), exported
// as the `strategy` JSONL/CSV column.
//
// A job's operating-point searches run concurrently as pool tasks
// (synth/search_core.cpp), each one serial in itself. Each task runs
// under a PointScope: outside any StrategyScope, begin_group() then
// allocates from the task's own sequence (kPointBit | tag <<
// kStrategyShift | seq). Once the tasks are done, place_points() hands
// each task, in the serial (vdd, clock) order, the block of global ids
// it would have drawn running alone, and merged() renumbers the records
// into that block -- so the exported ids equal those of a serial run.
//
// eval_us and cache_hits/misses are the exception: the evaluation
// caches are shared, so which candidate pays a miss depends on arrival
// order. They are exported for profiling but excluded from the
// determinism guarantee (to_jsonl(/*include_timing=*/false) omits
// them; that is what the determinism test compares).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace hsyn::obs {

enum class MoveStatus : std::uint8_t {
  Evaluated = 0,   ///< scheduled + costed, never applied
  Infeasible = 1,  ///< failed scheduling/validation (no gain)
  Applied = 2,     ///< applied during a pass, prefix selection pending
  RolledBack = 3,  ///< applied then undone by best-prefix selection
  Accepted = 4,    ///< applied and kept in the best prefix
  /// Chosen by cost but refused by the rewrite-equivalence gate
  /// (--verify-rewrites, check/equiv.h): the move's DFG was not
  /// behaviorally equivalent to the one it replaced. Distinct from
  /// Infeasible/RolledBack so summaries separate "rejected by cost"
  /// from "rejected by the verifier".
  RejectedByVerifier = 5,
};

const char* move_status_name(MoveStatus s);

/// One attempted move.
struct MoveRecord {
  std::uint64_t group = 0;  ///< serial enumeration-site id
  std::uint64_t job = 0;    ///< obs::current_job() of the recording scope
  std::int32_t cand = 0;    ///< candidate index within the group
  /// Portfolio strategy of the recording thread (-1 = no strategy
  /// scope was active).
  std::int32_t strategy = -1;
  std::string kind;         ///< move class ("A:replace-fu", "C:share", ...)
  std::string desc;         ///< human-readable target description
  int pass = 0;             ///< improvement pass (outermost improve())
  int depth = 0;            ///< resynthesis nesting depth (move B)
  double gain = 0;          ///< cost(before) - cost(after)
  double cost_before = 0;
  MoveStatus status = MoveStatus::Evaluated;
  // Observational fields (excluded from the determinism contract):
  double eval_us = 0;              ///< wall time of schedule + cost
  std::uint64_t cache_hits = 0;    ///< eval-cache hits during evaluation
  std::uint64_t cache_misses = 0;  ///< eval-cache misses during evaluation
};

/// Per-move-class rollup for the final report.
struct MoveClassSummary {
  std::uint64_t attempted = 0;   ///< records of any status
  std::uint64_t infeasible = 0;
  std::uint64_t applied = 0;     ///< Applied + RolledBack + Accepted
  std::uint64_t accepted = 0;
  /// Moves the equivalence gate refused (MoveStatus::RejectedByVerifier).
  std::uint64_t rejected_equiv = 0;
  double accepted_gain = 0;      ///< cumulative gain of accepted moves
};

class MoveLedger {
 public:
  /// Job filter accepting every record (see obs/job.h; the daemon passes
  /// a concrete job id to carve one job's moves out of the shared
  /// ledger).
  static constexpr std::uint64_t kAllJobs = ~std::uint64_t{0};

  /// Bit position of the strategy tag inside portfolio group ids:
  /// group = (strategy + 1) << kStrategyShift | per-strategy sequence.
  /// 2^40 groups per strategy is unreachable in practice, and ids sort
  /// by (strategy, sequence) -- exactly the deterministic order the
  /// merged ledger needs.
  static constexpr int kStrategyShift = 40;

  /// Marks point-task group ids (see PointScope); their tag sits at
  /// kStrategyShift and wraps well below this bit.
  static constexpr std::uint64_t kPointBit = std::uint64_t{1} << 63;

  static MoveLedger& instance();

  MoveLedger(const MoveLedger&) = delete;
  MoveLedger& operator=(const MoveLedger&) = delete;

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }

  /// Drop all records, marks, and the group counter.
  void reset();

  /// Records lost to the per-thread buffer cap since the last reset()
  /// (summed over every recording thread; safe to call while recording).
  std::uint64_t dropped() const;

  /// Allocate the id of the next enumeration group. Must be called from
  /// strategy-serial code (a generator's enumeration site): outside any
  /// StrategyScope or PointScope the total order of calls is what makes
  /// ledger output thread-count independent; inside one, the
  /// per-strategy or per-point sequence counter is, so concurrent
  /// explorers and point tasks may enumerate freely.
  std::uint64_t begin_group();

  /// Reserve `n` consecutive point-task tags (see PointScope) and
  /// return the first.
  std::uint64_t begin_points(int n);

  /// Give the point tasks [first, first + n), in that order, the global
  /// group ids each one would have drawn serially: the next block of the
  /// global sequence, one task after another. Call once every task of
  /// the block has finished.
  void place_points(std::uint64_t first, int n);

  /// Append one record to the calling thread's buffer (lock-free with
  /// respect to other recording threads).
  void record(MoveRecord rec);

  /// Mark the outcome of record (group, cand). Serial code only (the
  /// improvement loop); marks overwrite earlier marks for the same key.
  void set_status(std::uint64_t group, std::int32_t cand, MoveStatus status);

  /// Records (of one job, or all of them), sorted by (group, cand) with
  /// outcome marks applied. Must not race with active recording (call
  /// between runs, or for a job that has finished).
  std::vector<MoveRecord> merged(std::uint64_t job = kAllJobs) const;

  /// Records as JSON-lines, one object per move. With
  /// include_timing=false the observational fields (eval_us,
  /// cache_hits, cache_misses) are omitted and the output is
  /// bit-identical at any thread count.
  std::string to_jsonl(bool include_timing = true,
                       std::uint64_t job = kAllJobs) const;

  /// Records as CSV with a header row (same columns as the JSONL).
  std::string to_csv(std::uint64_t job = kAllJobs) const;

  /// Write to_jsonl() (or to_csv() when `path` ends in ".csv") to
  /// `path`; false on failure.
  bool write(const std::string& path) const;

  /// Per-move-class rollup, keyed by `kind`.
  std::map<std::string, MoveClassSummary> summary(
      std::uint64_t job = kAllJobs) const;

  /// The rollup rendered as the report's ASCII table.
  std::string summary_table(std::uint64_t job = kAllJobs) const;

  /// Per-strategy per-move-class rollup (key -1 collects records made
  /// outside any StrategyScope). The portfolio engine reads this to
  /// report per-strategy win rates and derive accept-rate priors.
  std::map<std::int32_t, std::map<std::string, MoveClassSummary>>
  summary_by_strategy(std::uint64_t job = kAllJobs) const;

 private:
  MoveLedger() = default;

  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> next_group_{0};
  std::atomic<std::uint64_t> next_point_{0};
};

/// RAII tag: "records produced on this thread belong to candidate
/// `cand` of group `group`". Constructed in a move generator's candidate
/// loop, immediately around the finish_move call chain.
class CandidateScope {
 public:
  CandidateScope(std::uint64_t group, std::int32_t cand);
  ~CandidateScope();
  CandidateScope(const CandidateScope&) = delete;
  CandidateScope& operator=(const CandidateScope&) = delete;

  /// The innermost active scope on this thread (group/cand of -1 when
  /// none): finish_move records only when a scope is active.
  static bool active();
  static std::uint64_t current_group();
  static std::int32_t current_cand();

 private:
  std::uint64_t prev_group_;
  std::int32_t prev_cand_;
  bool prev_active_;
};

/// RAII pass context: set by improve() around each pass so records
/// carry the pass number. Thread-local; nested improve() (move B
/// resynthesis) restores the outer value on exit.
class ImproveScope {
 public:
  explicit ImproveScope(int pass);
  ~ImproveScope();
  ImproveScope(const ImproveScope&) = delete;
  ImproveScope& operator=(const ImproveScope&) = delete;

  static int current_pass();

 private:
  int prev_pass_;
};

/// RAII strategy context: the portfolio engine wraps each explorer's
/// whole trajectory (one pool chunk, serial on its lane) so
/// begin_group() allocates from the strategy's own deterministic
/// sequence and records carry the strategy id. Thread-local.
class StrategyScope {
 public:
  explicit StrategyScope(std::int32_t strategy);
  ~StrategyScope();
  StrategyScope(const StrategyScope&) = delete;
  StrategyScope& operator=(const StrategyScope&) = delete;

  /// True when the calling thread is inside a StrategyScope.
  static bool active();
  /// The innermost scope's strategy id (-1 when none).
  static std::int32_t current();

 private:
  std::int32_t prev_;
};

/// RAII point-task context: the search of one (vdd, clock) point, run
/// as a pool task concurrently with the job's other points. Outside a
/// StrategyScope, begin_group() on this thread allocates from the
/// point's own sequence, which the destructor hands to
/// MoveLedger::place_points. Thread-local.
class PointScope {
 public:
  explicit PointScope(std::uint64_t tag);
  ~PointScope();
  PointScope(const PointScope&) = delete;
  PointScope& operator=(const PointScope&) = delete;

  /// True when the calling thread is inside a PointScope.
  static bool active();

 private:
  std::int64_t prev_;
  std::uint64_t prev_groups_;
  bool prev_recorded_;
};

/// RAII resynthesis-depth context: move B wraps its nested improve()
/// call so records from the inner engine carry depth > 0.
class ResynthScope {
 public:
  ResynthScope();
  ~ResynthScope();
  ResynthScope(const ResynthScope&) = delete;
  ResynthScope& operator=(const ResynthScope&) = delete;

  static int current_depth();

 private:
  int prev_depth_;
};

}  // namespace hsyn::obs
