// Shared context and move representation of the iterative-improvement
// engine (paper Section 4, Figs. 4 and 5).
//
// A move is represented by the *resulting* datapath (already scheduled
// and validated -- "when a move is performed, its validity is checked by
// scheduling"), plus its gain = cost(before) - cost(after) under the
// active objective. Negative-gain moves are legal: variable-depth
// improvement applies the best *prefix* of a move sequence, so a
// temporarily degraded architecture can lead out of a local minimum.
#pragma once

#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "dfg/design.h"
#include "power/trace.h"
#include "rtl/complex_library.h"
#include "rtl/datapath.h"

namespace hsyn {

namespace runtime {
class CancelToken;  // runtime/cancel.h
}

struct DirtyRegion;  // rtl/cost.h

enum class Objective { Area, Power };

inline const char* objective_name(Objective o) {
  return o == Objective::Area ? "area" : "power";
}

/// One progress beat from the synthesizer, delivered through
/// SynthOptions::progress. Events come from the top-level engine's
/// serial control points, never from move B's nested improvement. The
/// operating points run as concurrent pool tasks, but their events are
/// held back and delivered by the in-order fold, so the sink sees the
/// serial run's sequence and is never called concurrently -- though
/// possibly from a pool lane rather than the thread that runs
/// synthesize().
struct SynthProgress {
  enum class Stage {
    Probe,    ///< clock probing at one supply finished
    Pass,     ///< one improvement pass finished
    OpPoint,  ///< one (vdd, clock) candidate fully evaluated
    Strategy, ///< one portfolio strategy finished (pass = strategy index)
  };
  Stage stage = Stage::Pass;
  double vdd = 0;       ///< supply voltage of the current operating point
  double clock_ns = 0;  ///< clock period of the current operating point
  int pass = 0;         ///< improvement pass index (Pass events)
  int moves_applied = 0;  ///< moves applied during this pass
  int moves_kept = 0;     ///< best-prefix length kept after the pass
  double cost = 0;        ///< objective cost after the pass / candidate
  double area = 0;        ///< OpPoint events: candidate area
  double power = 0;       ///< OpPoint events: candidate power
  int feasible_clocks = 0;  ///< Probe events: clocks that scheduled
};

/// Tunables of the engine; also the ablation switches.
struct SynthOptions {
  /// Upper bound on MAX_MOVES of Fig. 4. The effective per-pass budget is
  /// min(this, number of movable objects), Kernighan-Lin style: each pass
  /// gets roughly one move per unit/register, so large (flattened)
  /// designs naturally take more work per pass than hierarchical ones.
  int max_moves_per_pass = 32;
  int max_passes = 8;
  int max_candidates = 24;      ///< candidate cap per move generator
  int group_size = 4;           ///< module-group formation: top-K targets
  int trace_samples = 24;
  std::uint64_t seed = 42;
  int max_clocks = 4;           ///< clock candidates kept after pruning
  int resynth_passes = 2;       ///< inner improvement budget of move B
  int max_resynth_depth = 4;    ///< hierarchy depth move B may descend
  double force_vdd = 0;         ///< >0: restrict the Vdd loop to this supply
  /// Non-empty: use this user-supplied typical input trace instead of a
  /// generated one (the paper's "typical input traces" synthesis input).
  Trace user_trace;
  // Ablation switches (all on for the full algorithm).
  bool enable_replace = true;   ///< move A
  bool enable_resynth = true;   ///< move B
  bool enable_share = true;     ///< move C
  bool enable_split = true;     ///< move D
  bool enable_negative_gain = true;  ///< variable-depth (vs greedy-only)
  /// Re-run the full static-check registry (src/check/) on the datapath
  /// after every accepted move and abort on any invariant violation.
  /// Also enabled by HSYN_CHECK_MOVES=1. Read-only over the IR, so
  /// results are bit-identical with or without it.
  bool check_moves = false;
  /// Validate every applied Move A/B whose child DFG changed against
  /// the pre-move DFG with the rewrite-equivalence checker
  /// (check/equiv.h: canonical hash, dataflow facts, differential
  /// replay). A refuted rewrite is not applied and is stamped into the
  /// move ledger as rejected-equiv. Also enabled by
  /// HSYN_VERIFY_REWRITES=1. Read-only over the IR: genuine moves all
  /// verify, so gated runs are bit-identical to ungated ones.
  bool verify_rewrites = false;
  /// Cooperative cancellation: checked at serial control points (per
  /// improvement move and pass inside each operating-point task, per
  /// probed clock). On a cancelled
  /// token the engine throws runtime::Cancelled out of synthesize().
  /// Null disables the checks. Cancellation never corrupts state -- it
  /// unwinds between moves, so catching the exception is safe.
  std::shared_ptr<runtime::CancelToken> cancel;
  /// Progress sink (see SynthProgress). Null disables events. Invoked
  /// by one thread at a time, in the serial run's order: the probe
  /// phase's and each operating point's events are replayed by the
  /// point fold, which may run on any pool lane. Never invoked from a
  /// nested (move B) improvement.
  std::function<void(const SynthProgress&)> progress;
};

/// What a template instance is cached under: the template, the
/// interface behavior it serves, and the exact bit patterns of the
/// operating point it was scheduled at (nearby clocks never alias).
struct TemplateKey {
  std::string tmpl;
  std::string behavior;
  std::uint64_t vdd_bits = 0;
  std::uint64_t clk_bits = 0;

  TemplateKey(std::string tmpl, std::string behavior, const OpPoint& pt);

  friend bool operator<(const TemplateKey& a, const TemplateKey& b) {
    if (a.vdd_bits != b.vdd_bits) return a.vdd_bits < b.vdd_bits;
    if (a.clk_bits != b.clk_bits) return a.clk_bits < b.clk_bits;
    if (a.tmpl != b.tmpl) return a.tmpl < b.tmpl;
    return a.behavior < b.behavior;
  }
};

/// Cache of library templates already instantiated and scheduled at an
/// operating point, shared across SynthContext copies. Entries are
/// immutable shared instances: a hit hands out the pointer, and a caller
/// installs it as a child subtree as is. Guarded by a mutex because a
/// job's operating-point tasks share it and may instantiate
/// concurrently. Bounded (LRU over
/// instantiations) and instrumented: aggregate hit/miss/eviction/entry
/// counters over every instance are reported as the "template-cache"
/// metrics source (obs::Registry), so they show up in --metrics-out.
class TemplateCache {
 public:
  TemplateCache();

  /// The cached instance (shared, never copied), or null. Refreshes
  /// recency. An evicted instance stays valid while anyone holds it.
  std::shared_ptr<const Datapath> get(const TemplateKey& key);

  /// Insert (or refresh) `key`; evicts the least recently used entries
  /// beyond the bound.
  void put(const TemplateKey& key, std::shared_ptr<const Datapath> dp);

  std::size_t size() const;

 private:
  static constexpr std::size_t kMaxEntries = 64;

  struct Entry {
    TemplateKey key;
    std::shared_ptr<const Datapath> dp;
  };

  mutable std::mutex mu_;
  std::list<Entry> lru_;  ///< front = most recently used
  std::map<TemplateKey, std::list<Entry>::iterator> index_;
};

/// Everything a move generator needs to know about the synthesis run.
struct SynthContext {
  const Design* design = nullptr;  ///< null during flattened synthesis
  const Library* lib = nullptr;
  const ComplexLibrary* clib = nullptr;  ///< may be null
  OpPoint pt;
  int deadline = 0;  ///< sampling period in cycles at `pt`
  Trace trace;       ///< typical top-level input trace
  Objective obj = Objective::Power;
  SynthOptions opts;
  /// Shared template cache (keyed by TemplateKey)
  /// so move selection does not re-schedule the same template hundreds
  /// of times per pass.
  std::shared_ptr<TemplateCache> template_cache =
      std::make_shared<TemplateCache>();
};

/// Instantiate template `t` to serve `behavior`, scheduled at cx.pt
/// (memoized in cx.template_cache under the exact operating point). The
/// instance is shared with the cache; it is unscheduled only when it
/// does not schedule at cx.pt.
std::shared_ptr<const Datapath> instantiate_scheduled(
    const ComplexLibrary::Template& t, const std::string& behavior,
    const SynthContext& cx);

/// Objective cost of a scheduled datapath: total area, or total energy
/// per sample (power differs only by the fixed sampling period).
double cost_of(const Datapath& dp, const SynthContext& cx);

/// A candidate move with its (scheduled) result.
struct Move {
  bool valid = false;
  std::string kind;  ///< "A:...", "B:...", "C:...", "D:..."
  std::string desc;
  double gain = 0;   ///< cost(before) - cost(after); positive = better
  Datapath result;
  /// Move-ledger key of this evaluation (obs::MoveLedger), set by
  /// finish_move when the ledger is recording; cand -1 otherwise. The
  /// improvement loop uses it to mark the applied/accepted outcome.
  std::uint64_t obs_group = 0;
  std::int32_t obs_cand = -1;
};

/// Evaluate a mutated datapath: schedule against the context deadline,
/// and if feasible fill in a Move with the given labels and the gain
/// relative to `cost_before`. Invalid move (valid=false) otherwise.
///
/// Generators that know exactly which rows of the level they rewired may
/// pass the pre-move datapath and a DirtyRegion hint; the candidate's
/// connectivity is then derived incrementally from the base's instead of
/// recomputed, and primed into the evaluation cache where the area and
/// energy costing below will find it. The hint is ignored whenever
/// prune_unused() compacted the candidate (indices would no longer
/// match) -- the full recompute is always the fallback.
Move finish_move(Datapath cand, const SynthContext& cx, double cost_before,
                 std::string kind, std::string desc,
                 const Datapath* base = nullptr,
                 const DirtyRegion* dirty = nullptr);

/// Best of two candidate moves by gain (invalid moves lose).
const Move& better_move(const Move& a, const Move& b);

/// Fold `cand` into `best` with better_move's exact semantics (`best`
/// wins ties): the move generators fold their candidates left-to-right
/// through it, so the first of equally good candidates is selected.
void keep_better(Move& best, Move&& cand);

/// Typical input trace observed by child unit `child_idx` of `dp` for
/// interface behavior `behavior`, derived from the top-level trace
/// (inputs seen by each invocation, per sample, in schedule order).
Trace child_input_trace(const Datapath& dp, int b, int child_idx,
                        const std::string& behavior, const SynthContext& cx);

// ---- Move generators (one per paper move class) --------------------------

/// Moves A and B combined (Fig. 5): module-group formation, constraint
/// derivation, then reselection (A) and resynthesis (B) of the targets.
Move best_replace_move(const Datapath& dp, const SynthContext& cx);

/// Move C: resource sharing -- functional-unit merging, register merging,
/// complex-instance reuse and RTL embedding.
Move best_sharing_move(const Datapath& dp, const SynthContext& cx);

/// Move D: resource splitting -- de-share a unit or register.
Move best_splitting_move(const Datapath& dp, const SynthContext& cx);

}  // namespace hsyn
