// SearchCore: the re-entrant, strategy-parameterized synthesis engine.
//
// The legacy entry points -- improve() (synth/improve.h) and
// synthesize() (synth/synthesizer.h) -- are thin wrappers that run one
// default-constructed SearchStrategy through this core; the portfolio
// engine (synth/portfolio.h) runs many strategies concurrently over the
// same core instance.
//
// Construction does all the strategy-independent work once: flattening,
// critical-path analysis, supply-voltage pruning and typical-trace
// generation. run(strategy) is const and touches only immutable state
// plus its own locals, so N concurrent run() calls (one per pool lane)
// are safe and each is a pure function of (core inputs, strategy) -- the
// basis of the portfolio's thread-count-independence guarantee. Called
// outside a region, run() searches its operating points as concurrent
// pool tasks and folds them in the serial order (DESIGN.md section 6);
// inside a portfolio strategy's chunk the points run inline, in order.
//
// Determinism note: the typical input trace is derived from
// SynthOptions::seed only. Strategy seed offsets deliberately do NOT
// perturb the trace -- all strategies price moves against identical
// traces, so concurrent explorers share evaluation-cache entries instead
// of each paying full price.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "synth/strategy.h"
#include "synth/synthesizer.h"

namespace hsyn {

/// The result of running one strategy to completion (or cancellation).
struct SearchOutcome {
  SynthResult result;  ///< best solution found (ok=false when none)
  /// The run was cut short by its CancelToken. `result` still holds the
  /// best solution found before the cut (best-so-far semantics); the
  /// legacy synthesize() wrapper rethrows instead.
  bool cancelled = false;
  std::string cancel_reason;
  /// Stats aggregated over every operating point the strategy explored
  /// (result.stats covers only the winning point). Feeds the portfolio's
  /// accept-rate priors.
  ImproveStats total_stats;
};

class SearchCore {
 public:
  /// Strategy-independent setup. May throw (bad user trace). The design
  /// and library must outlive the core.
  SearchCore(const Design& design, const Library& lib,
             const ComplexLibrary* clib, double sample_period_ns,
             Objective obj, Mode mode, const SynthOptions& opts);

  /// False when no supply voltage can meet the sampling period;
  /// fail_reason() says why and run() returns an immediate failure.
  bool viable() const { return viable_; }
  const std::string& fail_reason() const { return fail_reason_; }

  /// Run one complete search trajectory under `strat`. Re-entrant: safe
  /// to call concurrently from multiple pool lanes. Cancellation is
  /// caught at a strategy-serial boundary and reported via the outcome
  /// (never thrown): the result is the best of the operating points
  /// completed, in the serial order, before the first cancelled one.
  SearchOutcome run(const SearchStrategy& strat) const;

  const Trace& trace() const { return trace_; }
  Objective objective() const { return obj_; }
  const SynthOptions& options() const { return opts_; }

  /// Debug-build invariant gate over a finished result (no-op in release
  /// builds): run the cheap static-check registry on the winning circuit.
  static void verify_result(const SynthResult& r, const Design& design,
                            const Library& lib);

 private:
  const Design& design_;
  const Library& lib_;
  const ComplexLibrary* clib_;
  double sample_period_ns_;
  Objective obj_;
  Mode mode_;
  SynthOptions opts_;

  std::shared_ptr<const Dfg> flat_;  ///< owns the flattened DFG (flat mode)
  const Dfg* dfg_ = nullptr;
  std::string behavior_name_;
  std::vector<double> vdds_;  ///< pruned supply candidates, ascending
  Trace trace_;
  bool viable_ = true;
  std::string fail_reason_;
};

/// The strategy-parameterized variable-depth improvement loop.
/// `search_improve(dp, cx, SearchStrategy{}, stats)` is bit-identical to
/// the legacy improve(): the default move order folds the generators in
/// the paper's sequence with first-wins tie-breaking, and the split
/// generator runs exactly when the legacy conditional ran it.
Datapath search_improve(Datapath dp, const SynthContext& cx,
                        const SearchStrategy& strat, ImproveStats* stats);

}  // namespace hsyn
