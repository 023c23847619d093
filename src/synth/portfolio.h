// Portfolio search: N SearchStrategy trajectories explored concurrently
// over the deterministic runtime pool, best-of kept.
//
// Each strategy is one chunk of a pool region (runtime/thread_pool.h).
// Its point fan-out runs inline on the chunk's lane, so a strategy's
// whole trajectory runs serially on one lane and is a pure function of
// (design, options, strategy). Each strategy's log lines are captured
// on its lane and written in strategy order, so --verbose output does
// not depend on the thread count either. The best-of reduction uses the
// explicit (cost, strategy index) comparator of runtime/parallel.h, so
// the portfolio winner is bit-identical at 1, 2 or 8 threads.
//
// Explorers share work instead of multiplying it: every strategy prices
// moves through the shared EvalEngine caches against the *same* typical
// input trace (strategy rng offsets never perturb the trace), so a
// schedule/cost evaluated by one explorer is a cache hit for the rest.
//
// Learning loop: the per-strategy move outcome tallies (ImproveStats
// per-class counters, mirrored in the move ledger's per-strategy rollup)
// are folded into accept-rate priors between rounds; strategies marked
// `adaptive` re-order their move classes by prior score in round r+1.
// Strategy 0 is always the untouched baseline, which guarantees the
// portfolio never returns a worse solution than single-seed synthesize().
#pragma once

#include <string>
#include <vector>

#include "synth/search_core.h"
#include "synth/strategy.h"

namespace hsyn {

struct PortfolioOptions {
  /// Strategy count when `strategies` is empty (clamped to >= 1);
  /// filled from default_portfolio().
  int num_strategies = 4;
  /// Portfolio rounds: after each round, accept-rate priors learned from
  /// all explorers re-order the adaptive strategies' move classes.
  int rounds = 1;
  /// Explicit strategy list (--strategies SPEC); indexes are reassigned
  /// to list order.
  std::vector<SearchStrategy> strategies;
};

/// One row of the portfolio outcome table: how one strategy fared in one
/// round.
struct StrategyReport {
  SearchStrategy strategy;
  int round = 0;
  bool ok = false;
  bool cancelled = false;
  double area = 0;
  double power = 0;
  double cost = 0;  ///< objective value (area or power)
  ImproveStats stats;
  bool winner = false;
};

struct PortfolioResult {
  /// Best solution across every strategy and round (ties break toward
  /// the lowest (round, strategy) index -- strategy 0 being the baseline,
  /// a tie means "the baseline was never beaten").
  SynthResult best;
  /// Index into `reports` of the winning run (-1 when nothing succeeded).
  int winner = -1;
  /// Some strategy was cut short by the CancelToken; `best` still holds
  /// the best solution found before the cut.
  bool cancelled = false;
  std::string cancel_reason;
  /// One row per (round, strategy), rounds outermost, strategy order
  /// within a round -- fully deterministic.
  std::vector<StrategyReport> reports;
  /// Move-class order the priors settled on (= the order adaptive
  /// strategies would use in a further round).
  std::vector<MoveClass> prior_order;

  /// The per-strategy win-rate table for the final report.
  std::string summary_table() const;
};

/// Derive the prior move-class order from aggregated per-class stats:
/// classes sort by accepted gain, then accept rate, then the legacy
/// order. Deterministic.
std::vector<MoveClass> prior_move_order(const ImproveStats& totals);

/// Run a portfolio synthesis. Never throws Cancelled: a tripped token
/// yields cancelled=true and the best-so-far solution, exactly once.
PortfolioResult portfolio_synthesize(const Design& design, const Library& lib,
                                     const ComplexLibrary* clib,
                                     double sample_period_ns, Objective obj,
                                     Mode mode, const SynthOptions& opts,
                                     const PortfolioOptions& popts);

}  // namespace hsyn
