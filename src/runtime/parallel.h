// The explicit (cost, index) best-of fold used by the portfolio.
//
// Pool regions carry whole searches only (a job's operating points, a
// portfolio's strategies; runtime/thread_pool.h); candidates inside a
// search are evaluated by plain serial loops. A fold over Scored<T>
// through keep_scored selects the minimum-cost candidate, lowest index
// on ties, whatever order the candidates are folded in.
#pragma once

#include <utility>

namespace hsyn::runtime {

/// A candidate in an explicit (cost, index)-ordered best-of reduction.
/// index < 0 means "empty" (the fold identity).
template <typename T>
struct Scored {
  double cost = 0;
  int index = -1;
  T value{};
};

/// The explicit comparator for portfolio-style best-of reductions:
/// strictly lower cost wins; equal cost breaks toward the lower index.
/// Fold order can therefore never flip the winner between equal-cost
/// candidates -- unlike a bare "keep when strictly better" fold, whose
/// tie-break is implicit in visit order.
template <typename T>
bool scored_better(const Scored<T>& a, const Scored<T>& b) {
  if (b.index < 0) return false;
  if (a.index < 0) return true;
  if (a.cost != b.cost) return b.cost < a.cost;
  return b.index < a.index;
}

/// keep() combiner over Scored<T>: associative, identity = empty.
template <typename T>
void keep_scored(Scored<T>& acc, Scored<T>&& cand) {
  if (scored_better(acc, cand)) acc = std::move(cand);
}

}  // namespace hsyn::runtime
