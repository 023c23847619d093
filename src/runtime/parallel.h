// Deterministic data-parallel helpers over the global ThreadPool.
//
// All helpers use *static chunking*: the index range [0, n) is cut into
// at most threads() contiguous chunks whose boundaries depend only on n
// and the chunk count -- never on timing. Per-chunk results land in
// per-chunk slots and are combined strictly in chunk (hence index)
// order, so every helper returns bit-identical results regardless of
// thread count, including the degenerate serial pool.
//
//   parallel_for(n, body)        body(i) for i in [0, n), disjoint writes
//   parallel_map(n, fn)          vector<R>{fn(0), ..., fn(n-1)}
//   parallel_best(n, init, eval, keep)
//                                left fold: keep(acc, eval(i)) in index
//                                order -- the ordered reduction used for
//                                move selection (first-best-wins ties
//                                behave exactly like the serial loop)
//
// `keep(Acc&, T&&)` must implement an associative selection (keep the
// better of two, merge-with-order-independence, ...); the helpers fold
// each chunk locally from a fresh `init`, then fold the chunk
// accumulators into the final result in chunk order.
#pragma once

#include <utility>
#include <vector>

#include "runtime/thread_pool.h"

namespace hsyn::runtime {

/// Static chunk boundaries: chunk c of k covers [begin(c), begin(c+1)).
inline int chunk_begin(int n, int k, int c) {
  return static_cast<int>((static_cast<long long>(n) * c) / k);
}

/// Number of chunks used for an n-element region on the current pool:
/// one inside a region, where a nested region runs inline anyway (and
/// asking for the global pool would take its lock on every call).
inline int num_chunks(int n) {
  if (n < 1) return 0;
  if (ThreadPool::in_region()) return 1;
  const int k = pool().threads();
  return n < k ? n : k;
}

/// Run body(i) for every i in [0, n). body must only write state owned
/// by index i (or thread-local state); iteration order across chunks is
/// unspecified, within a chunk it is ascending.
template <typename Body>
void parallel_for(int n, Body&& body) {
  if (n <= 0) return;
  const int k = num_chunks(n);
  detail::count_tasks(n);
  const auto chunk = [&](int c) {
    const int lo = chunk_begin(n, k, c);
    const int hi = chunk_begin(n, k, c + 1);
    for (int i = lo; i < hi; ++i) body(i);
  };
  if (k <= 1) {
    ThreadPool::run_inline(k, chunk);
  } else {
    pool().run(k, chunk);
  }
}

/// Map fn over [0, n) into a vector in index order.
template <typename Fn>
auto parallel_map(int n, Fn&& fn)
    -> std::vector<decltype(fn(0))> {
  using R = decltype(fn(0));
  std::vector<R> out(static_cast<std::size_t>(n > 0 ? n : 0));
  parallel_for(n, [&](int i) { out[static_cast<std::size_t>(i)] = fn(i); });
  return out;
}

/// Ordered reduction: semantically identical to
///
///   Acc acc = init; for (i : [0, n)) keep(acc, eval(i)); return acc;
///
/// for any thread count, provided `keep` is an associative selection
/// with `init` as identity (e.g. "replace acc when strictly better",
/// which preserves serial first-wins tie-breaking).
template <typename Acc, typename Eval, typename Keep>
Acc parallel_best(int n, Acc init, Eval&& eval, Keep&& keep) {
  if (n <= 0) return init;
  detail::count_tasks(n);
  const int k = num_chunks(n);
  if (k <= 1) {
    detail::count_region(1, /*inline_run=*/true);
    Acc acc = std::move(init);
    for (int i = 0; i < n; ++i) keep(acc, eval(i));
    return acc;
  }
  std::vector<Acc> partial(static_cast<std::size_t>(k), init);
  pool().run(k, [&](int c) {
    Acc acc = partial[static_cast<std::size_t>(c)];
    const int lo = chunk_begin(n, k, c);
    const int hi = chunk_begin(n, k, c + 1);
    for (int i = lo; i < hi; ++i) keep(acc, eval(i));
    partial[static_cast<std::size_t>(c)] = std::move(acc);
  });
  Acc out = std::move(init);
  for (Acc& p : partial) keep(out, std::move(p));
  return out;
}

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
/// Reduction order can therefore never flip the winner between
/// equal-cost candidates -- unlike a bare "keep when strictly better"
/// fold, whose tie-break is implicit in visit order.
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

/// parallel_best with the explicit (cost, index) tie-break baked in:
/// eval(i) returns a Scored<T> (callers set cost and value; index is
/// overwritten with i). Returns the minimum-cost candidate, lowest
/// index on ties, identical at any thread count.
template <typename Eval>
auto parallel_best_indexed(int n, Eval&& eval)
    -> decltype(eval(0)) {
  using S = decltype(eval(0));
  return parallel_best(
      n, S{},
      [&](int i) {
        S s = eval(i);
        s.index = i;
        return s;
      },
      [](S& acc, S&& cand) { keep_scored(acc, std::move(cand)); });
}

}  // namespace hsyn::runtime
