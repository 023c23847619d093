// Tests for the deterministic parallel runtime (src/runtime/): the
// ordered reduction must select the same element for every thread
// count, per-task RNG streams must be pure functions of (seed, index),
// worker exceptions must propagate to the caller, and a full synthesis
// run must be bit-identical serial vs. parallel (the wider axes of that
// gate are Identity.*, tests/test_identity.cpp).
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include "benchmarks/benchmarks.h"
#include "library/library.h"
#include "obs/metrics.h"
#include "random_dfg.h"
#include "rtl/netlist.h"
#include "runtime/parallel.h"
#include "runtime/task_rng.h"
#include "runtime/thread_pool.h"
#include "synth/synthesizer.h"

namespace hsyn {
namespace {

using testing_support::random_dfg;

/// A stand-in for synth::Move in reduction tests: candidate index plus
/// a score, selected by strictly-greater comparison (first-wins ties).
struct Scored {
  int idx = -1;
  double gain = 0;
  bool valid = false;
};

void keep_scored(Scored& best, Scored&& cand) {
  if (!cand.valid) return;
  if (!best.valid || cand.gain > best.gain) best = std::move(cand);
}

/// Deterministic per-candidate score over a random DFG: node structure
/// plus a few draws from the candidate's private RNG stream. Quantized
/// so that ties are common and first-wins tie-breaking is exercised.
Scored score_candidate(const Dfg& d, std::uint64_t seed, int i) {
  Rng rng = runtime::task_rng(seed, static_cast<std::uint64_t>(i));
  const Node& n = d.node(i % static_cast<int>(d.nodes().size()));
  double g = static_cast<double>(static_cast<int>(n.op)) +
             static_cast<double>(rng.below(8)) + 0.25 * (i % 4);
  if (rng.below(5) == 0) return {};  // some candidates are invalid
  return {i, std::floor(g), true};
}

class ParallelBestDeterminism : public ::testing::TestWithParam<int> {};

TEST_P(ParallelBestDeterminism, SameWinnerForAnyThreadCount) {
  const std::uint64_t seed = static_cast<std::uint64_t>(GetParam());
  const Dfg d = random_dfg(seed, 24);
  const int n = 97;  // not a multiple of any chunk count

  // Serial reference: the exact fold parallel_best promises.
  Scored ref;
  for (int i = 0; i < n; ++i) keep_scored(ref, score_candidate(d, seed, i));
  ASSERT_TRUE(ref.valid);

  for (const int threads : {1, 2, 8}) {
    runtime::set_threads(threads);
    const Scored got = runtime::parallel_best(
        n, Scored{}, [&](int i) { return score_candidate(d, seed, i); },
        keep_scored);
    EXPECT_EQ(ref.idx, got.idx) << "threads=" << threads;
    EXPECT_EQ(ref.gain, got.gain) << "threads=" << threads;
    EXPECT_EQ(ref.valid, got.valid) << "threads=" << threads;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParallelBestDeterminism,
                         ::testing::Range(1, 13));

TEST(ParallelMap, IndexOrderIndependentOfThreadCount) {
  const int n = 61;
  std::vector<std::uint64_t> ref;
  for (const int threads : {1, 2, 8}) {
    runtime::set_threads(threads);
    const std::vector<std::uint64_t> got = runtime::parallel_map(n, [](int i) {
      Rng rng = runtime::task_rng(7, static_cast<std::uint64_t>(i));
      std::uint64_t h = 0;
      for (int k = 0; k < 3; ++k) h ^= rng.next();
      return h;
    });
    ASSERT_EQ(got.size(), static_cast<std::size_t>(n));
    if (ref.empty()) {
      ref = got;
    } else {
      EXPECT_EQ(ref, got) << "threads=" << threads;
    }
  }
}

TEST(TaskRng, StreamsAreReproducibleAndDecorrelated) {
  // Same (seed, index) -> identical stream.
  Rng a = runtime::task_rng(42, 5);
  Rng b = runtime::task_rng(42, 5);
  for (int k = 0; k < 16; ++k) EXPECT_EQ(a.next(), b.next());

  // Neighboring indices and neighboring seeds give distinct streams.
  EXPECT_NE(runtime::task_rng(42, 5).next(), runtime::task_rng(42, 6).next());
  EXPECT_NE(runtime::task_rng(42, 5).next(), runtime::task_rng(43, 5).next());
  // Index 0 is a valid stream too (the +1 offset keeps it off the seed).
  EXPECT_NE(runtime::task_rng(42, 0).next(), Rng(42).next());
}

TEST(ThreadPool, WorkerExceptionsPropagateLowestChunkFirst) {
  runtime::set_threads(8);
  // 64 indices over 8 chunks of 8: chunk 0 is clean, chunk 1 throws
  // first at i == 10 -- that exception must be the one rethrown.
  try {
    runtime::parallel_for(64, [](int i) {
      if (i >= 10) throw std::runtime_error("boom " + std::to_string(i));
    });
    FAIL() << "expected the worker exception to propagate";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ("boom 10", e.what());
  }

  // The pool must stay usable after a throwing region.
  std::vector<int> out(32, 0);
  runtime::parallel_for(32, [&](int i) { out[static_cast<std::size_t>(i)] = i; });
  for (int i = 0; i < 32; ++i) EXPECT_EQ(out[static_cast<std::size_t>(i)], i);
}

TEST(RuntimeStats, CountsTasksAndRegions) {
  runtime::set_threads(4);
  const obs::Registry& reg = obs::Registry::instance();
  const auto before = reg.poll_sources().at("runtime");
  runtime::parallel_for(100, [](int) {});
  const auto after = reg.poll_sources().at("runtime");
  const auto delta = [&](const char* k) { return after.at(k) - before.at(k); };
  EXPECT_EQ(delta("tasks"), 100u);
  EXPECT_GE(delta("regions") + delta("inline_regions"), 1u);
  EXPECT_GE(delta("chunks"), 1u);
  EXPECT_GE(after.at("max_region_chunks"), 1u);
}

TEST(Synthesis, BitIdenticalAcrossThreadCounts) {
  const Library lib = default_library();
  const Benchmark bench = make_benchmark("test1", lib);
  const double ts = 2.2 * min_sample_period_ns(bench.design, lib);

  runtime::set_threads(1);
  const SynthResult serial =
      synthesize(bench.design, lib, &bench.clib, ts, Objective::Power,
                 Mode::Hierarchical);
  ASSERT_TRUE(serial.ok) << serial.fail_reason;

  runtime::set_threads(8);
  const SynthResult parallel =
      synthesize(bench.design, lib, &bench.clib, ts, Objective::Power,
                 Mode::Hierarchical);
  ASSERT_TRUE(parallel.ok) << parallel.fail_reason;

  // Bit-identical, not approximately equal: same architecture, same
  // schedule, same energy/area doubles.
  EXPECT_EQ(serial.area, parallel.area);
  EXPECT_EQ(serial.energy, parallel.energy);
  EXPECT_EQ(serial.makespan, parallel.makespan);
  EXPECT_EQ(serial.stats.moves_applied, parallel.stats.moves_applied);
  EXPECT_EQ(serial.stats.moves_kept, parallel.stats.moves_kept);
  EXPECT_EQ(netlist_to_text(serial.dp, lib), netlist_to_text(parallel.dp, lib));
}

// Regression for the explicit (cost, index) comparator: equal-cost
// candidates must always resolve to the lowest index, at every thread
// count, no matter how the reduction tree groups the chunks. A bare
// "keep when strictly better" fold gets this right only by accident of
// visit order.
TEST(ParallelBestIndexed, EqualCostBreaksTowardLowestIndex) {
  constexpr int kN = 97;
  for (const int threads : {1, 2, 3, 8}) {
    runtime::set_threads(threads);

    // All candidates tie: index 0 must win.
    runtime::Scored<int> all_tied = runtime::parallel_best_indexed(
        kN, [](int i) { return runtime::Scored<int>{5.0, -1, i * 10}; });
    EXPECT_EQ(all_tied.index, 0) << "threads=" << threads;
    EXPECT_EQ(all_tied.value, 0) << "threads=" << threads;

    // A tie at the minimum deep inside the range: the lowest tied index
    // wins, not whichever chunk reduced last.
    runtime::Scored<int> deep_tie = runtime::parallel_best_indexed(
        kN, [](int i) {
          const double cost = (i == 23 || i == 71) ? 1.0 : 2.0 + i;
          return runtime::Scored<int>{cost, -1, i};
        });
    EXPECT_EQ(deep_tie.index, 23) << "threads=" << threads;
    EXPECT_DOUBLE_EQ(deep_tie.cost, 1.0) << "threads=" << threads;

    // Strictly lower cost still beats any index.
    runtime::Scored<int> strict = runtime::parallel_best_indexed(
        kN, [](int i) {
          return runtime::Scored<int>{i == kN - 1 ? 0.5 : 1.0, -1, i};
        });
    EXPECT_EQ(strict.index, kN - 1) << "threads=" << threads;
  }
  runtime::set_threads(0);
}

TEST(ParallelBestIndexed, CombinerIsAssociativeWithEmptyIdentity) {
  using S = runtime::Scored<int>;
  S empty;
  S a{3.0, 4, 40};
  S b{3.0, 2, 20};
  EXPECT_FALSE(runtime::scored_better(a, empty));
  EXPECT_TRUE(runtime::scored_better(empty, a));
  EXPECT_TRUE(runtime::scored_better(a, b));   // equal cost, lower index
  EXPECT_FALSE(runtime::scored_better(b, a));

  // (empty ⊕ a) ⊕ b == empty ⊕ (a ⊕ b)
  S left = empty;
  runtime::keep_scored(left, S(a));
  runtime::keep_scored(left, S(b));
  S inner = a;
  runtime::keep_scored(inner, S(b));
  S right = empty;
  runtime::keep_scored(right, std::move(inner));
  EXPECT_EQ(left.index, right.index);
  EXPECT_EQ(left.value, right.value);
  EXPECT_EQ(left.index, 2);
}

}  // namespace
}  // namespace hsyn
