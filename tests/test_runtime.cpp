// Tests for the deterministic runtime (src/runtime/): per-task RNG
// streams must be pure functions of (seed, index), worker exceptions
// must propagate to the caller, a job opens exactly one pool region
// (its operating points), the portfolio's (cost, index) fold breaks ties
// toward the lowest index, and a full synthesis run must be
// bit-identical serial vs. parallel (the wider axes of that gate are
// Identity.*, tests/test_identity.cpp).
#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "benchmarks/benchmarks.h"
#include "library/library.h"
#include "obs/ledger.h"
#include "obs/metrics.h"
#include "rtl/netlist.h"
#include "runtime/cancel.h"
#include "runtime/parallel.h"
#include "runtime/task_rng.h"
#include "runtime/thread_pool.h"
#include "serve/jobs.h"
#include "synth/search_core.h"
#include "synth/synthesizer.h"

namespace hsyn {
namespace {

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
  // 8 chunks: chunk 0 is clean, chunks 1..7 throw -- chunk 1's exception
  // must be the one rethrown, whichever lane finished first.
  try {
    runtime::pool().run(8, [](int c) {
      if (c >= 1) throw std::runtime_error("boom " + std::to_string(c));
    });
    FAIL() << "expected the worker exception to propagate";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ("boom 1", e.what());
  }

  // The pool must stay usable after a throwing region.
  std::vector<int> out(32, 0);
  runtime::pool().run(32, [&](int c) { out[static_cast<std::size_t>(c)] = c; });
  for (int c = 0; c < 32; ++c) EXPECT_EQ(out[static_cast<std::size_t>(c)], c);
  runtime::set_threads(0);
}

TEST(ThreadPool, SecondSubmitterRunsInlineWhilePoolIsBusy) {
  runtime::set_threads(4);
  const obs::Registry& reg = obs::Registry::instance();
  const std::uint64_t busy_before =
      reg.poll_sources().at("runtime").at("busy_inline_regions");
  std::mutex mu;
  std::condition_variable cv;
  bool first_open = false;
  bool second_done = false;
  bool released = false;
  // The first submitter's region stays open until the second submitter
  // is done -- or 10 s pass, so a pool that makes the second one wait
  // fails the test instead of hanging it.
  std::thread first([&] {
    runtime::pool().run(4, [&](int c) {
      if (c != 0) return;
      std::unique_lock<std::mutex> lock(mu);
      first_open = true;
      cv.notify_all();
      released = cv.wait_for(lock, std::chrono::seconds(10),
                             [&] { return second_done; });
    });
  });
  bool opened = false;
  {
    std::unique_lock<std::mutex> lock(mu);
    opened = cv.wait_for(lock, std::chrono::seconds(10),
                         [&] { return first_open; });
  }
  std::vector<int> out(8, -1);
  runtime::pool().run(8, [&](int c) {
    EXPECT_TRUE(runtime::ThreadPool::in_region());
    out[static_cast<std::size_t>(c)] = c;
  });
  {
    std::lock_guard<std::mutex> lock(mu);
    second_done = true;
  }
  cv.notify_all();
  first.join();
  ASSERT_TRUE(opened) << "the first region never started";
  EXPECT_TRUE(released) << "the second region waited for the first";
  for (int c = 0; c < 8; ++c) EXPECT_EQ(out[static_cast<std::size_t>(c)], c);
  EXPECT_GE(reg.poll_sources().at("runtime").at("busy_inline_regions"),
            busy_before + 1);
  runtime::set_threads(0);
}

TEST(RuntimeStats, CountsTasksAndRegions) {
  runtime::set_threads(4);
  const obs::Registry& reg = obs::Registry::instance();
  const auto before = reg.poll_sources().at("runtime");
  runtime::pool().run(100, [](int) {});
  const auto after = reg.poll_sources().at("runtime");
  const auto delta = [&](const char* k) { return after.at(k) - before.at(k); };
  EXPECT_EQ(delta("tasks"), 100u);
  EXPECT_EQ(delta("regions") + delta("inline_regions"), 1u);
  EXPECT_EQ(delta("chunks"), 100u);
  EXPECT_GE(after.at("max_region_chunks"), 100u);
  // Lane 0 (the submitter) and every worker lane report busy time.
  for (int lane = 0; lane < 4; ++lane) {
    EXPECT_TRUE(after.count("lane" + std::to_string(lane) + "_busy_ns"))
        << "lane " << lane;
  }
}

TEST(RuntimeStats, OneRegionPerJob) {
  // Pool regions carry whole searches only: a hierarchical power job --
  // template set-up, search and RTL verification -- opens exactly one,
  // its operating-point fan-out; candidates, child estimates and trace
  // replay run as serial loops inside the point tasks.
  runtime::set_threads(4);
  const obs::Registry& reg = obs::Registry::instance();
  const auto before = reg.poll_sources().at("runtime");
  serve::JobSpec spec;
  spec.benchmark = "test1";
  spec.templates = true;
  const serve::JobOutcome out = serve::run_job(spec, serve::JobHooks{});
  const auto after = reg.poll_sources().at("runtime");
  runtime::set_threads(0);
  ASSERT_TRUE(out.ok) << out.error;
  EXPECT_TRUE(out.verify_ok);
  const auto delta = [&](const char* k) { return after.at(k) - before.at(k); };
  EXPECT_EQ(delta("regions") + delta("inline_regions"), 1u);
  EXPECT_GE(delta("tasks"), 8u);  // one chunk per operating point
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

TEST(Synthesis, LedgerByteIdenticalAcrossThreadCounts) {
  // The operating points run concurrently at 2 and 8 threads; each point
  // task draws group ids from its own sequence, and the ledger renumbers
  // them into the ids a serial run draws.
  const Library lib = default_library();
  const Benchmark bench = make_benchmark("test1", lib);
  const double ts = 2.2 * min_sample_period_ns(bench.design, lib);
  obs::MoveLedger& led = obs::MoveLedger::instance();
  std::string base;
  for (const int threads : {1, 2, 8}) {
    runtime::set_threads(threads);
    led.reset();
    led.set_enabled(true);
    int points = 0;
    SynthOptions opts;
    opts.progress = [&](const SynthProgress& ev) {
      if (ev.stage == SynthProgress::Stage::OpPoint) ++points;
    };
    const SynthResult r = synthesize(bench.design, lib, &bench.clib, ts,
                                     Objective::Power, Mode::Hierarchical,
                                     opts);
    led.set_enabled(false);
    ASSERT_TRUE(r.ok) << r.fail_reason;
    EXPECT_GE(points, 8) << "threads=" << threads;
    const std::string jsonl = led.to_jsonl(/*include_timing=*/false);
    led.reset();
    ASSERT_FALSE(jsonl.empty());
    if (threads == 1) {
      base = jsonl;
    } else {
      EXPECT_TRUE(jsonl == base) << "ledger differs at threads=" << threads;
    }
  }
  runtime::set_threads(0);
}

TEST(PointCancel, MidFanOutKeepsTheCompletedPrefix) {
  const Library lib = default_library();
  const Benchmark bench = make_benchmark("test1", lib);
  const double ts = 2.2 * min_sample_period_ns(bench.design, lib);
  // Collects the operating-point events; `cancel`, when set, is tripped
  // from the first one, while the other points run or wait on the pool.
  const auto run = [&](const std::shared_ptr<runtime::CancelToken>& cancel,
                       std::vector<SynthProgress>* points) {
    SynthOptions opts;
    opts.cancel = cancel;
    opts.progress = [&](const SynthProgress& ev) {
      if (ev.stage != SynthProgress::Stage::OpPoint) return;
      points->push_back(ev);
      if (cancel) cancel->request("budget spent");
    };
    const SearchCore core(bench.design, lib, &bench.clib, ts,
                          Objective::Power, Mode::Hierarchical, opts);
    return core.run(SearchStrategy{});
  };

  // The reference: every point of an uncancelled run, in fold order.
  runtime::set_threads(1);
  std::vector<SynthProgress> all;
  ASSERT_FALSE(run(nullptr, &all).cancelled);
  ASSERT_GE(all.size(), 8u);

  runtime::set_threads(2);
  std::vector<SynthProgress> folded;
  const SearchOutcome oc =
      run(std::make_shared<runtime::CancelToken>(), &folded);
  EXPECT_TRUE(oc.cancelled);
  EXPECT_EQ(oc.cancel_reason, "budget spent");
  ASSERT_TRUE(oc.result.ok) << oc.result.fail_reason;  // best-so-far
  ASSERT_GE(folded.size(), 1u);
  ASSERT_LT(folded.size(), all.size()) << "the cancel never landed";

  // The folded points are the uncancelled run's first points, and the
  // result is the best of exactly that prefix (the synthesizer's rule:
  // lower objective, near-ties toward lower power).
  double best_cost = 0;
  double best_power = 0;
  double best_area = 0;
  for (std::size_t i = 0; i < folded.size(); ++i) {
    EXPECT_EQ(folded[i].vdd, all[i].vdd) << "point " << i;
    EXPECT_EQ(folded[i].clock_ns, all[i].clock_ns) << "point " << i;
    EXPECT_EQ(folded[i].cost, all[i].cost) << "point " << i;
    const SynthProgress& p = all[i];
    if (i == 0 || p.cost < best_cost * (1.0 - 1e-9) ||
        (p.cost <= best_cost * 1.08 && p.power < best_power)) {
      best_cost = i == 0 ? p.cost : std::min(p.cost, best_cost);
      best_power = p.power;
      best_area = p.area;
    }
  }
  EXPECT_EQ(oc.result.power, best_power);
  EXPECT_EQ(oc.result.area, best_area);

  // Through the job pipeline the same cut ends the job `cancelled`.
  serve::JobSpec spec;
  spec.benchmark = "test1";
  spec.verify = false;
  spec.want_progress = true;
  serve::JobHooks hooks;
  hooks.cancel = std::make_shared<runtime::CancelToken>();
  int job_points = 0;
  hooks.progress = [&](const SynthProgress& ev) {
    if (ev.stage != SynthProgress::Stage::OpPoint) return;
    ++job_points;
    hooks.cancel->request("budget spent");
  };
  const serve::JobOutcome out = serve::run_job(spec, hooks);
  runtime::set_threads(0);
  EXPECT_TRUE(out.cancelled);
  EXPECT_EQ(out.error, "budget spent");
  EXPECT_LT(job_points, static_cast<int>(all.size()));
}

// Regression for the explicit (cost, index) comparator the portfolio
// folds strategies with: equal-cost candidates must resolve to the
// lowest index whatever order they are folded in. A bare "keep when
// strictly better" fold gets this right only by accident of visit order.
TEST(KeepScored, EqualCostBreaksTowardLowestIndex) {
  constexpr int kN = 97;
  using S = runtime::Scored<int>;
  // Folds candidates 0..kN-1 forwards and backwards; both must agree.
  const auto best_of = [&](const auto& cand) {
    S forward;
    S backward;
    for (int i = 0; i < kN; ++i) runtime::keep_scored(forward, cand(i));
    for (int i = kN - 1; i >= 0; --i) runtime::keep_scored(backward, cand(i));
    EXPECT_EQ(forward.index, backward.index);
    EXPECT_EQ(forward.value, backward.value);
    return forward;
  };

  // All candidates tie: index 0 must win.
  const S all_tied = best_of([](int i) { return S{5.0, i, i * 10}; });
  EXPECT_EQ(all_tied.index, 0);
  EXPECT_EQ(all_tied.value, 0);

  // A tie at the minimum deep inside the range: the lowest tied index
  // wins, not whichever candidate was folded last.
  const S deep_tie = best_of([](int i) {
    const double cost = (i == 23 || i == 71) ? 1.0 : 2.0 + i;
    return S{cost, i, i};
  });
  EXPECT_EQ(deep_tie.index, 23);
  EXPECT_DOUBLE_EQ(deep_tie.cost, 1.0);

  // Strictly lower cost still beats any index.
  const S strict =
      best_of([](int i) { return S{i == kN - 1 ? 0.5 : 1.0, i, i}; });
  EXPECT_EQ(strict.index, kN - 1);
}

TEST(KeepScored, CombinerIsAssociativeWithEmptyIdentity) {
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
