// Portfolio search tests (src/synth/portfolio.h, src/synth/strategy.h):
//
//  * the strategy spec language round-trips and rejects malformed input,
//  * default_portfolio() always leads with the exact baseline replica,
//  * portfolio_synthesize() is bit-identical at 1/2/8 threads, and so
//    is its log,
//  * the best-of can never lose to single-seed synthesize() and ties
//    break toward the baseline (strategy 0),
//  * a tripped CancelToken yields best-so-far exactly once (via the
//    serve::run_job pipeline, the way the daemon exercises it),
//  * the move ledger's per-strategy stamps are thread-count invariant,
//  * a solo job's report is bit-identical while a portfolio hammers the
//    shared pool and caches from another thread (TSan stress).
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "benchmarks/benchmarks.h"
#include "library/library.h"
#include "obs/ledger.h"
#include "runtime/cancel.h"
#include "runtime/thread_pool.h"
#include "serve/jobs.h"
#include "synth/portfolio.h"
#include "synth/strategy.h"
#include "synth/synthesizer.h"
#include "util/log.h"
#include "strip_timing.h"

namespace hsyn {
namespace {

/// The small shared fixture: the "test1" benchmark at the stock laxity.
struct Bench1 {
  Library lib = default_library();
  Benchmark bench = make_benchmark("test1", lib);
  double ts = 2.2 * min_sample_period_ns(bench.design, lib);

  PortfolioResult run(const PortfolioOptions& popts,
                      const SynthOptions& opts = {}) const {
    return portfolio_synthesize(bench.design, lib, &bench.clib, ts,
                                Objective::Power, Mode::Hierarchical, opts,
                                popts);
  }
};

using testing_support::strip_timing;

TEST(Strategy, DefaultIsBaseline) {
  const SearchStrategy s;
  EXPECT_TRUE(s.is_baseline());
  EXPECT_EQ(s.name, "base");
  EXPECT_EQ(s.resynth_head, 2);
  const std::vector<MoveClass> legacy = {MoveClass::Replace, MoveClass::Share,
                                         MoveClass::Split};
  EXPECT_EQ(s.move_order, legacy);
}

TEST(Strategy, DefaultPortfolioLeadsWithBaseline) {
  for (const int n : {1, 4, 7, 10}) {
    const std::vector<SearchStrategy> p =
        default_portfolio(n, Objective::Power);
    ASSERT_EQ(static_cast<int>(p.size()), n);
    EXPECT_TRUE(p[0].is_baseline()) << "n=" << n;
    EXPECT_FALSE(p[0].adaptive);
    for (int i = 0; i < n; ++i) {
      EXPECT_EQ(p[static_cast<std::size_t>(i)].index, i);
      if (i > 0) {
        EXPECT_FALSE(p[static_cast<std::size_t>(i)].is_baseline())
            << "n=" << n << " i=" << i;
        EXPECT_TRUE(p[static_cast<std::size_t>(i)].adaptive);
      }
    }
    // No two strategies may share a name (and therefore a trajectory).
    for (int i = 0; i < n; ++i)
      for (int j = i + 1; j < n; ++j)
        EXPECT_NE(p[static_cast<std::size_t>(i)].name,
                  p[static_cast<std::size_t>(j)].name)
            << "n=" << n;
  }
  EXPECT_TRUE(default_portfolio(0, Objective::Area).empty());
}

TEST(Strategy, ParseSpecAndRoundTrip) {
  std::vector<SearchStrategy> out;
  int rounds = 1;
  std::string err;
  ASSERT_TRUE(parse_strategies(
      "rounds=3;preset=base;"
      "name=mine,order=cad,vdd=desc,clocks=desc,schedule=area-first,warm=2,"
      "seed=99,split=always,passes=5,moves=11,depth=3,resynth-head=4,"
      "adaptive=1",
      Objective::Power, &out, &rounds, &err))
      << err;
  EXPECT_EQ(rounds, 3);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_TRUE(out[0].is_baseline());
  const SearchStrategy& m = out[1];
  EXPECT_EQ(m.name, "mine");
  const std::vector<MoveClass> cad = {MoveClass::Share, MoveClass::Replace,
                                      MoveClass::Split};
  EXPECT_EQ(m.move_order, cad);
  EXPECT_TRUE(m.reverse_vdds);
  EXPECT_TRUE(m.reverse_clocks);
  EXPECT_EQ(m.schedule, ObjSchedule::AreaFirst);
  EXPECT_EQ(m.warm_passes, 2);
  EXPECT_EQ(m.seed_offset, 99u);
  EXPECT_TRUE(m.always_split);
  EXPECT_EQ(m.max_passes, 5);
  EXPECT_EQ(m.max_moves_per_pass, 11);
  EXPECT_EQ(m.max_resynth_depth, 3);
  EXPECT_EQ(m.resynth_head, 4);
  EXPECT_TRUE(m.adaptive);
  EXPECT_EQ(m.index, 1);

  // strategy_to_string must reparse to the same strategy.
  std::vector<SearchStrategy> again;
  ASSERT_TRUE(parse_strategies(strategy_to_string(m), Objective::Power, &again,
                               nullptr, &err))
      << err;
  ASSERT_EQ(again.size(), 1u);
  const SearchStrategy& r = again[0];
  EXPECT_EQ(r.name, m.name);
  EXPECT_EQ(r.move_order, m.move_order);
  EXPECT_EQ(r.reverse_vdds, m.reverse_vdds);
  EXPECT_EQ(r.reverse_clocks, m.reverse_clocks);
  EXPECT_EQ(r.schedule, m.schedule);
  EXPECT_EQ(r.warm_passes, m.warm_passes);
  EXPECT_EQ(r.seed_offset, m.seed_offset);
  EXPECT_EQ(r.always_split, m.always_split);
  EXPECT_EQ(r.max_passes, m.max_passes);
  EXPECT_EQ(r.max_moves_per_pass, m.max_moves_per_pass);
  EXPECT_EQ(r.max_resynth_depth, m.max_resynth_depth);
  EXPECT_EQ(r.resynth_head, m.resynth_head);
  EXPECT_EQ(r.adaptive, m.adaptive);

  // Every stock preset renders and round-trips, too.
  for (const char* preset :
       {"base", "share-first", "rev-probe", "obj-flip", "split-happy", "deep",
        "jitter"}) {
    std::vector<SearchStrategy> p;
    ASSERT_TRUE(parse_strategies(std::string("preset=") + preset,
                                 Objective::Area, &p, nullptr, &err))
        << err;
    ASSERT_EQ(p.size(), 1u);
    std::vector<SearchStrategy> q;
    ASSERT_TRUE(parse_strategies(strategy_to_string(p[0]), Objective::Area, &q,
                                 nullptr, &err))
        << preset << ": " << err;
    EXPECT_EQ(strategy_to_string(q[0]), strategy_to_string(p[0])) << preset;
  }
}

TEST(Strategy, ParseRejectsMalformedSpecs) {
  std::vector<SearchStrategy> out;
  std::string err;
  const char* bad[] = {
      "",                      // no strategies at all
      "preset=bogus",          // unknown preset
      "order=xyz",             // unknown move-class letters
      "order=",                // empty order
      "frob=1",                // unknown key
      "vdd=up",                // bad enum
      "schedule=sideways",     // bad enum
      "warm=-1",               // negative int
      "passes=notanumber",     // not an int
      "rounds=0",              // rounds below 1
      "adaptive=yes",          // bad bool
      "name",                  // no '='
  };
  for (const char* spec : bad) {
    err.clear();
    EXPECT_FALSE(parse_strategies(spec, Objective::Power, &out, nullptr, &err))
        << "spec '" << spec << "' should have been rejected";
    EXPECT_FALSE(err.empty()) << spec;
  }
}

TEST(Portfolio, PriorMoveOrderFromStats) {
  // Zero stats: the legacy order itself (stable sort over full ties).
  ImproveStats zero;
  const std::vector<MoveClass> legacy = {MoveClass::Replace, MoveClass::Share,
                                         MoveClass::Split};
  EXPECT_EQ(prior_move_order(zero), legacy);

  // Accepted gain dominates: Share earned the most, Split second.
  ImproveStats gains;
  gains.by_class[static_cast<std::size_t>(MoveClass::Share)] = {10, 5, 100.0};
  gains.by_class[static_cast<std::size_t>(MoveClass::Split)] = {10, 9, 50.0};
  gains.by_class[static_cast<std::size_t>(MoveClass::Replace)] = {10, 1, 1.0};
  const std::vector<MoveClass> want = {MoveClass::Share, MoveClass::Split,
                                       MoveClass::Replace};
  EXPECT_EQ(prior_move_order(gains), want);

  // Equal gain: the accept rate breaks the tie.
  ImproveStats rate;
  rate.by_class[static_cast<std::size_t>(MoveClass::Replace)] = {10, 2, 5.0};
  rate.by_class[static_cast<std::size_t>(MoveClass::Split)] = {10, 8, 5.0};
  const std::vector<MoveClass> want2 = {MoveClass::Split, MoveClass::Replace,
                                        MoveClass::Share};
  EXPECT_EQ(prior_move_order(rate), want2);
}

TEST(Portfolio, NeverWorseThanSingleSeedAndBaselineReplicaExact) {
  const Bench1 f;
  const SynthResult solo =
      synthesize(f.bench.design, f.lib, &f.bench.clib, f.ts, Objective::Power,
                 Mode::Hierarchical);
  ASSERT_TRUE(solo.ok) << solo.fail_reason;

  PortfolioOptions popts;
  popts.num_strategies = 4;
  const PortfolioResult pr = f.run(popts);
  ASSERT_TRUE(pr.best.ok) << pr.best.fail_reason;
  ASSERT_EQ(pr.reports.size(), 4u);
  ASSERT_GE(pr.winner, 0);

  // Strategy 0 is an exact replica of the single-seed engine: same
  // solution doubles, bit for bit. (Its report tallies moves across
  // every probed operating point, so they bound the winner's tallies
  // from above rather than equal them.)
  const StrategyReport& base = pr.reports[0];
  ASSERT_TRUE(base.ok);
  EXPECT_TRUE(base.strategy.is_baseline());
  EXPECT_EQ(base.area, solo.area);
  EXPECT_EQ(base.power, solo.power);
  EXPECT_GE(base.stats.moves_applied, solo.stats.moves_applied);
  EXPECT_GE(base.stats.moves_kept, solo.stats.moves_kept);

  // ...so the portfolio best can never lose to single-seed.
  EXPECT_LE(pr.best.power, solo.power);

  // A one-strategy portfolio IS the single-seed engine: the returned
  // best matches solo bit for bit, including the winner's move tallies.
  PortfolioOptions one;
  one.num_strategies = 1;
  const PortfolioResult lone = f.run(one);
  ASSERT_TRUE(lone.best.ok) << lone.best.fail_reason;
  EXPECT_EQ(lone.winner, 0);
  EXPECT_EQ(lone.best.area, solo.area);
  EXPECT_EQ(lone.best.energy, solo.energy);
  EXPECT_EQ(lone.best.power, solo.power);
  EXPECT_EQ(lone.best.makespan, solo.makespan);
  EXPECT_EQ(lone.best.stats.moves_applied, solo.stats.moves_applied);
  EXPECT_EQ(lone.best.stats.moves_kept, solo.stats.moves_kept);

  // The per-class counters partition the total applied-move count.
  for (const StrategyReport& rep : pr.reports) {
    if (!rep.ok) continue;
    int applied = 0;
    for (const MoveClassCounters& k : rep.stats.by_class) applied += k.applied;
    EXPECT_EQ(applied, rep.stats.moves_applied) << rep.strategy.name;
  }
}

TEST(Portfolio, BitIdenticalAcrossThreadCounts) {
  const Bench1 f;
  PortfolioOptions popts;
  popts.num_strategies = 4;
  popts.rounds = 2;

  std::vector<PortfolioResult> runs;
  for (const int threads : {1, 2, 8}) {
    runtime::set_threads(threads);
    runs.push_back(f.run(popts));
    ASSERT_TRUE(runs.back().best.ok) << "threads=" << threads;
  }
  runtime::set_threads(0);

  const PortfolioResult& ref = runs.front();
  ASSERT_EQ(ref.reports.size(), 8u);  // 4 strategies x 2 rounds
  for (std::size_t i = 1; i < runs.size(); ++i) {
    const PortfolioResult& pr = runs[i];
    EXPECT_EQ(pr.winner, ref.winner);
    EXPECT_EQ(pr.best.area, ref.best.area);
    EXPECT_EQ(pr.best.energy, ref.best.energy);
    EXPECT_EQ(pr.best.power, ref.best.power);
    EXPECT_EQ(pr.prior_order, ref.prior_order);
    // The whole outcome table, byte for byte.
    EXPECT_EQ(pr.summary_table(), ref.summary_table());
  }
}

TEST(Portfolio, VerboseLogIdenticalAcrossThreadCounts) {
  // Each strategy's log lines are captured on its lane and written in
  // strategy order, so --verbose output is the same at any thread count
  // (and all of it reaches the calling thread's capture).
  const Bench1 f;
  PortfolioOptions popts;
  popts.num_strategies = 3;
  const LogLevel prev = log_level();
  set_log_level(LogLevel::Info);
  std::vector<std::string> logs;
  for (const int threads : {1, 4}) {
    runtime::set_threads(threads);
    std::string log;
    {
      const LogCapture capture(&log);
      ASSERT_TRUE(f.run(popts).best.ok) << "threads=" << threads;
    }
    logs.push_back(std::move(log));
  }
  runtime::set_threads(0);
  set_log_level(prev);
  ASSERT_NE(logs[0].find("] pass "), std::string::npos) << logs[0];
  EXPECT_TRUE(logs[1] == logs[0]) << "threads=1:\n"
                                  << logs[0] << "threads=4:\n"
                                  << logs[1];
}

TEST(Portfolio, TieBreaksTowardLowestStrategyIndex) {
  const Bench1 f;
  // Two identical baselines: trajectories tie exactly, so the explicit
  // (cost, index) comparator must pick strategy 0.
  PortfolioOptions popts;
  std::string err;
  ASSERT_TRUE(parse_strategies("name=first;name=second", Objective::Power,
                               &popts.strategies, nullptr, &err))
      << err;
  const PortfolioResult pr = f.run(popts);
  ASSERT_TRUE(pr.best.ok) << pr.best.fail_reason;
  ASSERT_EQ(pr.reports.size(), 2u);
  EXPECT_EQ(pr.reports[0].cost, pr.reports[1].cost);
  EXPECT_EQ(pr.winner, 0);
  EXPECT_TRUE(pr.reports[0].winner);
  EXPECT_FALSE(pr.reports[1].winner);
}

TEST(PortfolioCancel, PreTrippedTokenFailsWithoutResult) {
  const Bench1 f;
  SynthOptions opts;
  opts.cancel = std::make_shared<runtime::CancelToken>();
  opts.cancel->request("client cancel");
  PortfolioOptions popts;
  popts.num_strategies = 2;
  const PortfolioResult pr = f.run(popts, opts);
  EXPECT_TRUE(pr.cancelled);
  EXPECT_FALSE(pr.best.ok);
  EXPECT_EQ(pr.winner, -1);
  EXPECT_EQ(pr.cancel_reason, "client cancel");
  EXPECT_EQ(pr.best.fail_reason, "cancelled before any strategy finished");
}

TEST(PortfolioCancel, MidRunReturnsBestSoFarExactlyOnce) {
  // Through run_job (the daemon's pipeline): round 1 completes, the
  // token trips on its first round-boundary progress event, round 2
  // aborts -- the outcome must carry the round-1 best with ok=true and
  // cancelled=true, and the solution appears exactly once.
  serve::JobSpec spec;
  spec.benchmark = "test1";
  spec.verify = false;
  spec.portfolio = 2;
  spec.portfolio_rounds = 3;

  serve::JobHooks hooks;
  hooks.cancel = std::make_shared<runtime::CancelToken>();
  int strategy_events = 0;
  hooks.progress = [&](const SynthProgress& ev) {
    if (ev.stage == SynthProgress::Stage::Strategy) {
      ++strategy_events;
      hooks.cancel->request("budget spent");
    }
  };
  const serve::JobOutcome out = serve::run_job(spec, hooks);
  EXPECT_TRUE(out.cancelled);
  EXPECT_EQ(out.error, "budget spent");
  ASSERT_TRUE(out.ok) << out.error;  // best-so-far, not a failure
  ASSERT_TRUE(out.result);
  EXPECT_TRUE(out.result->ok);
  EXPECT_GT(out.area, 0);
  EXPECT_GT(out.power, 0);
  // Round 1's boundary events fired; the cancelled rounds emitted none.
  EXPECT_EQ(strategy_events, 2);
  // The report shows both the completed and the cancelled rows, and no
  // third round ever started.
  EXPECT_NE(out.report.find("cancelled"), std::string::npos);
  EXPECT_EQ(out.report.find("synthesis failed"), std::string::npos);
}

TEST(PortfolioLedger, StrategyStampsThreadCountInvariant) {
  const Bench1 f;
  obs::MoveLedger& led = obs::MoveLedger::instance();
  PortfolioOptions popts;
  popts.num_strategies = 3;

  std::vector<std::string> jsonl;
  for (const int threads : {1, 8}) {
    runtime::set_threads(threads);
    led.reset();
    led.set_enabled(true);
    const PortfolioResult pr = f.run(popts);
    led.set_enabled(false);
    ASSERT_TRUE(pr.best.ok) << "threads=" << threads;
    jsonl.push_back(led.to_jsonl(/*include_timing=*/false));
    if (threads == 1) {
      // The per-strategy rollup sees each explorer under its own key.
      const auto by_strategy = led.summary_by_strategy();
      for (const int s : {0, 1, 2}) {
        EXPECT_TRUE(by_strategy.count(s)) << "strategy " << s;
      }
    }
    led.reset();
  }
  runtime::set_threads(0);

  // Composite group ids order records by (strategy, sequence), so the
  // merged export is byte-identical at any thread count.
  EXPECT_FALSE(jsonl[0].empty());
  EXPECT_EQ(jsonl[0], jsonl[1]);
  // Every explorer left its stamp.
  for (const int s : {0, 1, 2}) {
    EXPECT_NE(jsonl[0].find("\"strategy\":" + std::to_string(s)),
              std::string::npos)
        << "strategy " << s;
  }
}

// TSan stress: a 4-strategy portfolio and a solo job race on the shared
// thread pool and eval caches; the solo job's report must come out
// bit-identical to an uncontended run (the caches change speed, never
// results), with no data races flagged.
TEST(PortfolioStress, SoloReportBitIdenticalUnderConcurrentPortfolio) {
  serve::JobSpec solo_spec;
  solo_spec.benchmark = "test1";
  solo_spec.verify = false;

  serve::JobHooks quiet_hooks;
  quiet_hooks.job_id = 501;
  const serve::JobOutcome quiet = serve::run_job(solo_spec, quiet_hooks);
  ASSERT_TRUE(quiet.ok) << quiet.error;

  serve::JobSpec pf_spec = solo_spec;
  pf_spec.portfolio = 4;
  pf_spec.seed = 7;  // a different stream, sharing the caches

  serve::JobOutcome contended;
  serve::JobOutcome pf;
  std::thread pf_thread([&] {
    serve::JobHooks hooks;
    hooks.job_id = 502;
    pf = serve::run_job(pf_spec, hooks);
  });
  {
    serve::JobHooks hooks;
    hooks.job_id = 503;
    contended = serve::run_job(solo_spec, hooks);
  }
  pf_thread.join();

  ASSERT_TRUE(pf.ok) << pf.error;
  ASSERT_TRUE(contended.ok) << contended.error;
  EXPECT_EQ(strip_timing(contended.report), strip_timing(quiet.report));
  EXPECT_EQ(contended.area, quiet.area);
  EXPECT_EQ(contended.power, quiet.power);
}

}  // namespace
}  // namespace hsyn
