// End-to-end integration: full synthesis runs on the paper's benchmark
// suite, checked for feasibility, functional correctness and the paper's
// qualitative claims (power-opt beats area-opt on power; hierarchical
// synthesis explores fewer candidates than flattened).
#include <gtest/gtest.h>

#include "benchmarks/benchmarks.h"
#include "power/rtlsim.h"
#include "synth/synthesizer.h"

namespace hsyn {
namespace {

SynthOptions quick_opts() {
  SynthOptions o;
  o.max_passes = 3;
  o.max_moves_per_pass = 8;
  o.max_candidates = 12;
  o.trace_samples = 16;
  o.max_clocks = 3;
  return o;
}

struct Case {
  std::string name;
  Objective obj;
  Mode mode;
};

// Without a printer gtest lists the raw bytes of a Case, which include the
// string's heap pointer, so the listed test names change from run to run.
void PrintTo(const Case& c, std::ostream* os) {
  *os << "(" << c.name << ", " << objective_name(c.obj) << ", "
      << mode_name(c.mode) << ")";
}

class FullSynthesis : public ::testing::TestWithParam<Case> {};

TEST_P(FullSynthesis, SucceedsAndVerifies) {
  const Case c = GetParam();
  const Library lib = default_library();
  const Benchmark bench = make_benchmark(c.name, lib);
  const double ts = 2.2 * min_sample_period_ns(bench.design, lib);
  const SynthResult r = synthesize(bench.design, lib, &bench.clib, ts, c.obj,
                                   c.mode, quick_opts());
  ASSERT_TRUE(r.ok) << r.fail_reason;
  EXPECT_LE(r.makespan, r.deadline_cycles);
  EXPECT_GT(r.area, 0);
  EXPECT_GT(r.power, 0);
  EXPECT_NO_THROW(r.dp.validate(lib));

  const Trace trace = make_trace(
      c.mode == Mode::Flattened ? r.dp.behaviors[0].dfg->num_inputs()
                                : bench.design.top().num_inputs(),
      12, 17);
  const RtlSimResult sim = simulate_rtl(r.dp, 0, trace, lib, r.pt);
  EXPECT_TRUE(sim.ok) << (sim.violations.empty() ? "" : sim.violations[0]);
}

std::vector<Case> all_cases() {
  std::vector<Case> cases;
  for (const char* n : {"iir", "lat", "test1"}) {
    for (const Objective obj : {Objective::Area, Objective::Power}) {
      for (const Mode mode : {Mode::Hierarchical, Mode::Flattened}) {
        cases.push_back({n, obj, mode});
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, FullSynthesis, ::testing::ValuesIn(all_cases()),
    [](const ::testing::TestParamInfo<Case>& info) {
      return info.param.name + "_" + objective_name(info.param.obj) + "_" +
             mode_name(info.param.mode);
    });

TEST(Integration, PowerOptBeatsAreaOptOnPowerAcrossSuite) {
  const Library lib = default_library();
  int wins = 0, total = 0;
  for (const char* name : {"iir", "test1"}) {
    const Benchmark bench = make_benchmark(name, lib);
    const double ts = 2.2 * min_sample_period_ns(bench.design, lib);
    const SynthResult a = synthesize(bench.design, lib, &bench.clib, ts,
                                     Objective::Area, Mode::Hierarchical,
                                     quick_opts());
    const SynthResult p = synthesize(bench.design, lib, &bench.clib, ts,
                                     Objective::Power, Mode::Hierarchical,
                                     quick_opts());
    ASSERT_TRUE(a.ok && p.ok) << name;
    ++total;
    wins += p.power < a.power ? 1 : 0;
  }
  EXPECT_EQ(wins, total);
}

TEST(Integration, HierarchicalFasterThanFlattened) {
  // The paper's headline efficiency claim (Table 4 reports 2.6-3.3x) at
  // the engine's default per-pass budgets, which scale with the number
  // of movable objects. Wall-clock comparisons are noisy in CI, so only
  // a weak margin is required.
  const Library lib = default_library();
  const Benchmark bench = make_benchmark("avenhaus_cascade", lib);
  const double ts = 2.2 * min_sample_period_ns(bench.design, lib);
  const SynthOptions opts;  // defaults
  const SynthResult hier = synthesize(bench.design, lib, &bench.clib, ts,
                                      Objective::Area, Mode::Hierarchical, opts);
  const SynthResult flat = synthesize(bench.design, lib, &bench.clib, ts,
                                      Objective::Area, Mode::Flattened, opts);
  ASSERT_TRUE(hier.ok && flat.ok);
  EXPECT_LT(hier.synth_seconds, flat.synth_seconds);
}

TEST(Integration, HierAreaWithinRangeOfFlat) {
  const Library lib = default_library();
  const Benchmark bench = make_benchmark("iir", lib);
  const double ts = 2.2 * min_sample_period_ns(bench.design, lib);
  const SynthResult hier = synthesize(bench.design, lib, &bench.clib, ts,
                                      Objective::Area, Mode::Hierarchical,
                                      quick_opts());
  const SynthResult flat = synthesize(bench.design, lib, &bench.clib, ts,
                                      Objective::Area, Mode::Flattened,
                                      quick_opts());
  ASSERT_TRUE(hier.ok && flat.ok);
  // Paper Table 3: hierarchical area stays within ~1.5x of flattened.
  EXPECT_LT(hier.area, flat.area * 1.6);
}

}  // namespace
}  // namespace hsyn
