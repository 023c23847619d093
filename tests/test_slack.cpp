#include <gtest/gtest.h>

#include "benchmarks/benchmarks.h"
#include "sched/scheduler.h"
#include "sched/slack.h"
#include "synth/initial.h"

namespace hsyn {
namespace {

const OpPoint kRef{5.0, 20.0};

/// ALAP starts of the top behavior against `deadline`, as a move
/// selection passes them to the derivations.
std::vector<int> alap_at(const Datapath& dp, const Library& lib, int deadline) {
  return alap_starts(dp, 0, lib, kRef, deadline);
}

TEST(Slack, FuBudgetGrowsWithDeadline) {
  const Library lib = default_library();
  Design design;
  design.add_behavior(make_paulin_iter("paulin"));
  design.set_top("paulin");
  design.validate();
  SynthContext cx;
  cx.design = &design;
  cx.lib = &lib;
  cx.pt = kRef;
  Datapath dp = initial_solution(design.top(), "paulin", cx);
  ASSERT_TRUE(schedule_datapath(dp, lib, kRef, kNoDeadline).ok);
  const int makespan = dp.behaviors[0].makespan;

  // Pick the x1 = x + dx adder: off the long multiply chain, so at a
  // relaxed deadline it has a generous latency budget.
  int add_inv = -1;
  for (std::size_t i = 0; i < dp.behaviors[0].invs.size(); ++i) {
    if (dp.behaviors[0].dfg->node(dp.behaviors[0].invs[i].nodes[0]).label ==
        "x1") {
      add_inv = static_cast<int>(i);
    }
  }
  ASSERT_GE(add_inv, 0);

  const auto tight =
      derive_fu_latency_budget(dp, 0, add_inv, alap_at(dp, lib, makespan), lib,
                               kRef, makespan);
  const auto loose =
      derive_fu_latency_budget(dp, 0, add_inv, alap_at(dp, lib, makespan + 6),
                               lib, kRef, makespan + 6);
  ASSERT_TRUE(tight.has_value());
  ASSERT_TRUE(loose.has_value());
  EXPECT_GE(*loose, *tight + 6);
  // Current latency (1 cycle) always fits its own schedule.
  EXPECT_GE(*tight, 1);
}

TEST(Slack, ChildConstraintReflectsEnvironment) {
  // Mirrors Example 2: a module whose output is consumed late can have
  // its output deadline relaxed well beyond its current profile.
  const Library lib = default_library();
  const Benchmark bench = make_benchmark("test1", lib);
  SynthContext cx;
  cx.design = &bench.design;
  cx.lib = &lib;
  cx.clib = &bench.clib;
  cx.pt = kRef;
  Datapath dp = initial_solution(bench.design.top(), "test1", cx);
  ASSERT_TRUE(schedule_datapath(dp, lib, kRef, kNoDeadline).ok);
  const int makespan = dp.behaviors[0].makespan;
  const int deadline = makespan + 5;

  for (std::size_t c = 0; c < dp.children.size(); ++c) {
    const auto mc = derive_child_constraint(dp, 0, static_cast<int>(c),
                                            alap_at(dp, lib, deadline), lib, kRef,
                                            deadline);
    ASSERT_TRUE(mc.has_value()) << "child " << c;
    const Profile p = dp.children[c].impl->profile(0, lib, kRef);
    // The current profile must satisfy the derived constraint (the
    // schedule is feasible as-is).
    ASSERT_EQ(mc->out_deadline.size(), p.out.size());
    for (std::size_t j = 0; j < p.out.size(); ++j) {
      EXPECT_GE(mc->out_deadline[j], p.out[j]) << "child " << c << " out " << j;
    }
    EXPECT_GE(mc->max_busy, p.makespan());
  }
}

TEST(Slack, RelaxedDeadlinePropagatesToChildren) {
  const Library lib = default_library();
  const Benchmark bench = make_benchmark("iir", lib);
  SynthContext cx;
  cx.design = &bench.design;
  cx.lib = &lib;
  cx.clib = &bench.clib;
  cx.pt = kRef;
  Datapath dp = initial_solution(bench.design.top(), "iir", cx);
  ASSERT_TRUE(schedule_datapath(dp, lib, kRef, kNoDeadline).ok);
  const int makespan = dp.behaviors[0].makespan;

  // The last biquad in the cascade absorbs all added slack.
  const BehaviorImpl& bi = dp.behaviors[0];
  int last_child = -1;
  int last_start = -1;
  for (std::size_t i = 0; i < bi.invs.size(); ++i) {
    if (bi.inv_start[i] > last_start) {
      last_start = bi.inv_start[i];
      last_child = bi.invs[i].unit.idx;
    }
  }
  const auto tight =
      derive_child_constraint(dp, 0, last_child, alap_at(dp, lib, makespan), lib,
                              kRef, makespan);
  const auto loose =
      derive_child_constraint(dp, 0, last_child, alap_at(dp, lib, makespan + 10),
                              lib, kRef, makespan + 10);
  ASSERT_TRUE(tight && loose);
  EXPECT_EQ(loose->out_deadline[0], tight->out_deadline[0] + 10);
}

TEST(Slack, UnusedChildYieldsNullopt) {
  const Library lib = default_library();
  const Benchmark bench = make_benchmark("iir", lib);
  SynthContext cx;
  cx.design = &bench.design;
  cx.lib = &lib;
  cx.clib = &bench.clib;
  cx.pt = kRef;
  Datapath dp = initial_solution(bench.design.top(), "iir", cx);
  ASSERT_TRUE(schedule_datapath(dp, lib, kRef, kNoDeadline).ok);
  const auto mc =
      derive_child_constraint(dp, 0, 99, alap_at(dp, lib, 100), lib, kRef, 100);
  EXPECT_FALSE(mc.has_value());
}

TEST(Slack, EmptyAlapYieldsNullopt) {
  // An empty ALAP vector (alap_starts failed) means "no constraint".
  const Library lib = default_library();
  const Benchmark bench = make_benchmark("iir", lib);
  SynthContext cx;
  cx.design = &bench.design;
  cx.lib = &lib;
  cx.clib = &bench.clib;
  cx.pt = kRef;
  Datapath dp = initial_solution(bench.design.top(), "iir", cx);
  ASSERT_TRUE(schedule_datapath(dp, lib, kRef, kNoDeadline).ok);
  const int deadline = dp.behaviors[0].makespan;
  const std::vector<int> none;
  EXPECT_FALSE(
      derive_child_constraint(dp, 0, 0, none, lib, kRef, deadline).has_value());
  EXPECT_FALSE(
      derive_fu_latency_budget(dp, 0, 0, none, lib, kRef, deadline).has_value());
  EXPECT_TRUE(derive_child_constraint(dp, 0, 0, alap_at(dp, lib, deadline), lib,
                                      kRef, deadline)
                  .has_value());
}

}  // namespace
}  // namespace hsyn
