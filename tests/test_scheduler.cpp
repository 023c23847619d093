#include <gtest/gtest.h>

#include "benchmarks/benchmarks.h"
#include "sched/scheduler.h"
#include "synth/initial.h"

namespace hsyn {
namespace {

const OpPoint kRef{5.0, 20.0};

SynthContext make_cx(const Design* design, const Library& lib) {
  SynthContext cx;
  cx.design = design;
  cx.lib = &lib;
  cx.pt = kRef;
  cx.deadline = kNoDeadline;
  return cx;
}

struct Fixture {
  Library lib = default_library();
  Design design;

  explicit Fixture(Dfg dfg) {
    const std::string name = dfg.name();
    design.add_behavior(std::move(dfg));
    design.set_top(name);
    design.validate();
  }

  Datapath initial() {
    SynthContext cx = make_cx(&design, lib);
    return initial_solution(design.top(), design.top_name(), cx);
  }
};

Dfg two_adds_series() {
  Dfg d("series", 3, 1);
  const int a1 = d.add_node(Op::Add);
  const int a2 = d.add_node(Op::Add);
  d.connect({kPrimaryIn, 0}, {{a1, 0}});
  d.connect({kPrimaryIn, 1}, {{a1, 1}});
  d.connect({kPrimaryIn, 2}, {{a2, 1}});
  d.connect({a1, 0}, {{a2, 0}});
  d.connect({a2, 0}, {{kPrimaryOut, 0}});
  d.validate();
  return d;
}

TEST(Scheduler, SerialDependencyTiming) {
  Fixture f(two_adds_series());
  Datapath dp = f.initial();
  const SchedResult r = schedule_datapath(dp, f.lib, kRef, kNoDeadline);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.makespan, 2);  // add1 (1 cycle) twice in series
  EXPECT_EQ(dp.behaviors[0].inv_start[0], 0);
  EXPECT_EQ(dp.behaviors[0].inv_start[1], 1);
}

TEST(Scheduler, DeadlineViolationReported) {
  Fixture f(two_adds_series());
  Datapath dp = f.initial();
  const SchedResult r = schedule_datapath(dp, f.lib, kRef, 1);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.makespan, 2);
  EXPECT_NE(r.reason.find("deadline"), std::string::npos);
}

TEST(Scheduler, SharedUnitSerializes) {
  // Two independent adds on one unit must execute one after the other.
  Dfg d("par", 4, 2);
  const int a1 = d.add_node(Op::Add);
  const int a2 = d.add_node(Op::Add);
  d.connect({kPrimaryIn, 0}, {{a1, 0}});
  d.connect({kPrimaryIn, 1}, {{a1, 1}});
  d.connect({kPrimaryIn, 2}, {{a2, 0}});
  d.connect({kPrimaryIn, 3}, {{a2, 1}});
  d.connect({a1, 0}, {{kPrimaryOut, 0}});
  d.connect({a2, 0}, {{kPrimaryOut, 1}});
  d.validate();
  Fixture f(std::move(d));
  Datapath dp = f.initial();
  ASSERT_TRUE(schedule_datapath(dp, f.lib, kRef, kNoDeadline).ok);
  EXPECT_EQ(dp.behaviors[0].makespan, 1);  // parallel units

  // Merge both invocations onto unit 0.
  dp.behaviors[0].invs[1].unit.idx = 0;
  dp.prune_unused();
  const SchedResult r = schedule_datapath(dp, f.lib, kRef, kNoDeadline);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.makespan, 2);  // serialized
  EXPECT_NE(dp.behaviors[0].inv_start[0], dp.behaviors[0].inv_start[1]);
}

TEST(Scheduler, MultiCycleUnitOccupies) {
  // Two mults sharing one mult1 (3 cycles each): second starts at 3.
  Dfg d("mm", 4, 2);
  const int m1 = d.add_node(Op::Mult);
  const int m2 = d.add_node(Op::Mult);
  d.connect({kPrimaryIn, 0}, {{m1, 0}});
  d.connect({kPrimaryIn, 1}, {{m1, 1}});
  d.connect({kPrimaryIn, 2}, {{m2, 0}});
  d.connect({kPrimaryIn, 3}, {{m2, 1}});
  d.connect({m1, 0}, {{kPrimaryOut, 0}});
  d.connect({m2, 0}, {{kPrimaryOut, 1}});
  d.validate();
  Fixture f(std::move(d));
  Datapath dp = f.initial();
  dp.behaviors[0].invs[1].unit.idx = dp.behaviors[0].invs[0].unit.idx;
  dp.prune_unused();
  const SchedResult r = schedule_datapath(dp, f.lib, kRef, kNoDeadline);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.makespan, 6);
}

TEST(Scheduler, RegisterSharingOrdersWriteAfterRead) {
  // v1 = a+b feeds the mult; v2 = c+d written into the same register as
  // v1 must wait until the mult has read v1.
  Dfg d("war", 4, 2);
  const int a1 = d.add_node(Op::Add);
  const int m = d.add_node(Op::Mult);
  const int a2 = d.add_node(Op::Add);
  d.connect({kPrimaryIn, 0}, {{a1, 0}});
  d.connect({kPrimaryIn, 1}, {{a1, 1}});
  const int v1 = d.connect({a1, 0}, {{m, 0}, {m, 1}});
  d.connect({kPrimaryIn, 2}, {{a2, 0}});
  d.connect({kPrimaryIn, 3}, {{a2, 1}});
  const int v2 = d.connect({a2, 0}, {{kPrimaryOut, 1}});
  d.connect({m, 0}, {{kPrimaryOut, 0}});
  d.validate();
  Fixture f(std::move(d));
  Datapath dp = f.initial();
  ASSERT_TRUE(schedule_datapath(dp, f.lib, kRef, kNoDeadline).ok);

  // Share one register between v1 and v2.
  BehaviorImpl& bi = dp.behaviors[0];
  bi.edge_reg[static_cast<std::size_t>(v2)] =
      bi.edge_reg[static_cast<std::size_t>(v1)];
  dp.prune_unused();
  const SchedResult r = schedule_datapath(dp, f.lib, kRef, kNoDeadline);
  ASSERT_TRUE(r.ok);
  // Write of v2 (end of a2) must come after the mult's read of v1
  // (mult start). a2 finishes at start+1 > mult start.
  const int mult_start = bi.inv_start[bi.inv_of(m)];
  const int a2_end = bi.inv_start[bi.inv_of(a2)] + 1;
  EXPECT_GT(a2_end, mult_start);
}

TEST(Scheduler, TwoPrimaryOutputsCannotShareRegister) {
  Dfg d("po", 2, 2);
  const int a1 = d.add_node(Op::Add);
  const int a2 = d.add_node(Op::Add);
  d.connect({kPrimaryIn, 0}, {{a1, 0}, {a2, 1}});
  d.connect({kPrimaryIn, 1}, {{a1, 1}, {a2, 0}});
  const int v1 = d.connect({a1, 0}, {{kPrimaryOut, 0}});
  const int v2 = d.connect({a2, 0}, {{kPrimaryOut, 1}});
  d.validate();
  Fixture f(std::move(d));
  Datapath dp = f.initial();
  BehaviorImpl& bi = dp.behaviors[0];
  bi.edge_reg[static_cast<std::size_t>(v2)] =
      bi.edge_reg[static_cast<std::size_t>(v1)];
  dp.prune_unused();
  EXPECT_FALSE(schedule_datapath(dp, f.lib, kRef, kNoDeadline).ok);
}

TEST(Scheduler, ChildProfileAlignsParentSchedule) {
  const Library lib = default_library();
  const Benchmark bench = make_benchmark("iir", lib);
  SynthContext cx = make_cx(&bench.design, lib);
  cx.clib = &bench.clib;
  Datapath dp = initial_solution(bench.design.top(), "iir", cx);
  const SchedResult r = schedule_datapath(dp, lib, kRef, kNoDeadline);
  ASSERT_TRUE(r.ok);
  // Three cascaded biquads: each starts when the previous y is ready.
  const BehaviorImpl& bi = dp.behaviors[0];
  ASSERT_EQ(bi.invs.size(), 3u);
  EXPECT_LT(bi.inv_start[0], bi.inv_start[1]);
  EXPECT_LT(bi.inv_start[1], bi.inv_start[2]);
}

TEST(Scheduler, AlapBoundsRespectAsap) {
  const Library lib = default_library();
  Design design;
  design.add_behavior(make_paulin_iter("paulin"));
  design.set_top("paulin");
  design.validate();
  SynthContext cx = make_cx(&design, lib);
  Datapath dp = initial_solution(design.top(), "paulin", cx);
  ASSERT_TRUE(schedule_datapath(dp, lib, kRef, kNoDeadline).ok);
  const int deadline = dp.behaviors[0].makespan + 4;
  const auto alap = alap_starts(dp, 0, lib, kRef, deadline);
  ASSERT_EQ(alap.size(), dp.behaviors[0].invs.size());
  for (std::size_t i = 0; i < alap.size(); ++i) {
    EXPECT_GE(alap[i], dp.behaviors[0].inv_start[i]) << "inv " << i;
  }
}

TEST(Scheduler, StaggeredInputArrivalsDelayStart) {
  Fixture f(two_adds_series());
  Datapath dp = f.initial();
  dp.behaviors[0].input_arrival = {0, 0, 5};  // c arrives late
  const SchedResult r = schedule_datapath(dp, f.lib, kRef, kNoDeadline);
  ASSERT_TRUE(r.ok);
  // a2 needs input c at cycle 5.
  EXPECT_GE(dp.behaviors[0].inv_start[1], 5);
  EXPECT_EQ(r.makespan, 6);
}

TEST(Scheduler, ChildLacksBehaviorNamesIt) {
  const Library lib = default_library();
  const Benchmark bench = make_benchmark("iir", lib);
  SynthContext cx = make_cx(&bench.design, lib);
  cx.clib = &bench.clib;
  Datapath dp = initial_solution(bench.design.top(), "iir", cx);
  ASSERT_TRUE(schedule_datapath(dp, lib, kRef, kNoDeadline).ok);
  // The child still counts as scheduled; its behavior just has another
  // name now, so the parent's invocation cannot find it.
  Datapath& child = dp.mut_child(0);
  const std::string wanted = child.behaviors[0].behavior;
  child.behaviors[0].behavior = "renamed";
  try {
    (void)schedule_datapath(dp, lib, kRef, kNoDeadline);
    FAIL() << "expected a throw";
  } catch (const std::logic_error& e) {
    EXPECT_EQ(std::string(e.what()),
              "hsyn check failed: scheduler: child lacks behavior " + wanted);
  }
}

TEST(Scheduler, OutOfRangeIndicesThrow) {
  // Corrupt bindings must fail a check, never index out of bounds.
  Fixture f(two_adds_series());
  Datapath good = f.initial();
  ASSERT_TRUE(schedule_datapath(good, f.lib, kRef, kNoDeadline).ok);
  auto expect_throw = [&](const char* what, auto corrupt) {
    Datapath dp = good;
    corrupt(dp.behaviors[0]);
    EXPECT_THROW((void)schedule_datapath(dp, f.lib, kRef, kNoDeadline),
                 std::logic_error)
        << what;
    EXPECT_THROW((void)alap_starts(dp, 0, f.lib, kRef, 10), std::logic_error)
        << what;
  };
  expect_throw("fu past the end", [](BehaviorImpl& bi) { bi.invs[0].unit.idx = 99; });
  expect_throw("negative fu", [](BehaviorImpl& bi) { bi.invs[1].unit.idx = -3; });
  expect_throw("missing child", [](BehaviorImpl& bi) {
    bi.invs[0].unit = {UnitRef::Kind::Child, 0};
  });
  expect_throw("register past the end", [](BehaviorImpl& bi) {
    for (int& r : bi.edge_reg) {
      if (r >= 0) r = 1000;
    }
  });
  expect_throw("short edge_reg", [](BehaviorImpl& bi) { bi.edge_reg.pop_back(); });
  expect_throw("node bound past the invocations", [](BehaviorImpl& bi) {
    bi.node_inv[0] = 7;
  });
  expect_throw("node id past the dfg", [](BehaviorImpl& bi) {
    bi.invs[0].nodes.push_back(50);
  });
  expect_throw("empty invocation", [](BehaviorImpl& bi) { bi.invs[0].nodes.clear(); });
  expect_throw("missing input arrival", [](BehaviorImpl& bi) {
    bi.input_arrival.clear();
  });

  // Child index past the end on a hierarchical design.
  const Benchmark bench = make_benchmark("iir", f.lib);
  SynthContext cx = make_cx(&bench.design, f.lib);
  cx.clib = &bench.clib;
  Datapath dp = initial_solution(bench.design.top(), "iir", cx);
  dp.behaviors[0].invs[0].unit.idx = 42;
  EXPECT_THROW((void)schedule_datapath(dp, f.lib, kRef, kNoDeadline),
               std::logic_error);
}

}  // namespace
}  // namespace hsyn
