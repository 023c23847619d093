// Tests for the static-analysis framework (src/check/): each check pass
// must detect a targeted corruption by its stable code, pristine designs
// and synthesis results must lint clean, and the move-invariant gate
// must never change synthesis results.
#include <gtest/gtest.h>

#include "benchmarks/benchmarks.h"
#include "check/check.h"
#include "util/log.h"
#include "rtl/controller.h"
#include "runtime/thread_pool.h"
#include "sched/scheduler.h"
#include "synth/initial.h"
#include "synth/synthesizer.h"

namespace hsyn {
namespace {

const OpPoint kRef{5.0, 20.0};

SynthOptions quick_opts() {
  SynthOptions o;
  o.max_passes = 3;
  o.max_moves_per_pass = 8;
  o.max_candidates = 12;
  o.trace_samples = 16;
  o.max_clocks = 3;
  return o;
}

/// A scheduled initial solution for a benchmark, ready to corrupt.
struct Fixture {
  Library lib = default_library();
  Benchmark bench;
  SynthContext cx;
  Datapath dp;

  explicit Fixture(const std::string& name, double laxity = 2.0)
      : bench(make_benchmark(name, lib)) {
    cx.design = &bench.design;
    cx.lib = &lib;
    cx.clib = &bench.clib;
    cx.pt = kRef;
    cx.trace = make_trace(bench.design.top().num_inputs(), 8, 5);
    dp = initial_solution(bench.design.top(), name, cx);
    const SchedResult r = schedule_datapath(dp, lib, kRef, kNoDeadline);
    cx.deadline = static_cast<int>(r.makespan * laxity);
    schedule_datapath(dp, lib, kRef, cx.deadline);
  }

  lint::Report lint() const {
    return lint::lint_datapath(dp, lib, kRef, cx.deadline, &bench.design);
  }
};

// ---- framework basics ----------------------------------------------------

TEST(CheckEngine, RegistersDefaultPassesInOrder) {
  const auto passes = lint::CheckEngine::instance().passes();
  ASSERT_EQ(passes.size(), 10u);
  EXPECT_STREQ(passes[0]->name(), "dfg-wellformed");
  EXPECT_STREQ(passes[1]->name(), "dfg-hierarchy");
  EXPECT_STREQ(passes[2]->name(), "dfg-deadcode");
  EXPECT_STREQ(passes[3]->name(), "dfg-const-fold");
  EXPECT_STREQ(passes[4]->name(), "dfg-range-overflow");
  EXPECT_STREQ(passes[5]->name(), "dfg-width-waste");
  EXPECT_STREQ(passes[6]->name(), "rtl-binding");
  EXPECT_STREQ(passes[7]->name(), "sched-legality");
  EXPECT_STREQ(passes[8]->name(), "ctrl-consistency");
  EXPECT_STREQ(passes[9]->name(), "oppoint-sanity");
}

TEST(CheckEngine, CheapSubsetExcludesControllerPass) {
  for (const lint::Pass* p : lint::CheckEngine::instance().passes()) {
    if (std::string(p->name()) == "ctrl-consistency") {
      EXPECT_FALSE(p->cheap());
    } else {
      EXPECT_TRUE(p->cheap());
    }
  }
}

TEST(Report, CountsSeveritiesAndSerializes) {
  lint::Report rep;
  rep.add("X001", lint::Severity::Error, "here", "broken \"badly\"");
  rep.add("X002", lint::Severity::Warning, "there", "suspicious");
  rep.add("X001", lint::Severity::Error, "again", "still broken");
  EXPECT_FALSE(rep.ok());
  EXPECT_EQ(rep.errors(), 2);
  EXPECT_EQ(rep.warnings(), 1);
  EXPECT_EQ(rep.count("X001"), 2);
  EXPECT_TRUE(rep.has("X002"));
  EXPECT_FALSE(rep.has("X003"));
  const std::string text = rep.to_text();
  EXPECT_NE(text.find("error[X001] here: broken"), std::string::npos);
  EXPECT_NE(text.find("2 error(s), 1 warning(s)"), std::string::npos);
  const std::string json = rep.to_json();
  EXPECT_NE(json.find("\\\"badly\\\""), std::string::npos);
  EXPECT_NE(json.find("\"errors\": 2"), std::string::npos);
}

TEST(CheckMacros, CheckThrowsAndDcheckFollowsBuildType) {
  HSYN_CHECK(2 + 2 == 4, "never fires");
  EXPECT_THROW({ HSYN_CHECK(2 + 2 == 5, "arithmetic broke"); },
               std::logic_error);
#ifdef NDEBUG
  HSYN_DCHECK(false, "compiled out in release builds");
#else
  EXPECT_THROW({ HSYN_DCHECK(false, "fires in debug builds"); },
               std::logic_error);
#endif
}

// ---- dfg-wellformed ------------------------------------------------------

TEST(DfgWellformed, DetectsUndrivenInputPort) {
  Dfg g("g", 1, 1);
  const int n = g.add_node(Op::Add);
  g.connect({kPrimaryIn, 0}, {{n, 0}});
  g.connect({n, 0}, {{kPrimaryOut, 0}});  // input port 1 left undriven
  lint::CheckContext cx;
  cx.dfg = &g;
  const lint::Report rep = lint::CheckEngine::instance().run(cx);
  EXPECT_TRUE(rep.has("DFG001"));
  EXPECT_FALSE(rep.ok());
}

TEST(DfgWellformed, DetectsDanglingEndpointAndCycle) {
  Dfg g("g", 2, 1);
  const int a = g.add_node(Op::Add);
  const int b = g.add_node(Op::Add);
  g.connect({kPrimaryIn, 0}, {{a, 0}});
  g.connect({kPrimaryIn, 1}, {{b, 0}});
  g.connect({a, 0}, {{b, 1}});
  g.connect({b, 0}, {{a, 1}});  // cycle a -> b -> a
  g.connect({a, 0}, {{kPrimaryOut, 0}});
  lint::CheckContext cx;
  cx.dfg = &g;
  const lint::Report rep = lint::CheckEngine::instance().run(cx);
  EXPECT_TRUE(rep.has("DFG003"));
  // DFG006 too: node a output port 0 drives two edges.
  EXPECT_TRUE(rep.has("DFG006"));
}

TEST(DfgWellformed, DetectsUndrivenPrimaryOutput) {
  Dfg g("g", 2, 2);
  const int a = g.add_node(Op::Add);
  g.connect({kPrimaryIn, 0}, {{a, 0}});
  g.connect({kPrimaryIn, 1}, {{a, 1}});
  g.connect({a, 0}, {{kPrimaryOut, 0}});  // out:1 undriven
  lint::CheckContext cx;
  cx.dfg = &g;
  const lint::Report rep = lint::CheckEngine::instance().run(cx);
  EXPECT_TRUE(rep.has("DFG005"));
}

TEST(DfgWellformed, DetectsPortOutOfRangeAndArityMismatch) {
  Dfg g("g", 2, 1);
  const int a = g.add_node(Op::Add);
  g.connect({kPrimaryIn, 0}, {{a, 0}});
  g.connect({kPrimaryIn, 5}, {{a, 1}});  // primary input 5 of 2
  g.connect({a, 0}, {{kPrimaryOut, 0}});
  g.node_mut(a).num_inputs = 3;  // add is binary
  lint::CheckContext cx;
  cx.dfg = &g;
  const lint::Report rep = lint::CheckEngine::instance().run(cx);
  EXPECT_TRUE(rep.has("DFG002"));
  EXPECT_TRUE(rep.has("DFG008"));
}

TEST(DfgWellformed, WarnsOnDanglingEdgeAndUnusedInput) {
  Dfg g("g", 2, 1);
  const int a = g.add_node(Op::Add);
  g.connect({kPrimaryIn, 0}, {{a, 0}});
  g.connect({kPrimaryIn, 0}, {{a, 1}});  // input 1 never used
  g.connect({a, 0}, {{kPrimaryOut, 0}});
  lint::CheckContext cx;
  cx.dfg = &g;
  const lint::Report rep = lint::CheckEngine::instance().run(cx);
  EXPECT_TRUE(rep.has("DFG007"));
  EXPECT_EQ(rep.errors(), 0);  // warnings only
}

// ---- dfg-hierarchy -------------------------------------------------------

namespace {
Dfg leaf_dfg(const std::string& name) {
  Dfg g(name, 2, 1);
  const int a = g.add_node(Op::Add);
  g.connect({kPrimaryIn, 0}, {{a, 0}});
  g.connect({kPrimaryIn, 1}, {{a, 1}});
  g.connect({a, 0}, {{kPrimaryOut, 0}});
  return g;
}
}  // namespace

TEST(DfgHierarchy, DetectsUnknownBehaviorAndArityMismatch) {
  Design d;
  d.add_behavior(leaf_dfg("leaf"));
  Dfg top("top", 3, 2);
  const int h1 = top.add_hier_node("ghost", 2, 1);   // unregistered
  const int h2 = top.add_hier_node("leaf", 3, 1);    // leaf takes 2 inputs
  top.connect({kPrimaryIn, 0}, {{h1, 0}, {h2, 0}});
  top.connect({kPrimaryIn, 1}, {{h1, 1}, {h2, 1}});
  top.connect({kPrimaryIn, 2}, {{h2, 2}});
  top.connect({h1, 0}, {{kPrimaryOut, 0}});
  top.connect({h2, 0}, {{kPrimaryOut, 1}});
  d.add_behavior(std::move(top));
  d.set_top("top");
  lint::CheckContext cx;
  cx.design = &d;
  const lint::Report rep = lint::CheckEngine::instance().run(cx);
  EXPECT_TRUE(rep.has("HIER001"));
  EXPECT_TRUE(rep.has("HIER002"));
}

TEST(DfgHierarchy, DetectsRecursionAndBadTop) {
  Design d;
  Dfg self("self", 2, 1);
  const int h = self.add_hier_node("self", 2, 1);
  self.connect({kPrimaryIn, 0}, {{h, 0}});
  self.connect({kPrimaryIn, 1}, {{h, 1}});
  self.connect({h, 0}, {{kPrimaryOut, 0}});
  d.add_behavior(std::move(self));
  d.set_top("nonexistent");
  lint::CheckContext cx;
  cx.design = &d;
  const lint::Report rep = lint::CheckEngine::instance().run(cx);
  EXPECT_TRUE(rep.has("HIER003"));
  EXPECT_TRUE(rep.has("HIER006"));
}

TEST(DfgHierarchy, DetectsEquivalenceSignatureMismatch) {
  Design d;
  d.add_behavior(leaf_dfg("a"));
  d.add_behavior(leaf_dfg("b"));
  d.declare_equivalent("a", "b");
  d.set_top("a");
  // declare_equivalent checks signatures up front, so corrupt afterwards.
  d.behavior_mut("b").set_io(3, 1);
  lint::CheckContext cx;
  cx.design = &d;
  const lint::Report rep = lint::CheckEngine::instance().run(cx);
  EXPECT_TRUE(rep.has("HIER004"));
}

// ---- rtl-binding ---------------------------------------------------------

TEST(RtlBinding, DetectsCorruptNodeInvTable) {
  Fixture f("test1");
  ASSERT_GE(f.dp.behaviors[0].invs.size(), 2u);
  f.dp.behaviors[0].node_inv[f.dp.behaviors[0].invs[0].nodes[0]] = 1;
  const lint::Report rep = f.lint();
  EXPECT_TRUE(rep.has("BIND001"));
}

TEST(RtlBinding, DetectsUnitIndexOutOfRange) {
  Fixture f("test1");
  f.dp.behaviors[0].invs[0].unit.idx = 99;
  const lint::Report rep = f.lint();
  EXPECT_TRUE(rep.has("BIND002"));
}

TEST(RtlBinding, DetectsRegisterIndexOutOfRangeAndUnregisteredEdge) {
  Fixture f("test1");
  BehaviorImpl& bi = f.dp.behaviors[0];
  int corrupted = -1;
  for (std::size_t e = 0; e < bi.edge_reg.size(); ++e) {
    if (bi.edge_reg[e] >= 0) {
      corrupted = static_cast<int>(e);
      break;
    }
  }
  ASSERT_GE(corrupted, 0);
  bi.edge_reg[static_cast<std::size_t>(corrupted)] = 999;
  const lint::Report rep1 = f.lint();
  EXPECT_TRUE(rep1.has("BIND005"));
  bi.edge_reg[static_cast<std::size_t>(corrupted)] = -1;
  const lint::Report rep2 = f.lint();
  EXPECT_TRUE(rep2.has("BIND006"));
}

TEST(RtlBinding, DetectsTableSizeMismatch) {
  Fixture f("test1");
  f.dp.behaviors[0].edge_reg.pop_back();
  const lint::Report rep = f.lint();
  EXPECT_TRUE(rep.has("BIND008"));
}

// ---- sched-legality ------------------------------------------------------

/// Index of an invocation starting strictly after cycle 0 (-1 if none).
int late_inv(const BehaviorImpl& bi) {
  for (std::size_t i = 0; i < bi.inv_start.size(); ++i) {
    if (bi.inv_start[i] > 0) return static_cast<int>(i);
  }
  return -1;
}

TEST(SchedLegality, DetectsPrecedenceViolation) {
  Fixture f("test1");
  BehaviorImpl& bi = f.dp.behaviors[0];
  const int i = late_inv(bi);
  ASSERT_GE(i, 0);
  bi.inv_start[static_cast<std::size_t>(i)] = 0;  // pulls reads before writes
  const lint::Report rep = f.lint();
  EXPECT_FALSE(rep.ok());
  EXPECT_TRUE(rep.has("SCHED001") || rep.has("SCHED003"));
}

TEST(SchedLegality, DetectsNegativeStart) {
  Fixture f("test1");
  f.dp.behaviors[0].inv_start[0] = -3;
  const lint::Report rep = f.lint();
  EXPECT_TRUE(rep.has("SCHED002"));
}

/// Some behavior anywhere in the tree with at least two FU invocations
/// (the top level of a hierarchical design holds mostly child calls).
BehaviorImpl* find_two_fu_behavior(Datapath& dp) {
  for (BehaviorImpl& bi : dp.behaviors) {
    int fus = 0;
    for (const Invocation& inv : bi.invs) {
      fus += inv.unit.kind == UnitRef::Kind::Fu ? 1 : 0;
    }
    if (fus >= 2) return &bi;
  }
  for (std::size_t c = 0; c < dp.children.size(); ++c) {
    if (!dp.children[c].impl) continue;
    if (BehaviorImpl* bi =
            find_two_fu_behavior(dp.mut_child(static_cast<int>(c)))) {
      return bi;
    }
  }
  return nullptr;
}

TEST(SchedLegality, DetectsUnitDoubleBooking) {
  Fixture f("test1");
  BehaviorImpl* bi = find_two_fu_behavior(f.dp);
  ASSERT_NE(bi, nullptr) << "fixture has no behavior with two FU invs";
  // Rebind one FU invocation onto another's unit at the same start
  // cycle: a guaranteed double-booking whatever the initial binding.
  int a = -1, b = -1;
  for (std::size_t i = 0; i < bi->invs.size(); ++i) {
    if (bi->invs[i].unit.kind != UnitRef::Kind::Fu) continue;
    if (a < 0) {
      a = static_cast<int>(i);
    } else {
      b = static_cast<int>(i);
      break;
    }
  }
  ASSERT_GE(b, 0);
  bi->invs[static_cast<std::size_t>(b)].unit =
      bi->invs[static_cast<std::size_t>(a)].unit;
  bi->inv_start[static_cast<std::size_t>(b)] =
      bi->inv_start[static_cast<std::size_t>(a)];
  const lint::Report rep = f.lint();
  EXPECT_TRUE(rep.has("SCHED003"));
}

TEST(SchedLegality, DetectsRegisterLifetimeOverlap) {
  Fixture f("test1");
  BehaviorImpl& bi = f.dp.behaviors[0];
  // Merge two same-arrival primary-input values into one register: both
  // land in the same cycle, so the lifetimes collide immediately.
  int e1 = -1, e2 = -1;
  for (const Edge& e : bi.dfg->edges()) {
    if (e.src.node != kPrimaryIn) continue;
    if (bi.edge_reg[static_cast<std::size_t>(e.id)] < 0) continue;
    if (e1 < 0) {
      e1 = e.id;
    } else if (bi.edge_reg[static_cast<std::size_t>(e.id)] !=
               bi.edge_reg[static_cast<std::size_t>(e1)]) {
      e2 = e.id;
      break;
    }
  }
  ASSERT_GE(e2, 0) << "fixture has no two separately-registered inputs";
  bi.edge_reg[static_cast<std::size_t>(e2)] =
      bi.edge_reg[static_cast<std::size_t>(e1)];
  const lint::Report rep = f.lint();
  EXPECT_TRUE(rep.has("SCHED004"));
}

TEST(SchedLegality, DetectsMakespanMismatchAndDeadlineViolation) {
  Fixture f("test1");
  f.dp.behaviors[0].makespan += 5;
  const lint::Report rep = f.lint();
  EXPECT_TRUE(rep.has("SCHED006"));

  Fixture g("test1");
  const lint::Report rep2 =
      lint::lint_datapath(g.dp, g.lib, kRef, /*deadline=*/1);
  EXPECT_TRUE(rep2.has("SCHED007"));
}

TEST(SchedLegality, DetectsChildScheduledAtAnotherPoint) {
  // A child scheduled at another clock than its parent: its stored
  // profile does not hold at the parent's point, so lint reports it
  // instead of reading that profile.
  Fixture f("hier_paulin");
  ASSERT_FALSE(f.dp.children.empty());
  Datapath& child = f.dp.mut_child(0);
  invalidate_schedules(child);
  ASSERT_TRUE(schedule_datapath(child, f.lib, {5.0, 10.0}, kNoDeadline).ok);
  lint::Report rep;
  ASSERT_NO_THROW(rep = f.lint());
  EXPECT_TRUE(rep.has("SCHED008"));
}

// ---- ctrl-consistency ----------------------------------------------------

struct CtrlFixture : Fixture {
  Controller fsm;
  CtrlFixture() : Fixture("test1") {
    fsm = build_controller(dp, lib, kRef);
  }
  lint::Report lint_fsm() const {
    lint::CheckContext cx;
    cx.dp = &dp;
    cx.lib = &lib;
    cx.pt = kRef;
    cx.fsm = &fsm;
    return lint::CheckEngine::instance().run(cx);
  }
};

TEST(CtrlConsistency, GeneratedControllerIsConsistent) {
  CtrlFixture f;
  const lint::Report rep = f.lint_fsm();
  EXPECT_EQ(rep.errors(), 0) << rep.to_text();
}

TEST(CtrlConsistency, DetectsMissingAssert) {
  CtrlFixture f;
  for (FsmState& st : f.fsm.states) {
    if (!st.asserts.empty()) {
      st.asserts.pop_back();  // orphan one control point
      break;
    }
  }
  const lint::Report rep = f.lint_fsm();
  EXPECT_TRUE(rep.has("CTRL002"));
}

TEST(CtrlConsistency, DetectsSpuriousAndConflictingAsserts) {
  CtrlFixture f;
  ASSERT_FALSE(f.fsm.states.empty());
  f.fsm.states[0].asserts.push_back(
      {ControlAssert::Kind::RegLoad, "reg:r9999", "edge0"});
  f.fsm.states[0].asserts.push_back(
      {ControlAssert::Kind::RegLoad, "reg:r9999", "edge1"});
  const lint::Report rep = f.lint_fsm();
  EXPECT_TRUE(rep.has("CTRL003"));
  EXPECT_TRUE(rep.has("CTRL004"));
}

TEST(CtrlConsistency, DetectsStateTableCorruption) {
  CtrlFixture f;
  ASSERT_FALSE(f.fsm.states.empty());
  f.fsm.states.pop_back();  // dropped state
  const lint::Report rep = f.lint_fsm();
  EXPECT_TRUE(rep.has("CTRL001"));

  CtrlFixture g;
  g.fsm.states[0].id = 42;  // non-dense ids
  const lint::Report rep2 = g.lint_fsm();
  EXPECT_TRUE(rep2.has("CTRL005"));
}

TEST(CtrlConsistency, DetectsWrongMuxSelectAndSignalCount) {
  CtrlFixture f;
  bool flipped = false;
  for (FsmState& st : f.fsm.states) {
    for (ControlAssert& a : st.asserts) {
      if (a.kind == ControlAssert::Kind::MuxSelect) {
        a.detail = "r9999";  // steer the operand from the wrong register
        flipped = true;
        break;
      }
    }
    if (flipped) break;
  }
  ASSERT_TRUE(flipped) << "fixture has no mux selects";
  f.fsm.num_signals += 1;
  const lint::Report rep = f.lint_fsm();
  EXPECT_TRUE(rep.has("CTRL006"));
  EXPECT_TRUE(rep.has("CTRL007"));
}

// ---- oppoint-sanity ------------------------------------------------------

TEST(OpPointSanity, DetectsBadOperatingPoints) {
  lint::CheckContext cx;
  cx.deadline = 1;
  cx.pt = OpPoint{0.5, 20.0};  // below threshold voltage
  EXPECT_TRUE(lint::CheckEngine::instance().run(cx).has("VDD001"));
  cx.pt = OpPoint{5.0, -1.0};
  EXPECT_TRUE(lint::CheckEngine::instance().run(cx).has("VDD003"));
  cx.pt = OpPoint{5.0, 20.0};
  cx.deadline = 10;
  cx.sample_period_ns = 100.0;  // 10 cycles x 20 ns = 200 ns > 100 ns
  EXPECT_TRUE(lint::CheckEngine::instance().run(cx).has("VDD005"));
  cx.deadline = 5;  // exactly the period: legal
  EXPECT_TRUE(lint::CheckEngine::instance().run(cx).ok());
}

// ---- pristine inputs lint clean ------------------------------------------

TEST(Pristine, AllBenchmarkDesignsLintClean) {
  const Library lib = default_library();
  for (const std::string& name : benchmark_names()) {
    const Benchmark b = make_benchmark(name, lib);
    const lint::Report rep = lint::lint_design(b.design);
    EXPECT_EQ(rep.errors(), 0) << name << ":\n" << rep.to_text();
    EXPECT_EQ(rep.warnings(), 0) << name << ":\n" << rep.to_text();
  }
}

TEST(Pristine, InitialSolutionsLintClean) {
  for (const std::string& name : benchmark_names()) {
    Fixture f(name);
    const lint::Report rep = f.lint();
    EXPECT_EQ(rep.errors(), 0) << name << ":\n" << rep.to_text();
  }
}

TEST(Pristine, SynthesizerOutputsLintClean) {
  const Library lib = default_library();
  for (const std::string name : {"test1", "hier_paulin", "iir"}) {
    const Benchmark b = make_benchmark(name, lib);
    const double ts = 2.0 * min_sample_period_ns(b.design, lib);
    const SynthResult r =
        synthesize(b.design, lib, &b.clib, ts, Objective::Power,
                   Mode::Hierarchical, quick_opts());
    ASSERT_TRUE(r.ok) << name;
    const lint::Report rep = lint::lint_datapath(
        r.dp, lib, r.pt, r.deadline_cycles, &b.design);
    EXPECT_EQ(rep.errors(), 0) << name << ":\n" << rep.to_text();
  }
}

// ---- the move gate never changes results ---------------------------------

TEST(CheckMoves, GateIsBitIdenticalAcrossThreadCounts) {
  const Library lib = default_library();
  const Benchmark b = make_benchmark("hier_paulin", lib);
  const double ts = 2.0 * min_sample_period_ns(b.design, lib);

  auto run = [&](bool gate, int threads) {
    runtime::set_threads(threads);
    SynthOptions o = quick_opts();
    o.check_moves = gate;
    return synthesize(b.design, lib, &b.clib, ts, Objective::Power,
                      Mode::Hierarchical, o);
  };
  const SynthResult base = run(false, 1);
  ASSERT_TRUE(base.ok);
  const std::uint64_t fp = base.dp.fingerprint();
  for (const int threads : {1, 2, 8}) {
    const SynthResult r = run(true, threads);
    ASSERT_TRUE(r.ok);
    EXPECT_EQ(r.dp.fingerprint(), fp) << "threads=" << threads;
    EXPECT_EQ(r.pt, base.pt) << "threads=" << threads;
    EXPECT_DOUBLE_EQ(r.area, base.area) << "threads=" << threads;
    EXPECT_DOUBLE_EQ(r.energy, base.energy) << "threads=" << threads;
  }
  runtime::set_threads(1);
}

}  // namespace
}  // namespace hsyn
