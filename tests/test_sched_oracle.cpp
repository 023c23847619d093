// Differential tests of the production scheduler against the reference
// scheduler in sched_oracle.h: equal start times, makespans, stored
// profiles, verdicts and failure reasons, and equal ALAP starts, on the
// bundled designs, on the candidates one move pass evaluates, and on
// random bindings.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "benchmarks/benchmarks.h"
#include "dfg/flatten.h"
#include "profile_oracle.h"
#include "random_dfg.h"
#include "sched/scheduler.h"
#include "sched_oracle.h"
#include "synth/initial.h"
#include "util/rng.h"

namespace hsyn {
namespace {

using testing_support::oracle_alap_starts;
using testing_support::oracle_edge_ready_time;
using testing_support::oracle_profile;
using testing_support::oracle_schedule_datapath;

const OpPoint kRef{5.0, 20.0};
const OpPoint kScaled{3.3, 12.0};

/// Schedules (and the scheduled flags) of `a` and `b` agree, recursively.
void expect_same_schedules(const Datapath& a, const Datapath& b,
                           const std::string& where) {
  ASSERT_EQ(a.behaviors.size(), b.behaviors.size()) << where;
  for (std::size_t k = 0; k < a.behaviors.size(); ++k) {
    const BehaviorImpl& x = a.behaviors[k];
    const BehaviorImpl& y = b.behaviors[k];
    EXPECT_EQ(x.scheduled, y.scheduled) << where << " behavior " << k;
    EXPECT_EQ(x.inv_start, y.inv_start) << where << " behavior " << k;
    EXPECT_EQ(x.makespan, y.makespan) << where << " behavior " << k;
    if (x.scheduled && y.scheduled) {
      EXPECT_EQ(x.profile, y.profile) << where << " behavior " << k;
      EXPECT_EQ(x.sched_pt, y.sched_pt) << where << " behavior " << k;
    }
  }
  ASSERT_EQ(a.children.size(), b.children.size()) << where;
  for (std::size_t c = 0; c < a.children.size(); ++c) {
    expect_same_schedules(*a.children[c].impl, *b.children[c].impl,
                          where + "/child" + std::to_string(c));
  }
}

/// Schedule copies of `dp` with both schedulers against `deadline` and
/// require identical results; on success also compare ALAP starts of
/// every behavior at the makespan and with slack. Returns the production
/// result.
SchedResult compare(const Datapath& dp, const Library& lib, const OpPoint& pt,
                    int deadline, const std::string& where) {
  Datapath got = dp;
  Datapath want = dp;
  const SchedResult r = schedule_datapath(got, lib, pt, deadline);
  const SchedResult o = oracle_schedule_datapath(want, lib, pt, deadline);
  EXPECT_EQ(r.ok, o.ok) << where;
  EXPECT_EQ(r.makespan, o.makespan) << where;
  EXPECT_EQ(r.reason, o.reason) << where;
  expect_same_schedules(got, want, where);
  if (r.ok && o.ok) {
    for (std::size_t b = 0; b < got.behaviors.size(); ++b) {
      const int ms = got.behaviors[b].makespan;
      for (const int dl : {ms, ms + 5}) {
        EXPECT_EQ(alap_starts(got, static_cast<int>(b), lib, pt, dl),
                  oracle_alap_starts(want, static_cast<int>(b), lib, pt, dl))
            << where << " behavior " << b << " deadline " << dl;
      }
    }
  }
  return r;
}

/// A bundled design's initial solution in one of the paper's two modes.
struct Prepared {
  Library lib = default_library();
  Benchmark bench;
  Dfg flat;
  Datapath dp;

  Prepared(const std::string& name, Objective obj, bool flattened,
           const OpPoint& pt)
      : bench(make_benchmark(name, lib)) {
    SynthContext cx;
    cx.lib = &lib;
    cx.pt = pt;
    cx.deadline = kNoDeadline;
    cx.obj = obj;
    if (flattened) {
      flat = flatten_top(bench.design);
      dp = initial_solution(flat, bench.design.top_name(), cx);
    } else {
      cx.design = &bench.design;
      cx.clib = &bench.clib;
      dp = initial_solution(bench.design.top(), bench.design.top_name(), cx);
    }
  }
};

TEST(SchedOracle, InitialSolutionsOfEveryDesign) {
  for (const std::string& name : benchmark_names()) {
    for (const Objective obj : {Objective::Power, Objective::Area}) {
      for (const bool flattened : {false, true}) {
        for (const OpPoint& pt : {kRef, kScaled}) {
          const Prepared p(name, obj, flattened, pt);
          const std::string where =
              name + "/" + objective_name(obj) + (flattened ? "/flat" : "/hier") +
              "/vdd" + std::to_string(pt.vdd);
          const SchedResult r = compare(p.dp, p.lib, pt, kNoDeadline, where);
          ASSERT_TRUE(r.ok) << where << ": " << r.reason;
          // A deadline one cycle short fails the same way in both.
          const SchedResult tight =
              compare(p.dp, p.lib, pt, r.makespan - 1, where + "/tight");
          EXPECT_FALSE(tight.ok) << where;
        }
      }
    }
  }
}

/// Types able to execute every operation bound to fu `f` (chains
/// included), other than its current type.
std::vector<int> alternative_types(const Datapath& dp, int f, const Library& lib) {
  std::set<Op> ops;
  int chain = 1;
  for (const BehaviorImpl& bi : dp.behaviors) {
    for (const Invocation& inv : bi.invs) {
      if (!(inv.unit == UnitRef{UnitRef::Kind::Fu, f})) continue;
      chain = std::max(chain, static_cast<int>(inv.nodes.size()));
      for (const int nid : inv.nodes) ops.insert(bi.dfg->node(nid).op);
    }
  }
  std::vector<int> out;
  for (int t = 0; t < lib.num_fu_types(); ++t) {
    if (t == dp.fus[static_cast<std::size_t>(f)].type) continue;
    const FuType& ft = lib.fu(t);
    if (ft.chain_depth < chain) continue;
    bool all = true;
    for (const Op op : ops) all = all && ft.supports(op);
    if (all) out.push_back(t);
  }
  return out;
}

/// Rebind every invocation of unit `from` to unit `to`.
void rebind_unit(Datapath& dp, UnitRef from, UnitRef to) {
  for (BehaviorImpl& bi : dp.behaviors) {
    for (Invocation& inv : bi.invs) {
      if (inv.unit == from) inv.unit = to;
    }
  }
}

/// Every candidate of the move families one improvement pass draws from,
/// applied to `dp`: fu type swaps (move A), fu, register and same-behavior
/// child merges (move C), and fu/register splits (move D). Each is
/// pruned, as finish_move does before it schedules.
std::vector<Datapath> move_pass_candidates(const Datapath& dp, const Library& lib) {
  std::vector<Datapath> out;
  auto add = [&](Datapath cand) {
    cand.prune_unused();
    out.push_back(std::move(cand));
  };
  const int nfus = static_cast<int>(dp.fus.size());
  for (int f = 0; f < nfus; ++f) {
    for (const int t : alternative_types(dp, f, lib)) {
      Datapath cand = dp;
      cand.fus[static_cast<std::size_t>(f)].type = t;
      add(std::move(cand));
    }
  }
  for (int i = 0; i < nfus; ++i) {
    for (int j = i + 1; j < nfus; ++j) {
      Datapath cand = dp;
      rebind_unit(cand, {UnitRef::Kind::Fu, j}, {UnitRef::Kind::Fu, i});
      // The merged unit keeps its type when that serves both, and is
      // also tried as every other type that does (pipelined ones too).
      const FuType& ti = lib.fu(cand.fus[static_cast<std::size_t>(i)].type);
      bool serves = true;
      for (const Invocation& inv : cand.behaviors[0].invs) {
        if (!(inv.unit == UnitRef{UnitRef::Kind::Fu, i})) continue;
        serves = serves && static_cast<int>(inv.nodes.size()) <= ti.chain_depth;
        for (const int nid : inv.nodes) {
          serves = serves && ti.supports(cand.behaviors[0].dfg->node(nid).op);
        }
      }
      for (const int t : alternative_types(cand, i, lib)) {
        Datapath retyped = cand;
        retyped.fus[static_cast<std::size_t>(i)].type = t;
        add(std::move(retyped));
      }
      if (serves) add(std::move(cand));
    }
  }
  const int nregs = static_cast<int>(dp.regs.size());
  for (int i = 0; i < nregs; ++i) {
    for (int j = i + 1; j < nregs; ++j) {
      Datapath cand = dp;
      for (BehaviorImpl& bi : cand.behaviors) {
        for (int& r : bi.edge_reg) {
          if (r == j) r = i;
        }
      }
      add(std::move(cand));
    }
  }
  for (std::size_t i = 0; i < dp.children.size(); ++i) {
    for (std::size_t j = i + 1; j < dp.children.size(); ++j) {
      auto names = [&](std::size_t c) {
        std::set<std::string> out;
        for (const BehaviorImpl& b : dp.children[c].impl->behaviors) {
          out.insert(b.behavior);
        }
        return out;
      };
      if (names(i) != names(j)) continue;
      Datapath cand = dp;
      rebind_unit(cand, {UnitRef::Kind::Child, static_cast<int>(j)},
                  {UnitRef::Kind::Child, static_cast<int>(i)});
      add(std::move(cand));
    }
  }
  // Splits: move the second invocation of a shared fu onto a fresh unit
  // of the same type; move the second variable of a shared register into
  // a fresh register.
  for (int f = 0; f < nfus; ++f) {
    Datapath cand = dp;
    int seen = 0;
    for (Invocation& inv : cand.behaviors[0].invs) {
      if (!(inv.unit == UnitRef{UnitRef::Kind::Fu, f}) || seen++ != 1) continue;
      cand.fus.push_back(cand.fus[static_cast<std::size_t>(f)]);
      inv.unit.idx = nfus;
    }
    if (seen > 1) add(std::move(cand));
  }
  for (int r = 0; r < nregs; ++r) {
    Datapath cand = dp;
    int seen = 0;
    for (int& er : cand.behaviors[0].edge_reg) {
      if (er != r || seen++ != 1) continue;
      cand.regs.push_back(cand.regs[static_cast<std::size_t>(r)]);
      er = nregs;
    }
    if (seen > 1) add(std::move(cand));
  }
  return out;
}

TEST(SchedOracle, EveryCandidateOfOneMovePass) {
  for (const std::string name : {"hier_paulin", "iir"}) {
    for (const bool flattened : {false, true}) {
      Prepared p(name, Objective::Area, flattened, kRef);
      const SchedResult base = schedule_datapath(p.dp, p.lib, kRef, kNoDeadline);
      ASSERT_TRUE(base.ok) << name;
      // A deadline with slack (laxity 2): some merges fit, others miss it.
      const int deadline = base.makespan * 2;
      const std::vector<Datapath> cands = move_pass_candidates(p.dp, p.lib);
      ASSERT_GT(cands.size(), 10u) << name;
      int ok = 0;
      int failed = 0;
      for (std::size_t k = 0; k < cands.size(); ++k) {
        const SchedResult r =
            compare(cands[k], p.lib, kRef, deadline,
                    name + (flattened ? "/flat" : "/hier") + "/cand" +
                        std::to_string(k));
        (r.ok ? ok : failed)++;
      }
      // The pass sees both schedulable and unschedulable candidates.
      EXPECT_GT(ok, 0) << name;
      EXPECT_GT(failed, 0) << name;
    }
  }
}

/// Every scheduled behavior of `dp` (recursively) stores the profile the
/// recursive oracle computes, and edge_ready_time agrees with the oracle
/// on every edge.
void expect_stored_profiles_match(const Datapath& dp, const Library& lib,
                                  const OpPoint& pt, const std::string& where) {
  for (std::size_t b = 0; b < dp.behaviors.size(); ++b) {
    const BehaviorImpl& bi = dp.behaviors[b];
    if (!bi.scheduled) continue;
    const int bb = static_cast<int>(b);
    EXPECT_EQ(dp.profile(bb, lib, pt), oracle_profile(dp, bb, lib, pt))
        << where << " behavior " << b;
    EXPECT_EQ(bi.makespan, dp.profile(bb, lib, pt).makespan()) << where;
    for (const Edge& e : bi.dfg->edges()) {
      if (e.src.node != kPrimaryIn && e.src.node < 0) continue;
      EXPECT_EQ(dp.edge_ready_time(bb, e.id, lib, pt),
                oracle_edge_ready_time(dp, bb, e.id, lib, pt))
          << where << " behavior " << b << " edge " << e.id;
    }
  }
  for (std::size_t c = 0; c < dp.children.size(); ++c) {
    expect_stored_profiles_match(*dp.children[c].impl, lib, pt,
                                 where + "/child" + std::to_string(c));
  }
}

TEST(Datapath, StoredProfileMatchesOracle) {
  std::vector<std::string> names = benchmark_names();
  names.push_back("fir16");
  names.push_back("dct2d");
  for (const std::string& name : names) {
    for (const Objective obj : {Objective::Power, Objective::Area}) {
      for (const bool flattened : {false, true}) {
        for (const OpPoint& pt : {kRef, kScaled}) {
          Prepared p(name, obj, flattened, pt);
          const std::string where =
              name + "/" + objective_name(obj) + (flattened ? "/flat" : "/hier") +
              "/vdd" + std::to_string(pt.vdd);
          ASSERT_TRUE(schedule_datapath(p.dp, p.lib, pt, kNoDeadline).ok) << where;
          expect_stored_profiles_match(p.dp, p.lib, pt, where);
        }
      }
    }
  }
  // Every candidate of one move pass, schedulable or not: a candidate
  // that misses its deadline still keeps the schedule it was given.
  for (const std::string name : {"hier_paulin", "iir"}) {
    for (const bool flattened : {false, true}) {
      Prepared p(name, Objective::Power, flattened, kRef);
      const SchedResult base = schedule_datapath(p.dp, p.lib, kRef, kNoDeadline);
      ASSERT_TRUE(base.ok) << name;
      std::vector<Datapath> cands = move_pass_candidates(p.dp, p.lib);
      for (std::size_t k = 0; k < cands.size(); ++k) {
        schedule_datapath(cands[k], p.lib, kRef, base.makespan * 2);
        expect_stored_profiles_match(
            cands[k], p.lib, kRef,
            name + (flattened ? "/flat" : "/hier") + "/cand" + std::to_string(k));
      }
    }
  }
}

TEST(SchedOracle, RandomSharedBindings) {
  // Random DFGs with random unit and register sharing: many bindings are
  // infeasible (register conflicts, cyclic orderings, missed deadlines),
  // and the failure reasons must match as well.
  const Library lib = default_library();
  int ok = 0;
  int failed = 0;
  std::set<std::string> reasons;
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    Design design;
    design.add_behavior(
        testing_support::random_dfg(seed, 5 + static_cast<int>(seed % 12)));
    const std::string top = design.behavior_names().front();
    design.set_top(top);
    design.validate();
    SynthContext cx;
    cx.design = &design;
    cx.lib = &lib;
    cx.pt = kRef;
    cx.deadline = kNoDeadline;
    const Datapath init = initial_solution(design.top(), top, cx);
    Rng rng(seed * 7919);
    for (int trial = 0; trial < 8; ++trial) {
      Datapath dp = init;
      BehaviorImpl& bi = dp.behaviors[0];
      // Share units: rebind invocations onto earlier units of a type that
      // can execute them.
      const int merges = static_cast<int>(rng.below(4));
      for (int m = 0; m < merges && bi.invs.size() > 1; ++m) {
        Invocation& inv = bi.invs[rng.below(bi.invs.size())];
        const Op op = bi.dfg->node(inv.nodes.front()).op;
        const int to = static_cast<int>(rng.below(dp.fus.size()));
        if (lib.fu(dp.fus[static_cast<std::size_t>(to)].type).supports(op)) {
          inv.unit.idx = to;
        }
      }
      // Retype units (pipelined types included).
      if (rng.below(2) == 0) {
        FuUnit& fu = dp.fus[rng.below(dp.fus.size())];
        const std::vector<int> alts = lib.types_for(lib.fu(fu.type).ops.front());
        fu.type = alts[rng.below(alts.size())];
      }
      // Share registers.
      const int rmerges = static_cast<int>(rng.below(4));
      for (int m = 0; m < rmerges && !dp.regs.empty(); ++m) {
        int& r = bi.edge_reg[rng.below(bi.edge_reg.size())];
        if (r >= 0) r = static_cast<int>(rng.below(dp.regs.size()));
      }
      // Occasionally a late primary input.
      if (rng.below(4) == 0) bi.input_arrival[rng.below(bi.input_arrival.size())] = 3;
      dp.prune_unused();
      const int deadline = rng.below(3) == 0 ? 4 : kNoDeadline;
      const SchedResult r =
          compare(dp, lib, kRef, deadline,
                  "seed " + std::to_string(seed) + " trial " + std::to_string(trial));
      if (r.ok) {
        ++ok;
      } else {
        ++failed;
        reasons.insert(r.reason.substr(0, r.reason.find(' ')));
      }
    }
  }
  EXPECT_GT(ok, 0);
  EXPECT_GT(failed, 0);
  EXPECT_GE(reasons.size(), 2u);
}

/// One behavior's initial solution for the hand-built failure cases.
struct Small {
  Library lib = default_library();
  Design design;
  Datapath dp;

  explicit Small(Dfg dfg) {
    const std::string name = dfg.name();
    design.add_behavior(std::move(dfg));
    design.set_top(name);
    design.validate();
    SynthContext cx;
    cx.design = &design;
    cx.lib = &lib;
    cx.pt = kRef;
    cx.deadline = kNoDeadline;
    dp = initial_solution(design.top(), name, cx);
  }

  /// Bind edge `moved` to the register of edge `onto`.
  void share_register(int moved, int onto) {
    BehaviorImpl& bi = dp.behaviors[0];
    bi.edge_reg[static_cast<std::size_t>(moved)] =
        bi.edge_reg[static_cast<std::size_t>(onto)];
    dp.prune_unused();
  }
};

TEST(SchedOracle, CyclicRegisterOrdering) {
  // t = b + d; y = a * t. Sharing a's register with t forces the mult to
  // read a before t is written, yet the mult consumes t: a cycle.
  Dfg d("cyc", 3, 1);
  const int add = d.add_node(Op::Add);
  const int mul = d.add_node(Op::Mult);
  const int a = d.connect({kPrimaryIn, 0}, {{mul, 0}});
  d.connect({kPrimaryIn, 1}, {{add, 0}});
  d.connect({kPrimaryIn, 2}, {{add, 1}});
  const int t = d.connect({add, 0}, {{mul, 1}});
  d.connect({mul, 0}, {{kPrimaryOut, 0}});
  d.validate();
  Small s(std::move(d));
  s.share_register(t, a);
  const SchedResult r = compare(s.dp, s.lib, kRef, kNoDeadline, "cyclic");
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.reason, "resource/register ordering conflicts with dataflow");
  EXPECT_TRUE(alap_starts(s.dp, 0, s.lib, kRef, 20).empty());
  EXPECT_TRUE(oracle_alap_starts(s.dp, 0, s.lib, kRef, 20).empty());
}

TEST(SchedOracle, TwoPrimaryOutputsInOneRegister) {
  Dfg d("po2", 4, 2);
  const int a1 = d.add_node(Op::Add);
  const int a2 = d.add_node(Op::Add);
  d.connect({kPrimaryIn, 0}, {{a1, 0}});
  d.connect({kPrimaryIn, 1}, {{a1, 1}});
  d.connect({kPrimaryIn, 2}, {{a2, 0}});
  d.connect({kPrimaryIn, 3}, {{a2, 1}});
  const int y1 = d.connect({a1, 0}, {{kPrimaryOut, 0}});
  const int y2 = d.connect({a2, 0}, {{kPrimaryOut, 1}});
  d.validate();
  Small s(std::move(d));
  s.share_register(y2, y1);
  const SchedResult r = compare(s.dp, s.lib, kRef, kNoDeadline, "po2");
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.reason.find("holds 2 primary outputs"), std::string::npos) << r.reason;
}

TEST(SchedOracle, PrimaryInputOverwritesRegister) {
  // y = a + b is ready at cycle 1; input c arrives at cycle 5, so in a
  // shared register c would overwrite y -- which the environment cannot.
  Dfg d("piw", 3, 1);
  const int add = d.add_node(Op::Add);
  const int mul = d.add_node(Op::Mult);
  d.connect({kPrimaryIn, 0}, {{add, 0}});
  d.connect({kPrimaryIn, 1}, {{add, 1}});
  const int c = d.connect({kPrimaryIn, 2}, {{mul, 1}});
  const int y = d.connect({add, 0}, {{mul, 0}});
  d.connect({mul, 0}, {{kPrimaryOut, 0}});
  d.validate();
  Small s(std::move(d));
  s.dp.behaviors[0].input_arrival[2] = 5;
  s.share_register(c, y);
  const SchedResult r = compare(s.dp, s.lib, kRef, kNoDeadline, "piw");
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.reason, "primary input variable cannot overwrite register");
}

TEST(SchedOracle, DeadValueWriteAfterWrite) {
  // t = a + b has no reader; y = c * d shares its register. Only the
  // write-after-write ordering keeps y's write after t's (a arrives late).
  Dfg d("waw", 4, 1);
  const int add = d.add_node(Op::Add);
  const int mul = d.add_node(Op::Mult);
  d.connect({kPrimaryIn, 0}, {{add, 0}});
  d.connect({kPrimaryIn, 1}, {{add, 1}});
  d.connect({kPrimaryIn, 2}, {{mul, 0}});
  d.connect({kPrimaryIn, 3}, {{mul, 1}});
  const int t = d.connect({add, 0}, {});
  const int y = d.connect({mul, 0}, {{kPrimaryOut, 0}});
  d.validate();
  Small s(std::move(d));
  s.dp.behaviors[0].input_arrival[0] = 5;
  s.share_register(y, t);
  const SchedResult r = compare(s.dp, s.lib, kRef, kNoDeadline, "waw");
  ASSERT_TRUE(r.ok) << r.reason;
  Datapath got = s.dp;
  ASSERT_TRUE(schedule_datapath(got, s.lib, kRef, kNoDeadline).ok);
  const BehaviorImpl& bi = got.behaviors[0];
  // y (3 cycles) is written after t (written at cycle 6).
  EXPECT_GT(bi.inv_start[static_cast<std::size_t>(bi.inv_of(mul))] + 3, 6);
}

TEST(SchedOracle, ChildReadsOneEdgeOnTwoPorts) {
  // A child reading u on port 0 at offset 0 and on port 1 at offset 3:
  // a variable sharing u's register may only be written after the
  // child's latest read of u.
  Dfg child("late2", 2, 1);
  const int sq = child.add_node(Op::Mult);
  const int acc = child.add_node(Op::Add);
  child.connect({kPrimaryIn, 0}, {{sq, 0}, {sq, 1}});
  child.connect({kPrimaryIn, 1}, {{acc, 1}});
  child.connect({sq, 0}, {{acc, 0}});
  child.connect({acc, 0}, {{kPrimaryOut, 0}});
  child.validate();

  Dfg top("top2", 5, 2);
  const int a1 = top.add_node(Op::Add);
  const int h = top.add_hier_node("late2", 2, 1);
  const int a2 = top.add_node(Op::Add);
  const int m = top.add_node(Op::Mult);
  top.connect({kPrimaryIn, 0}, {{a1, 0}});
  top.connect({kPrimaryIn, 1}, {{a1, 1}});
  const int u = top.connect({a1, 0}, {{h, 0}, {h, 1}});
  top.connect({kPrimaryIn, 2}, {{a2, 0}});
  top.connect({kPrimaryIn, 3}, {{a2, 1}});
  const int v = top.connect({a2, 0}, {{m, 0}});
  top.connect({kPrimaryIn, 4}, {{m, 1}});
  top.connect({h, 0}, {{kPrimaryOut, 0}});
  top.connect({m, 0}, {{kPrimaryOut, 1}});
  top.validate();

  const Library lib = default_library();
  Design design;
  design.add_behavior(std::move(child));
  design.add_behavior(std::move(top));
  design.set_top("top2");
  design.validate();
  SynthContext cx;
  cx.design = &design;
  cx.lib = &lib;
  cx.pt = kRef;
  cx.deadline = kNoDeadline;
  Datapath dp = initial_solution(design.top(), "top2", cx);
  ASSERT_EQ(dp.children.size(), 1u);
  BehaviorImpl& cb = dp.mut_child(0).behaviors[0];
  cb.input_arrival = {0, 3};
  cb.unschedule();
  BehaviorImpl& bi = dp.behaviors[0];
  bi.edge_reg[static_cast<std::size_t>(v)] = bi.edge_reg[static_cast<std::size_t>(u)];
  dp.prune_unused();
  const SchedResult r = compare(dp, lib, kRef, kNoDeadline, "two-ports");
  ASSERT_TRUE(r.ok) << r.reason;
  ASSERT_TRUE(schedule_datapath(dp, lib, kRef, kNoDeadline).ok);
  // v's writer ends after the child's read of u at offset 3.
  const BehaviorImpl& s = dp.behaviors[0];
  EXPECT_GT(s.inv_start[static_cast<std::size_t>(s.inv_of(a2))] + 1,
            s.inv_start[static_cast<std::size_t>(s.inv_of(h))] + 3);
}

}  // namespace
}  // namespace hsyn
