#include <gtest/gtest.h>

#include <thread>

#include "benchmarks/benchmarks.h"
#include "power/estimator.h"
#include "sched/scheduler.h"
#include "synth/initial.h"

namespace hsyn {
namespace {

SynthContext make_cx(const Design* design, const Library& lib,
                     const ComplexLibrary* clib = nullptr) {
  SynthContext cx;
  cx.design = design;
  cx.lib = &lib;
  cx.clib = clib;
  cx.pt = {5.0, 20.0};
  cx.deadline = kNoDeadline;
  return cx;
}

TEST(Datapath, InitialSolutionIsFullyParallelAndValid) {
  const Library lib = default_library();
  Design design;
  design.add_behavior(make_paulin_iter("paulin"));
  design.set_top("paulin");
  design.validate();

  SynthContext cx = make_cx(&design, lib);
  Datapath dp = initial_solution(design.top(), "paulin", cx);
  // One unit per operation, one register per edge.
  EXPECT_EQ(dp.fus.size(), design.top().nodes().size());
  EXPECT_EQ(dp.regs.size(), design.top().edges().size());
  EXPECT_NO_THROW(dp.validate(lib));
  for (std::size_t i = 0; i < dp.fus.size(); ++i) {
    EXPECT_EQ(dp.unit_load({UnitRef::Kind::Fu, static_cast<int>(i)}), 1);
  }
}

TEST(Datapath, HierInitialUsesChildren) {
  const Library lib = default_library();
  const Benchmark bench = make_benchmark("iir", lib);
  SynthContext cx = make_cx(&bench.design, lib, &bench.clib);
  Datapath dp = initial_solution(bench.design.top(), "iir", cx);
  EXPECT_EQ(dp.children.size(), 3u);  // one instance per biquad node
  EXPECT_NO_THROW(dp.validate(lib));
}

TEST(Datapath, CopySharesChildSubtrees) {
  const Library lib = default_library();
  const Benchmark bench = make_benchmark("iir", lib);
  SynthContext cx = make_cx(&bench.design, lib, &bench.clib);
  Datapath dp = initial_solution(bench.design.top(), "iir", cx);
  ASSERT_TRUE(schedule_datapath(dp, lib, cx.pt, kNoDeadline).ok);
  const std::uint64_t fp0 = dp.fingerprint();
  const std::uint64_t content0 = dp.fingerprint_scratch();

  Datapath copy = dp;
  ASSERT_EQ(copy.children.size(), dp.children.size());
  for (std::size_t c = 0; c < dp.children.size(); ++c) {
    EXPECT_EQ(copy.children[c].impl.get(), dp.children[c].impl.get()) << c;
  }

  const Datapath* shared = dp.children[0].impl.get();
  const std::size_t n_fus = shared->fus.size();
  ASSERT_GT(n_fus, 0u);
  const int type0 = shared->fus[0].type;
  Datapath& own = copy.mut_child(0);
  // The copy now owns a private child; the other children and the
  // private child's own subtrees stay shared.
  EXPECT_NE(&own, shared);
  EXPECT_EQ(copy.children[0].impl.get(), &own);
  EXPECT_EQ(dp.children[0].impl.get(), shared);
  for (std::size_t c = 1; c < dp.children.size(); ++c) {
    EXPECT_EQ(copy.children[c].impl.get(), dp.children[c].impl.get()) << c;
  }
  for (std::size_t g = 0; g < shared->children.size(); ++g) {
    EXPECT_EQ(own.children[g].impl.get(), shared->children[g].impl.get());
  }

  own.fus[0].type = (type0 + 1) % lib.num_fu_types();
  EXPECT_EQ(shared->fus.size(), n_fus);
  EXPECT_EQ(shared->fus[0].type, type0);
  EXPECT_EQ(dp.fingerprint(), fp0);
  EXPECT_EQ(dp.fingerprint_scratch(), content0);
  EXPECT_NE(copy.fingerprint(), fp0);
  EXPECT_EQ(dp.fingerprint(), dp.fingerprint_scratch());
  EXPECT_EQ(copy.fingerprint(), copy.fingerprint_scratch());
}

// What one candidate derived from a shared base yields: its fingerprints
// and the DFG its resolver finds for every behavior name.
struct CandidateOutcome {
  std::uint64_t fp = 0;
  std::uint64_t fp_scratch = 0;
  int makespan = 0;
  std::vector<const Dfg*> resolved;

  friend bool operator==(const CandidateOutcome&,
                         const CandidateOutcome&) = default;
};

// Copy `base`, delay the inputs of child `c` by `delay` cycles through
// mut_child, reschedule and read the copy back.
CandidateOutcome derive(const Datapath& base, int c, int delay,
                        const std::vector<std::string>& names,
                        const Library& lib, const OpPoint& pt) {
  Datapath cand = base;
  BehaviorImpl& bi = cand.mut_child(c).behaviors[0];
  for (int& a : bi.input_arrival) a += delay;
  bi.scheduled = false;
  CandidateOutcome out;
  const SchedResult sr = schedule_datapath(cand, lib, pt, kNoDeadline);
  EXPECT_TRUE(sr.ok) << sr.reason;
  out.makespan = sr.makespan;
  out.fp = cand.fingerprint();
  out.fp_scratch = cand.fingerprint_scratch();
  const BehaviorResolver res = resolver_of(cand);
  for (const std::string& n : names) out.resolved.push_back(res(n));
  return out;
}

TEST(Datapath, SharedSubtreesUnderConcurrentCopies) {
  const Library lib = default_library();
  const Benchmark bench = make_benchmark("iir", lib);
  SynthContext cx = make_cx(&bench.design, lib, &bench.clib);
  Datapath base = initial_solution(bench.design.top(), "iir", cx);
  ASSERT_TRUE(schedule_datapath(base, lib, cx.pt, kNoDeadline).ok);
  // The base's caches stay cold, so the workers race to fill the shared
  // children's fingerprints and behavior tables.
  const std::uint64_t content0 = base.fingerprint_scratch();
  std::vector<std::string> names = {"missing"};
  for (const ChildUnit& c : base.children) {
    for (const BehaviorImpl& bi : c.impl->behaviors) {
      names.push_back(bi.behavior);
    }
  }
  const int n_children = static_cast<int>(base.children.size());
  constexpr int kThreads = 4;
  constexpr int kRounds = 12;

  std::vector<std::vector<CandidateOutcome>> got(kThreads);
  {
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t) {
      workers.emplace_back([&, t] {
        for (int r = 0; r < kRounds; ++r) {
          got[static_cast<std::size_t>(t)].push_back(
              derive(base, (t + r) % n_children, 1 + r % 3, names, lib, cx.pt));
        }
      });
    }
    for (std::thread& w : workers) w.join();
  }
  for (int t = 0; t < kThreads; ++t) {
    for (int r = 0; r < kRounds; ++r) {
      const CandidateOutcome want =
          derive(base, (t + r) % n_children, 1 + r % 3, names, lib, cx.pt);
      EXPECT_EQ(got[static_cast<std::size_t>(t)][static_cast<std::size_t>(r)],
                want)
          << "thread " << t << " round " << r;
      EXPECT_EQ(want.fp, want.fp_scratch);
    }
  }
  EXPECT_EQ(base.fingerprint_scratch(), content0);
  EXPECT_EQ(base.fingerprint(), content0);
}

TEST(Datapath, PruneUnusedCompactsIndices) {
  const Library lib = default_library();
  Design design;
  design.add_behavior(make_paulin_iter("paulin"));
  design.set_top("paulin");
  design.validate();
  SynthContext cx = make_cx(&design, lib);
  Datapath dp = initial_solution(design.top(), "paulin", cx);
  // Rebind all work of unit 1 onto unit 0's twin... simply move inv 1 to
  // unit 0 if compatible; here just drop a register user instead:
  // merge reg 1 into reg 0 and prune.
  for (int& r : dp.behaviors[0].edge_reg) {
    if (r == 1) r = 0;
  }
  const std::size_t before = dp.regs.size();
  dp.prune_unused();
  EXPECT_EQ(dp.regs.size(), before - 1);
  EXPECT_NO_THROW(dp.validate(lib));
}

TEST(Datapath, ProfileOfScheduledModule) {
  const Library lib = default_library();
  Design design;
  design.add_behavior(make_biquad("biquad"));
  design.set_top("biquad");
  design.validate();
  SynthContext cx = make_cx(&design, lib);
  Datapath dp = initial_solution(design.top(), "biquad", cx);
  ASSERT_TRUE(schedule_datapath(dp, lib, cx.pt, kNoDeadline).ok);
  const Profile p = dp.profile(0, lib, cx.pt);
  ASSERT_EQ(p.in.size(), 8u);
  ASSERT_EQ(p.out.size(), 3u);
  for (const int a : p.in) EXPECT_EQ(a, 0);
  // y = b0*x + s1: mult (3) + add (1) = 4 cycles at the reference point.
  EXPECT_EQ(p.out[0], 4);
  EXPECT_EQ(p.makespan(), dp.behaviors[0].makespan);
}

TEST(Datapath, InvInputEdgesExcludesChainInternal) {
  const Library lib = default_library();
  Design design;
  Dfg chain("chain3", 4, 1);
  const int a1 = chain.add_node(Op::Add);
  const int a2 = chain.add_node(Op::Add);
  const int a3 = chain.add_node(Op::Add);
  chain.connect({kPrimaryIn, 0}, {{a1, 0}});
  chain.connect({kPrimaryIn, 1}, {{a1, 1}});
  chain.connect({kPrimaryIn, 2}, {{a2, 1}});
  chain.connect({kPrimaryIn, 3}, {{a3, 1}});
  chain.connect({a1, 0}, {{a2, 0}});
  chain.connect({a2, 0}, {{a3, 0}});
  chain.connect({a3, 0}, {{kPrimaryOut, 0}});
  chain.validate();
  design.add_behavior(std::move(chain));
  Dfg top("t", 4, 1);
  const int h = top.add_hier_node("chain3", 4, 1);
  for (int p = 0; p < 4; ++p) top.connect({kPrimaryIn, p}, {{h, p}});
  top.connect({h, 0}, {{kPrimaryOut, 0}});
  design.add_behavior(std::move(top));
  design.set_top("t");
  design.validate();

  const ComplexLibrary clib = default_complex_library(design, lib);
  const ComplexLibrary::Template* t = clib.find("chain3_chain");
  ASSERT_NE(t, nullptr);
  Datapath dp = ComplexLibrary::instantiate(*t, "chain3");
  EXPECT_NO_THROW(dp.validate(lib));
  ASSERT_EQ(dp.behaviors[0].invs.size(), 1u);  // one chained invocation
  EXPECT_EQ(dp.behaviors[0].invs[0].nodes.size(), 3u);
  // Four external operands; the two chain-internal edges are excluded.
  EXPECT_EQ(dp.inv_input_edges(0, 0).size(), 4u);
  // Chained module executes in a single chained_add3 pass: makespan is
  // the unit's cycle count (2 at the reference point).
  ASSERT_TRUE(schedule_datapath(dp, lib, {5.0, 20.0}, kNoDeadline).ok);
  EXPECT_EQ(dp.behaviors[0].makespan, 2);
  EXPECT_EQ(dp.fus.size(), 1u);
}

TEST(Datapath, ValidateCatchesWrongUnitKind) {
  const Library lib = default_library();
  Design design;
  design.add_behavior(make_paulin_iter("paulin"));
  design.set_top("paulin");
  SynthContext cx = make_cx(&design, lib);
  Datapath dp = initial_solution(design.top(), "paulin", cx);
  // Point a mult node's invocation at an adder unit.
  BehaviorImpl& bi = dp.behaviors[0];
  int mult_inv = -1, add_unit = -1;
  for (std::size_t i = 0; i < bi.invs.size(); ++i) {
    const Node& n = bi.dfg->node(bi.invs[i].nodes[0]);
    if (n.op == Op::Mult && mult_inv < 0) mult_inv = static_cast<int>(i);
    if (n.op == Op::Add && add_unit < 0) add_unit = bi.invs[i].unit.idx;
  }
  ASSERT_GE(mult_inv, 0);
  ASSERT_GE(add_unit, 0);
  bi.invs[static_cast<std::size_t>(mult_inv)].unit.idx = add_unit;
  EXPECT_THROW(dp.validate(lib), std::logic_error);
}

TEST(Datapath, TotalComponentsRecursive) {
  const Library lib = default_library();
  const Benchmark bench = make_benchmark("lat", lib);
  SynthContext cx = make_cx(&bench.design, lib, &bench.clib);
  Datapath dp = initial_solution(bench.design.top(), "lat", cx);
  int flat_units = 0;
  for (const ChildUnit& c : dp.children) {
    flat_units += static_cast<int>(c.impl->fus.size() + c.impl->regs.size());
  }
  EXPECT_EQ(dp.total_components(),
            static_cast<int>(dp.fus.size() + dp.regs.size()) + flat_units);
}

}  // namespace
}  // namespace hsyn
