// Fingerprint semantics: the identities the evaluation caches key by.
//
// Three layers are checked:
//   * Dfg::canonical_hash -- invariant under construction order and
//     node/edge renumbering, sensitive to any structural change,
//   * Dfg::content_hash -- id-exact (bindings are id-addressed), but
//     blind to labels and names,
//   * Datapath::fingerprint -- mutation-sensitive, and the incrementally
//     maintained cache always agrees with the from-scratch recompute,
//     including across real move sequences on every benchmark design.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "benchmarks/benchmarks.h"
#include "power/trace.h"
#include "rtl/fingerprint.h"
#include "sched/scheduler.h"
#include "synth/initial.h"
#include "synth/moves.h"

namespace hsyn {
namespace {

const OpPoint kRef{5.0, 20.0};

// Variants of the expression graph (a+b)*(c-d) -> out. Each mutation is a
// single structural change the canonical hash must distinguish.
enum class Variant {
  Base,
  OpChanged,       ///< the Add becomes an Xor
  InputsSwapped,   ///< the Sub consumes (d,c) instead of (c,d)
  ExtraOutput,     ///< the Sub result also leaves on a second primary output
};

Dfg make_expr(Variant v = Variant::Base) {
  Dfg d("expr", 4, v == Variant::ExtraOutput ? 2 : 1);
  std::vector<int> in(4);
  for (int i = 0; i < 4; ++i) in[i] = d.connect({kPrimaryIn, i}, {});
  const int add = d.add_node(v == Variant::OpChanged ? Op::Xor : Op::Add);
  const int sub = d.add_node(Op::Sub);
  const int mul = d.add_node(Op::Mult);
  d.add_consumer(in[0], {add, 0});
  d.add_consumer(in[1], {add, 1});
  const bool swap = v == Variant::InputsSwapped;
  d.add_consumer(in[swap ? 3 : 2], {sub, 0});
  d.add_consumer(in[swap ? 2 : 3], {sub, 1});
  d.connect({add, 0}, {{mul, 0}});
  const int es = d.connect({sub, 0}, {{mul, 1}});
  d.connect({mul, 0}, {{kPrimaryOut, 0}});
  if (v == Variant::ExtraOutput) d.add_consumer(es, {kPrimaryOut, 1});
  d.validate();
  return d;
}

// The same graph as make_expr(Base), built backwards: nodes in reverse,
// output wiring before input edges, input edges last-to-first. Every node
// id and edge id ends up different.
Dfg make_expr_reversed() {
  Dfg d("expr_r", 4, 1);
  const int mul = d.add_node(Op::Mult);
  const int sub = d.add_node(Op::Sub);
  const int add = d.add_node(Op::Add);
  d.connect({mul, 0}, {{kPrimaryOut, 0}});
  d.connect({sub, 0}, {{mul, 1}});
  d.connect({add, 0}, {{mul, 0}});
  std::vector<int> in(4);
  for (int i = 3; i >= 0; --i) in[static_cast<std::size_t>(i)] = d.connect({kPrimaryIn, i}, {});
  d.add_consumer(in[0], {add, 0});
  d.add_consumer(in[1], {add, 1});
  d.add_consumer(in[2], {sub, 0});
  d.add_consumer(in[3], {sub, 1});
  d.validate();
  return d;
}

TEST(CanonicalHash, InvariantUnderConstructionOrder) {
  const Dfg a = make_expr();
  const Dfg b = make_expr_reversed();
  // Same graph, renumbered: canonical hashes agree...
  EXPECT_EQ(a.canonical_hash(), b.canonical_hash());
  // ...while the id-exact content hash sees the different numbering.
  EXPECT_NE(a.content_hash(), b.content_hash());
}

TEST(CanonicalHash, EverySingleMutationChangesIt) {
  const Variant all[] = {Variant::Base, Variant::OpChanged,
                         Variant::InputsSwapped, Variant::ExtraOutput};
  std::set<std::uint64_t> canonical;
  std::set<std::uint64_t> content;
  for (const Variant v : all) {
    const Dfg d = make_expr(v);
    canonical.insert(d.canonical_hash());
    content.insert(d.content_hash());
  }
  EXPECT_EQ(canonical.size(), 4u);
  EXPECT_EQ(content.size(), 4u);
}

TEST(ContentHash, IgnoresLabelsAndNames) {
  Dfg a("first", 2, 1);
  Dfg b("second", 2, 1);
  for (Dfg* d : {&a, &b}) {
    const int e0 = d->connect({kPrimaryIn, 0}, {});
    const int e1 = d->connect({kPrimaryIn, 1}, {});
    const int n = d->add_node(Op::Add, d == &a ? "+1" : "sum");
    d->add_consumer(e0, {n, 0});
    d->add_consumer(e1, {n, 1});
    d->connect({n, 0}, {{kPrimaryOut, 0}}, d == &a ? "" : "y");
    d->validate();
  }
  EXPECT_EQ(a.content_hash(), b.content_hash());
  EXPECT_EQ(a.canonical_hash(), b.canonical_hash());
}

// ---- Datapath fingerprints ----------------------------------------------

struct Fixture {
  Library lib = default_library();
  Benchmark bench;
  SynthContext cx;
  Datapath dp;

  explicit Fixture(const std::string& name, int extra_slack = 8) {
    bench = make_benchmark(name, lib);
    cx.design = &bench.design;
    cx.lib = &lib;
    cx.clib = &bench.clib;
    cx.pt = kRef;
    cx.obj = Objective::Area;
    cx.opts.enable_resynth = false;  // keep move generation cheap
    cx.trace = make_trace(bench.design.top().num_inputs(), 8, 3);
    dp = initial_solution(bench.design.top(), name, cx);
    const SchedResult r = schedule_datapath(dp, lib, kRef, kNoDeadline);
    EXPECT_TRUE(r.ok);
    cx.deadline = r.makespan + extra_slack;
  }
};

// Flat single-behavior datapath (the Paulin/HAL diffeq iteration) for
// the direct-mutation tests.
struct FlatFixture {
  Library lib = default_library();
  Design design;
  Datapath dp;

  FlatFixture() {
    design.add_behavior(make_paulin_iter("paulin"));
    design.set_top("paulin");
    design.validate();
    SynthContext cx;
    cx.design = &design;
    cx.lib = &lib;
    cx.pt = kRef;
    dp = initial_solution(design.top(), "paulin", cx);
    schedule_datapath(dp, lib, kRef, kNoDeadline);
  }
};

TEST(Fingerprint, CopyIsContentEqual) {
  Fixture f("test1");
  const Datapath copy = f.dp;
  EXPECT_EQ(copy.fingerprint(), f.dp.fingerprint());
  EXPECT_EQ(copy.fingerprint(), copy.fingerprint_scratch());
}

TEST(Fingerprint, ChangesOnUnitTypeSwap) {
  FlatFixture f;
  ASSERT_FALSE(f.dp.fus.empty());
  Datapath dp2 = f.dp;
  dp2.fus[0].type = (dp2.fus[0].type + 1) % f.lib.num_fu_types();
  dp2.invalidate_fingerprint();
  EXPECT_NE(dp2.fingerprint(), f.dp.fingerprint());
  EXPECT_EQ(dp2.fingerprint(), dp2.fingerprint_scratch());
}

TEST(Fingerprint, ChangesOnRegisterRebind) {
  FlatFixture f;
  // Merge two variables onto one register: find two edges bound to
  // different registers and point the second at the first's.
  BehaviorImpl& bi = f.dp.behaviors[0];
  int e1 = -1, e2 = -1;
  for (std::size_t e = 0; e < bi.edge_reg.size(); ++e) {
    if (bi.edge_reg[e] < 0) continue;
    if (e1 < 0) {
      e1 = static_cast<int>(e);
    } else if (bi.edge_reg[e] != bi.edge_reg[static_cast<std::size_t>(e1)]) {
      e2 = static_cast<int>(e);
      break;
    }
  }
  ASSERT_GE(e2, 0);
  Datapath dp2 = f.dp;
  dp2.behaviors[0].edge_reg[static_cast<std::size_t>(e2)] =
      bi.edge_reg[static_cast<std::size_t>(e1)];
  dp2.invalidate_fingerprint();
  EXPECT_NE(dp2.fingerprint(), f.dp.fingerprint());
  EXPECT_EQ(dp2.fingerprint(), dp2.fingerprint_scratch());
}

TEST(Fingerprint, ChangesOnChildMutation) {
  Fixture f("test1");
  ASSERT_FALSE(f.dp.children.empty());
  Datapath dp2 = f.dp;
  Datapath* child = nullptr;
  for (std::size_t c = 0; c < dp2.children.size(); ++c) {
    if (!dp2.children[c].impl->fus.empty()) {
      // The only way to write into a child: mut_child gives dp2 a private
      // copy and invalidates both its fingerprint and dp2's.
      child = &dp2.mut_child(static_cast<int>(c));
      break;
    }
  }
  ASSERT_NE(child, nullptr);
  child->fus[0].type = (child->fus[0].type + 1) % f.lib.num_fu_types();
  EXPECT_NE(dp2.fingerprint(), f.dp.fingerprint());
  EXPECT_EQ(dp2.fingerprint(), dp2.fingerprint_scratch());
}

TEST(Fingerprint, ScheduleStateIsPartOfTheIdentity) {
  FlatFixture f;
  Datapath dp2 = f.dp;
  dp2.behaviors[0].unschedule();
  dp2.invalidate_fingerprint();
  EXPECT_NE(dp2.fingerprint(), f.dp.fingerprint());
  EXPECT_EQ(dp2.fingerprint(), dp2.fingerprint_scratch());
}

TEST(Fingerprint, IncrementalMatchesScratchOnEveryBenchmark) {
  for (const std::string& name : benchmark_names()) {
    Fixture f(name);
    EXPECT_EQ(f.dp.fingerprint(), f.dp.fingerprint_scratch()) << name;
    // Real moves route through the audited mutation sites; their results
    // must come out with a coherent cached fingerprint.
    for (const Move& m :
         {best_sharing_move(f.dp, f.cx), best_replace_move(f.dp, f.cx)}) {
      if (!m.valid) continue;
      EXPECT_EQ(m.result.fingerprint(), m.result.fingerprint_scratch())
          << name << " " << m.kind;
    }
  }
}

TEST(Fingerprint, StaysCoherentAcrossMoveSequence) {
  Fixture f("test1");
  Datapath cur = f.dp;
  for (int step = 0; step < 3; ++step) {
    Move m = best_sharing_move(cur, f.cx);
    if (!m.valid) m = best_splitting_move(cur, f.cx);
    if (!m.valid) break;
    cur = std::move(m.result);
    ASSERT_EQ(cur.fingerprint(), cur.fingerprint_scratch()) << "step " << step;
  }
}

}  // namespace
}  // namespace hsyn
