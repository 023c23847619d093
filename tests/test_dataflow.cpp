// Dataflow framework (check/dataflow.h): known-bits and range transfer
// functions, liveness, trace seeding, eval-cache sharing, and the
// soundness contract against the concrete replay evaluator.
#include <gtest/gtest.h>

#include "benchmarks/benchmarks.h"
#include "check/check.h"
#include "check/dataflow.h"
#include "dfg/design.h"
#include "dfg/dfg.h"
#include "eval/engine.h"
#include "power/trace.h"
#include "random_dfg.h"

namespace hsyn {
namespace {

using lint::DataflowFacts;
using lint::EdgeFact;
using lint::KnownBits;

// out = (a + b) * c
Dfg simple_dfg() {
  Dfg d("simple", 3, 1);
  const int add = d.add_node(Op::Add);
  const int mul = d.add_node(Op::Mult);
  d.connect({kPrimaryIn, 0}, {{add, 0}});
  d.connect({kPrimaryIn, 1}, {{add, 1}});
  d.connect({kPrimaryIn, 2}, {{mul, 1}});
  d.connect({add, 0}, {{mul, 0}});
  d.connect({mul, 0}, {{kPrimaryOut, 0}});
  d.validate();
  return d;
}

/// Trace where every input channel holds one constant value.
Trace constant_trace(std::vector<std::int32_t> channels, int samples = 4) {
  Trace t;
  for (int s = 0; s < samples; ++s) t.emplace_back(channels);
  return t;
}

TEST(Dataflow, UnconstrainedInputsYieldFullFacts) {
  const Dfg d = simple_dfg();
  const DataflowFacts f = lint::analyze_dfg_scratch(d, nullptr);
  ASSERT_EQ(f.edges.size(), d.edges().size());
  EXPECT_FALSE(f.incomplete);
  for (const EdgeFact& e : f.edges) {
    EXPECT_TRUE(e.range.is_full());
    EXPECT_EQ(e.bits.known(), 0u);
    EXPECT_TRUE(e.live);
  }
}

TEST(Dataflow, ConstantTraceFoldsTheWholeGraph) {
  const Dfg d = simple_dfg();
  const Trace t = constant_trace({3, 5, 7});
  const DataflowFacts f = lint::analyze_dfg_scratch(d, nullptr, &t);
  const EdgeFact& out = f.edges[static_cast<std::size_t>(
      d.primary_output_edge(0))];
  ASSERT_TRUE(out.is_constant());
  EXPECT_EQ(out.constant(), (3 + 5) * 7);
  EXPECT_EQ(out.range.lo, (3 + 5) * 7);
  EXPECT_EQ(out.range.hi, (3 + 5) * 7);
}

TEST(Dataflow, ConstantsWrapLikeTheEvaluator) {
  // 30000 + 30000 wraps in the 16-bit datapath word.
  Dfg d("wrap", 2, 1);
  const int add = d.add_node(Op::Add);
  d.connect({kPrimaryIn, 0}, {{add, 0}});
  d.connect({kPrimaryIn, 1}, {{add, 1}});
  d.connect({add, 0}, {{kPrimaryOut, 0}});
  d.validate();
  const Trace t = constant_trace({30000, 30000});
  const DataflowFacts f = lint::analyze_dfg_scratch(d, nullptr, &t);
  const EdgeFact& out = f.edges[static_cast<std::size_t>(
      d.primary_output_edge(0))];
  ASSERT_TRUE(out.is_constant());
  EXPECT_EQ(out.constant(), mask16(60000));
}

TEST(Dataflow, RangesTightenWithoutConstants) {
  // Inputs in [0, 10] and [1, 3]: sum in [1, 13], Cmp output in [0, 1].
  Dfg d("ranges", 2, 2);
  const int add = d.add_node(Op::Add);
  const int cmp = d.add_node(Op::Cmp);
  d.connect({kPrimaryIn, 0}, {{add, 0}, {cmp, 0}});
  d.connect({kPrimaryIn, 1}, {{add, 1}, {cmp, 1}});
  d.connect({add, 0}, {{kPrimaryOut, 0}});
  d.connect({cmp, 0}, {{kPrimaryOut, 1}});
  d.validate();
  Trace t;
  for (int s = 0; s <= 10; ++s) t.push_back({s, 1 + (s % 3)});
  const DataflowFacts f = lint::analyze_dfg_scratch(d, nullptr, &t);
  const EdgeFact& sum = f.edges[static_cast<std::size_t>(
      d.primary_output_edge(0))];
  EXPECT_EQ(sum.range.lo, 1);
  EXPECT_EQ(sum.range.hi, 13);
  const EdgeFact& flag = f.edges[static_cast<std::size_t>(
      d.primary_output_edge(1))];
  EXPECT_GE(flag.range.lo, 0);
  EXPECT_LE(flag.range.hi, 1);
  // 0/1 output: the top 15 bits are provably zero.
  EXPECT_GE(flag.bits.num_known(), 15);
}

TEST(Dataflow, SubOfSameEdgeIsZero) {
  Dfg d("sub0", 1, 1);
  const int sub = d.add_node(Op::Sub);
  d.connect({kPrimaryIn, 0}, {{sub, 0}, {sub, 1}});
  d.connect({sub, 0}, {{kPrimaryOut, 0}});
  d.validate();
  const DataflowFacts f = lint::analyze_dfg_scratch(d, nullptr);
  const EdgeFact& out = f.edges[static_cast<std::size_t>(
      d.primary_output_edge(0))];
  ASSERT_TRUE(out.is_constant());
  EXPECT_EQ(out.constant(), 0);
}

TEST(Dataflow, DeadNodeAndDeadInputAreNotLive) {
  // add feeds the output; mul consumes both inputs but feeds nothing.
  Dfg d("deadish", 2, 1);
  const int add = d.add_node(Op::Add);
  const int mul = d.add_node(Op::Mult);
  d.connect({kPrimaryIn, 0}, {{add, 0}, {mul, 0}});
  d.connect({kPrimaryIn, 1}, {{add, 1}, {mul, 1}});
  d.connect({add, 0}, {{kPrimaryOut, 0}});
  d.connect({mul, 0}, {});
  d.validate();
  const DataflowFacts f = lint::analyze_dfg_scratch(d, nullptr);
  EXPECT_TRUE(f.node_live[static_cast<std::size_t>(add)]);
  EXPECT_FALSE(f.node_live[static_cast<std::size_t>(mul)]);
  // Both inputs still reach the output through the adder.
  EXPECT_TRUE(f.input_live[0]);
  EXPECT_TRUE(f.input_live[1]);
  EXPECT_FALSE(f.edges[static_cast<std::size_t>(d.output_edge(mul, 0))].live);
}

TEST(Dataflow, CachedAnalysisIsShared) {
  const Dfg d = simple_dfg();
  const auto a = lint::analyze_dfg(d);
  const auto b = lint::analyze_dfg(d);
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a.get(), b.get());  // second call is a cache hit
  EXPECT_EQ(a->dfg_hash, d.content_hash());
  // A trace-seeded query is a distinct cache entry.
  const Trace t = constant_trace({1, 2, 3});
  const auto c = lint::analyze_dfg(d, nullptr, t);
  ASSERT_NE(c, nullptr);
  EXPECT_NE(a.get(), c.get());

  // A corpus of random DFGs plus every bundled design's top (hierarchy
  // resolved): a cold pass from cleared caches, then a warm pass whose
  // every answer is the shared cold entry.
  std::vector<Dfg> corpus;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    corpus.push_back(
        testing_support::random_dfg(seed, 4 + static_cast<int>(seed % 28)));
  }
  const Library lib = default_library();
  std::vector<Design> designs;
  for (const char* name : {"avenhaus_cascade", "lat", "dct", "iir",
                           "hier_paulin", "test1", "fir16", "dct2d"}) {
    designs.push_back(make_benchmark(name, lib).design);
  }
  const auto analyze_all = [&] {
    std::vector<std::shared_ptr<const DataflowFacts>> facts;
    for (const Dfg& g : corpus) facts.push_back(lint::analyze_dfg(g));
    for (const Design& ds : designs) {
      const BehaviorResolver res = [&ds](const std::string& n) -> const Dfg* {
        return ds.has_behavior(n) ? &ds.behavior(n) : nullptr;
      };
      facts.push_back(lint::analyze_dfg(ds.top(), res));
    }
    return facts;
  };
  eval::EvalEngine::instance().clear();
  const auto cold = analyze_all();
  const auto warm = analyze_all();
  ASSERT_EQ(cold.size(), warm.size());
  for (std::size_t i = 0; i < cold.size(); ++i) {
    ASSERT_NE(cold[i], nullptr) << "input " << i;
    EXPECT_EQ(cold[i].get(), warm[i].get()) << "input " << i;
  }
}

TEST(Dataflow, HierChildSummaryResolvesThroughResolver) {
  // child: out = a - a (constant 0 for any input).
  Dfg child("zero", 1, 1);
  const int sub = child.add_node(Op::Sub);
  child.connect({kPrimaryIn, 0}, {{sub, 0}, {sub, 1}});
  child.connect({sub, 0}, {{kPrimaryOut, 0}});
  child.validate();
  Dfg top("calls", 1, 1);
  const int h = top.add_hier_node("zero", 1, 1);
  top.connect({kPrimaryIn, 0}, {{h, 0}});
  top.connect({h, 0}, {{kPrimaryOut, 0}});
  top.validate();
  const BehaviorResolver res = [&](const std::string& n) -> const Dfg* {
    return n == "zero" ? &child : nullptr;
  };
  const DataflowFacts f = lint::analyze_dfg_scratch(top, res);
  EXPECT_FALSE(f.incomplete);
  const lint::EdgeFact& out = f.edges[static_cast<std::size_t>(
      top.primary_output_edge(0))];
  ASSERT_TRUE(out.is_constant());
  EXPECT_EQ(out.constant(), 0);
  // Without a resolver the child degrades to unconstrained facts.
  const DataflowFacts g = lint::analyze_dfg_scratch(top, nullptr);
  EXPECT_TRUE(g.incomplete);
  EXPECT_TRUE(g.edges[static_cast<std::size_t>(top.primary_output_edge(0))]
                  .range.is_full());
}

// The soundness contract: for every sample of a stimulus, every concrete
// edge value lies inside the abstract fact computed with the stimulus as
// the input seed.
TEST(Dataflow, FactsContainReplayValuesOnRandomDfgs) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const Dfg d = testing_support::random_dfg(seed, 4 + seed % 12);
    const Trace t = make_trace(d.num_inputs(), 16, seed * 977 + 5);
    const DataflowFacts f = lint::analyze_dfg_scratch(d, nullptr, &t);
    const auto samples = eval_dfg_edges(d, nullptr, t);  // [sample][edge]
    for (const auto& row : samples) {
      ASSERT_EQ(row.size(), f.edges.size());
      for (std::size_t e = 0; e < row.size(); ++e) {
        const EdgeFact& fact = f.edges[e];
        const std::int32_t v = row[e];
        ASSERT_TRUE(fact.range.contains(v))
            << "seed " << seed << " edge " << e << ": value " << v
            << " outside [" << fact.range.lo << ", " << fact.range.hi << "]";
        const auto u = static_cast<std::uint16_t>(v & 0xFFFF);
        ASSERT_EQ(u & fact.bits.zeros, 0)
            << "seed " << seed << " edge " << e << ": provably-zero bit set";
        ASSERT_EQ(static_cast<std::uint16_t>(~u) & fact.bits.ones, 0)
            << "seed " << seed << " edge " << e << ": provably-one bit clear";
      }
    }
  }
}

TEST(KnownBitsUnit, ConstantRoundTrips) {
  const KnownBits k = KnownBits::constant(-5);
  EXPECT_TRUE(k.all_known());
  EXPECT_EQ(mask16(k.ones), -5);
  EXPECT_EQ(KnownBits::top().known(), 0u);
}

}  // namespace
}  // namespace hsyn
