// The compiled trace-replay kernel (power/replay.h): program compilation,
// packed toggle counting, and -- the load-bearing property -- bit
// identity between the compiled kernel and the reference interpreter
// (replay_oracle.h) on every behavior of every bundled benchmark, at
// every thread count, through the full synthesis flow.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "benchmarks/benchmarks.h"
#include "eval/engine.h"
#include "power/estimator.h"
#include "power/replay.h"
#include "power/trace.h"
#include "random_dfg.h"
#include "replay_oracle.h"
#include "runtime/arena.h"
#include "runtime/thread_pool.h"
#include "synth/report.h"
#include "synth/synthesizer.h"
#include "util/rng.h"

namespace hsyn {
namespace {

/// Behavior resolver backed by a Design.
BehaviorResolver design_resolver(const Design& d) {
  return [&d](const std::string& name) -> const Dfg* {
    return d.has_behavior(name) ? &d.behavior(name) : nullptr;
  };
}

const BehaviorResolver kNoHier = [](const std::string&) -> const Dfg* {
  return nullptr;
};

using testing_support::oracle_eval_matrix;

// ---- Packed toggle counting ---------------------------------------------

int scalar_toggles(const std::vector<std::int32_t>& v) {
  int total = 0;
  for (std::size_t t = 1; t < v.size(); ++t) {
    total += hamming16(v[t - 1], v[t]);
  }
  return total;
}

TEST(PackedToggles, MatchesScalarHamming) {
  Rng rng(7);
  for (const std::size_t n : {0u, 1u, 2u, 3u, 4u, 5u, 7u, 8u, 9u, 31u, 64u,
                              100u, 257u}) {
    std::vector<std::int32_t> v(n);
    for (auto& x : v) x = mask16(static_cast<std::int64_t>(rng.next()));
    EXPECT_EQ(toggle_count(v.data(), v.size()), scalar_toggles(v))
        << "length " << n;
  }
}

TEST(PackedToggles, ShortStreamsAreZero) {
  const std::int32_t one = 0x5A5A & 0xFFFF;
  EXPECT_EQ(toggle_count(nullptr, 0), 0);
  EXPECT_EQ(toggle_count(&one, 1), 0);
}

TEST(PackedHammingTuple, MatchesScalarWithZeroPadding) {
  Rng rng(11);
  for (const std::size_t na : {0u, 1u, 2u, 3u, 4u, 5u, 9u}) {
    for (const std::size_t nb : {0u, 1u, 2u, 3u, 4u, 5u, 9u}) {
      std::vector<std::int32_t> a(na), b(nb);
      for (auto& x : a) x = mask16(static_cast<std::int64_t>(rng.next()));
      for (auto& x : b) x = mask16(static_cast<std::int64_t>(rng.next()));
      int want = 0;
      for (std::size_t i = 0; i < std::max(na, nb); ++i) {
        want += hamming16(i < na ? a[i] : 0, i < nb ? b[i] : 0);
      }
      EXPECT_EQ(hamming_tuple(a.data(), na, b.data(), nb), want)
          << na << " vs " << nb;
    }
  }
}

// ---- Program compilation ------------------------------------------------

TEST(ReplayProgramTest, CompilesBinaryDfg) {
  Dfg d("g", 2, 1);
  const int a = d.connect({kPrimaryIn, 0}, {});
  const int b = d.connect({kPrimaryIn, 1}, {});
  const int n = d.add_node(Op::Add);
  d.add_consumer(a, {n, 0});
  d.add_consumer(b, {n, 1});
  d.connect({n, 0}, {{kPrimaryOut, 0}});
  d.validate();

  const ReplayProgram p = compile_replay(d);
  EXPECT_EQ(p.dfg_hash, d.content_hash());
  EXPECT_EQ(p.num_inputs, 2);
  EXPECT_EQ(p.num_outputs, 1);
  EXPECT_EQ(p.num_edges, 3);
  ASSERT_EQ(p.steps.size(), 1u);
  EXPECT_EQ(p.steps[0].op, Op::Add);
  EXPECT_TRUE(p.hier_calls.empty());
}

TEST(ReplayProgramTest, UnaryOpsShareOneConstantSlot) {
  // Two Neg nodes: both take the pooled constant 0 as their second
  // operand, and the pool must deduplicate it.
  Dfg d("g", 1, 2);
  const int a = d.connect({kPrimaryIn, 0}, {});
  const int n1 = d.add_node(Op::Neg);
  const int n2 = d.add_node(Op::Neg);
  d.add_consumer(a, {n1, 0});
  const int m = d.connect({n1, 0}, {{kPrimaryOut, 0}});
  d.add_consumer(m, {n2, 0});
  d.connect({n2, 0}, {{kPrimaryOut, 1}});
  d.validate();

  const ReplayProgram p = compile_replay(d);
  ASSERT_EQ(p.consts.size(), 1u);
  EXPECT_EQ(p.consts[0], 0);
  ASSERT_EQ(p.steps.size(), 2u);
  EXPECT_EQ(p.steps[0].b, p.num_edges);  // both read the pooled zero
  EXPECT_EQ(p.steps[1].b, p.num_edges);
}

TEST(ReplayProgramTest, MemoizedByContentHash) {
  const Dfg d1 = testing_support::random_dfg(3, 12);
  const Dfg d2 = testing_support::random_dfg(3, 12);  // same content
  const Dfg d3 = testing_support::random_dfg(4, 12);
  const auto p1 = replay_program_of(d1);
  const auto p2 = replay_program_of(d2);
  const auto p3 = replay_program_of(d3);
  EXPECT_EQ(p1.get(), p2.get());  // one compile per content hash
  EXPECT_NE(p1.get(), p3.get());
}

// ---- Kernel vs oracle, small shapes -------------------------------------

void expect_same_matrix(const Dfg& d, const BehaviorResolver& res,
                        const Trace& tr) {
  const EdgeMatrix compiled = replay_eval_matrix(d, res, tr);
  const EdgeMatrix oracle = oracle_eval_matrix(d, res, tr);
  ASSERT_EQ(compiled.num_edges(), oracle.num_edges());
  ASSERT_EQ(compiled.samples(), oracle.samples());
  EXPECT_EQ(compiled, oracle) << d.name();
}

TEST(ReplayEquivalence, PassThroughDfg) {
  Dfg d("wire", 1, 1);
  d.connect({kPrimaryIn, 0}, {{kPrimaryOut, 0}});
  d.validate();
  expect_same_matrix(d, kNoHier, make_trace(1, 9, 21));
}

TEST(ReplayEquivalence, UnaryNegDfg) {
  Dfg d("neg", 1, 1);
  const int a = d.connect({kPrimaryIn, 0}, {});
  const int n = d.add_node(Op::Neg);
  d.add_consumer(a, {n, 0});
  d.connect({n, 0}, {{kPrimaryOut, 0}});
  d.validate();
  const Trace tr = make_trace(1, 16, 22);
  expect_same_matrix(d, kNoHier, tr);
  const EdgeMatrix m = replay_eval_matrix(d, kNoHier, tr);
  for (std::size_t t = 0; t < tr.size(); ++t) {
    EXPECT_EQ(m.at(1, t), eval_op(Op::Neg, tr[t][0], 0));
  }
}

TEST(ReplayEquivalence, EmptyTrace) {
  const Dfg d = testing_support::random_dfg(5, 10);
  const EdgeMatrix m = replay_eval_matrix(d, kNoHier, Trace{});
  EXPECT_EQ(m.samples(), 0u);
  EXPECT_EQ(m.num_edges(), static_cast<int>(d.edges().size()));
  expect_same_matrix(d, kNoHier, Trace{});
}

TEST(ReplayEquivalence, SingleSampleTrace) {
  const Dfg d = testing_support::random_dfg(6, 10);
  expect_same_matrix(d, kNoHier, make_trace(d.num_inputs(), 1, 23));
}

TEST(ReplayEquivalence, RandomDfgs) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const Dfg d = testing_support::random_dfg(seed, 4 + 3 * static_cast<int>(seed));
    expect_same_matrix(d, kNoHier, make_trace(d.num_inputs(), 24, seed));
  }
}

TEST(ReplayEquivalence, RandomDfgsAtEveryLength) {
  // Every trace length 0..257: empty batches, lengths that leave ragged
  // tails after any unrolled or vectorized loop body, and full bodies.
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const Dfg d =
        testing_support::random_dfg(seed, 6 + 4 * static_cast<int>(seed));
    const Trace full = make_trace(d.num_inputs(), 257, 300 + seed);
    for (std::size_t T = 0; T <= full.size(); ++T) {
      const Trace tr(full.begin(), full.begin() + static_cast<std::ptrdiff_t>(T));
      ASSERT_EQ(replay_eval_matrix(d, kNoHier, tr),
                oracle_eval_matrix(d, kNoHier, tr))
          << "seed " << seed << " T " << T;
    }
  }
}

TEST(ReplayEquivalence, HierOutputArityMismatchThrows) {
  // The call site declares two outputs; the resolver hands back a child
  // with only one. Both evaluators must refuse instead of reading past
  // the child's output list.
  Dfg child("kid", 1, 1);
  const int ci = child.connect({kPrimaryIn, 0}, {});
  const int neg = child.add_node(Op::Neg);
  child.add_consumer(ci, {neg, 0});
  child.connect({neg, 0}, {{kPrimaryOut, 0}});
  child.validate();

  Dfg top("top", 1, 2);
  const int h = top.add_hier_node("kid", 1, 2);
  top.connect({kPrimaryIn, 0}, {{h, 0}});
  top.connect({h, 0}, {{kPrimaryOut, 0}});
  top.connect({h, 1}, {{kPrimaryOut, 1}});
  top.validate();

  const BehaviorResolver res = [&child](const std::string&) -> const Dfg* {
    return &child;
  };
  const Trace tr = make_trace(1, 4, 29);
  EXPECT_THROW(eval_dfg(top, res, tr), std::logic_error);
  EXPECT_THROW(oracle_eval_matrix(top, res, tr), std::logic_error);
}

// ---- Kernel vs oracle, bundled benchmarks -------------------------------

class ReplayBenchmarkEquivalence
    : public ::testing::TestWithParam<std::string> {};

TEST_P(ReplayBenchmarkEquivalence, TopBehaviorMatchesInterpreter) {
  const Library lib = default_library();
  const Benchmark bench = make_benchmark(GetParam(), lib);
  const Dfg& top = bench.design.top();
  const BehaviorResolver res = design_resolver(bench.design);
  expect_same_matrix(top, res, make_trace(top.num_inputs(), 32, 97));
}

TEST_P(ReplayBenchmarkEquivalence, CompiledIsThreadCountInvariant) {
  const Library lib = default_library();
  const Benchmark bench = make_benchmark(GetParam(), lib);
  const Dfg& top = bench.design.top();
  const BehaviorResolver res = design_resolver(bench.design);
  const Trace tr = make_trace(top.num_inputs(), 33, 98);  // odd length
  const int before = runtime::threads();
  runtime::set_threads(1);
  const EdgeMatrix m1 = replay_eval_matrix(top, res, tr);
  runtime::set_threads(2);
  const EdgeMatrix m2 = replay_eval_matrix(top, res, tr);
  runtime::set_threads(8);
  const EdgeMatrix m8 = replay_eval_matrix(top, res, tr);
  runtime::set_threads(before);
  EXPECT_EQ(m1, m2);
  EXPECT_EQ(m1, m8);
}

TEST_P(ReplayBenchmarkEquivalence, EveryBehaviorMatchesOracleAtEveryThreadCount) {
  // Not only top(): every behavior, including leaf children and
  // equivalence-class variants the search may swap in.
  const Library lib = default_library();
  const Benchmark bench = make_benchmark(GetParam(), lib);
  const BehaviorResolver res = design_resolver(bench.design);
  const int before = runtime::threads();
  for (const std::string& name : bench.design.behavior_names()) {
    const Dfg& dfg = bench.design.behavior(name);
    const Trace tr = make_trace(dfg.num_inputs(), 33, 98);  // odd length
    const EdgeMatrix golden = oracle_eval_matrix(dfg, res, tr);
    for (const int threads : {1, 2, 8}) {
      runtime::set_threads(threads);
      EXPECT_EQ(replay_eval_matrix(dfg, res, tr), golden)
          << name << " @ " << threads << " threads";
    }
  }
  runtime::set_threads(before);
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, ReplayBenchmarkEquivalence,
                         ::testing::Values("avenhaus_cascade", "lat", "dct",
                                           "iir", "hier_paulin", "test1",
                                           "fir16", "dct2d"));

// ---- Full synthesis bit-identity ----------------------------------------

SynthOptions quick_opts() {
  SynthOptions o;
  o.max_passes = 2;
  o.max_moves_per_pass = 6;
  o.max_candidates = 8;
  o.trace_samples = 16;
  o.max_clocks = 2;
  return o;
}

struct SynthSnapshot {
  double area = 0, energy = 0, power = 0;
  int makespan = 0, deadline = 0;
  double vdd = 0, clk = 0;
  std::string summary;  // report text minus the wall-clock line

  friend bool operator==(const SynthSnapshot&, const SynthSnapshot&) = default;
};

SynthSnapshot run_synthesis(int threads) {
  eval::EvalEngine::instance().clear();  // every run replays from scratch
  const int before = runtime::threads();
  runtime::set_threads(threads);
  const Library lib = default_library();
  const Benchmark bench = make_benchmark("hier_paulin", lib);
  const double ts = 1.8 * min_sample_period_ns(bench.design, lib);
  const SynthResult r =
      synthesize(bench.design, lib, &bench.clib, ts, Objective::Power,
                 Mode::Hierarchical, quick_opts());
  runtime::set_threads(before);
  EXPECT_TRUE(r.ok) << r.fail_reason;
  SynthSnapshot s;
  s.area = r.area;
  s.energy = r.energy;
  s.power = r.power;
  s.makespan = r.makespan;
  s.deadline = r.deadline_cycles;
  s.vdd = r.pt.vdd;
  s.clk = r.pt.clk_ns;
  std::istringstream in(result_summary(r, lib));
  for (std::string line; std::getline(in, line);) {
    if (line.find("time") != std::string::npos) continue;  // wall clock
    s.summary += line;
    s.summary += '\n';
  }
  return s;
}

TEST(ReplaySynthesisIdentity, BitIdenticalAcrossThreadCounts) {
  const SynthSnapshot golden = run_synthesis(1);
  for (const int threads : {2, 8}) {
    EXPECT_EQ(run_synthesis(threads), golden) << threads << " threads";
  }
}

// ---- Per-opcode column loops and toggle counters ------------------------

/// Random 16-bit operand columns; the second also doubles as a shift
/// count (the kernels mask with & 15, so any int32 is a legal operand).
std::pair<std::vector<std::int32_t>, std::vector<std::int32_t>>
random_operands(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::int32_t> a(n), b(n);
  for (auto& x : a) x = mask16(static_cast<std::int64_t>(rng.next()));
  for (auto& x : b) x = mask16(static_cast<std::int64_t>(rng.next()));
  return {std::move(a), std::move(b)};
}

/// One-node DFG: output <- op(in0[, in1]).
Dfg single_op_dfg(Op op) {
  const int arity = op == Op::Neg ? 1 : 2;
  Dfg d("op", arity, 1);
  const int n = d.add_node(op);
  for (int i = 0; i < arity; ++i) d.connect({kPrimaryIn, i}, {{n, i}});
  d.connect({n, 0}, {{kPrimaryOut, 0}});
  d.validate();
  return d;
}

TEST(ReplayKernels, OpKernelsMatchEvalOp) {
  // Each opcode's column loop, driven through a one-node program, must
  // agree with eval_op element by element -- at lengths that leave
  // every possible tail after an unrolled or vectorized loop body.
  for (int op = 0; op < static_cast<int>(Op::Hier); ++op) {
    const Dfg d = single_op_dfg(static_cast<Op>(op));
    const int out = d.primary_output_edge(0);
    for (const std::size_t n :
         {0u, 1u, 2u, 3u, 4u, 5u, 7u, 8u, 9u, 15u, 16u, 17u, 31u, 33u, 257u}) {
      const auto [a, b] = random_operands(n, 1000 + n);
      Trace tr(n);
      for (std::size_t t = 0; t < n; ++t) {
        tr[t] = d.num_inputs() == 2 ? Sample{a[t], b[t]} : Sample{a[t]};
      }
      const EdgeMatrix m = replay_eval_matrix(d, kNoHier, tr);
      for (std::size_t t = 0; t < n; ++t) {
        const std::int32_t want =
            eval_op(static_cast<Op>(op), a[t], d.num_inputs() == 2 ? b[t] : 0);
        ASSERT_EQ(m.at(out, t), want) << "op " << op << " len " << n << " at " << t;
      }
    }
  }
}

TEST(ReplayKernels, ToggleKernelsMatchScalarAtOddLengths) {
  for (const std::size_t n :
       {0u, 1u, 2u, 3u, 5u, 8u, 9u, 16u, 17u, 33u, 257u}) {
    const auto [a, b] = random_operands(n, 2000 + n);
    int want_tc = 0;
    for (std::size_t i = 1; i < n; ++i) want_tc += hamming16(a[i - 1], a[i]);
    EXPECT_EQ(toggle_count(a.data(), n), want_tc) << "toggle_count len " << n;
    int want_hp = 0;
    for (std::size_t i = 0; i < n; ++i) want_hp += hamming16(a[i], b[i]);
    EXPECT_EQ(hamming_pair(a.data(), b.data(), n), want_hp)
        << "hamming_pair len " << n;
  }
}

// ---- Fused toggle gather -------------------------------------------------

TEST(FusedToggle, GatherMatchesBufferedInterleave) {
  Rng rng(31);
  for (const std::size_t n_cols : {1u, 2u, 3u, 4u, 5u}) {
    for (const std::size_t T : {0u, 1u, 2u, 3u, 8u, 33u, 257u}) {
      std::vector<std::vector<std::int32_t>> cols(
          n_cols, std::vector<std::int32_t>(T));
      std::vector<const std::int32_t*> ptrs;
      for (auto& c : cols) {
        for (auto& x : c) x = mask16(static_cast<std::int64_t>(rng.next()));
        ptrs.push_back(c.data());
      }
      // The reference: materialize the sample-major interleave the
      // estimator used to build in its arena, count that.
      std::vector<std::int32_t> buf;
      buf.reserve(n_cols * T);
      for (std::size_t t = 0; t < T; ++t) {
        for (std::size_t c = 0; c < n_cols; ++c) buf.push_back(cols[c][t]);
      }
      EXPECT_EQ(toggle_count_gather(ptrs.data(), n_cols, T),
                toggle_count(buf.data(), buf.size()))
          << "n_cols " << n_cols << " T " << T;
    }
  }
}

TEST(FusedToggle, EmptyShapesAreZero) {
  const std::int32_t v = 42;
  const std::int32_t* col = &v;
  EXPECT_EQ(toggle_count_gather(nullptr, 0, 5), 0);
  EXPECT_EQ(toggle_count_gather(&col, 1, 0), 0);
  EXPECT_EQ(toggle_count_gather(&col, 1, 1), 0);  // one event never toggles
}

TEST(FusedToggle, HammingPairMatchesScalar) {
  Rng rng(41);
  for (const std::size_t n : {0u, 1u, 7u, 8u, 9u, 64u, 129u}) {
    std::vector<std::int32_t> a(n), b(n);
    for (auto& x : a) x = mask16(static_cast<std::int64_t>(rng.next()));
    for (auto& x : b) x = mask16(static_cast<std::int64_t>(rng.next()));
    int want = 0;
    for (std::size_t i = 0; i < n; ++i) want += hamming16(a[i], b[i]);
    EXPECT_EQ(hamming_pair(a.data(), b.data(), n), want) << "length " << n;
  }
}

// ---- EdgeMatrix transpose ------------------------------------------------

TEST(EdgeMatrixTest, RowsMatchesAt) {
  // 37 x 129 straddles the 64-wide transpose tiles in both dimensions.
  Rng rng(53);
  EdgeMatrix m(37, 129);
  for (int e = 0; e < m.num_edges(); ++e) {
    std::int32_t* c = m.col_mut(e);
    for (std::size_t t = 0; t < m.samples(); ++t) {
      c[t] = mask16(static_cast<std::int64_t>(rng.next()));
    }
  }
  const auto rows = m.rows();
  ASSERT_EQ(rows.size(), m.samples());
  for (std::size_t t = 0; t < m.samples(); ++t) {
    ASSERT_EQ(rows[t].size(), static_cast<std::size_t>(m.num_edges()));
    for (int e = 0; e < m.num_edges(); ++e) {
      ASSERT_EQ(rows[t][static_cast<std::size_t>(e)], m.at(e, t))
          << "edge " << e << " sample " << t;
    }
  }
}

// ---- Arena ---------------------------------------------------------------

TEST(ArenaTest, FramesNestAndReleaseInLifoOrder) {
  runtime::Arena& a = runtime::Arena::local();
  runtime::Arena::Frame outer(a);
  std::int32_t* x = a.alloc_i32(100);
  x[0] = 1;
  x[99] = 2;
  {
    runtime::Arena::Frame inner(a);
    std::int32_t* y = a.alloc_i32(1 << 16);
    y[0] = 3;
    y[(1 << 16) - 1] = 4;
  }
  // The outer allocation survives the inner frame.
  EXPECT_EQ(x[0], 1);
  EXPECT_EQ(x[99], 2);
  std::int32_t* z = a.alloc_i32(8);
  z[7] = 5;
  EXPECT_EQ(z[7], 5);
  EXPECT_GT(a.reserved(), 0u);
}

}  // namespace
}  // namespace hsyn
