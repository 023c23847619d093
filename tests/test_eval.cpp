// The evaluation pipeline (src/eval/): sharded LRU cache semantics, the
// process-wide EvalEngine, dirty-region incremental connectivity, the
// bounded template cache, stats integration, and the regression for the
// old pointer-keyed DFG evaluation memo.
//
// The EvalCacheStress suite hammers the shared cache from many raw
// threads; CI runs it under ThreadSanitizer.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "benchmarks/benchmarks.h"
#include "eval/cache.h"
#include "eval/engine.h"
#include "obs/metrics.h"
#include "power/estimator.h"
#include "power/replay.h"
#include "power/trace.h"
#include "random_dfg.h"
#include "rtl/cost.h"
#include "sched/scheduler.h"
#include "synth/initial.h"
#include "synth/moves.h"
#include "util/rng.h"

namespace hsyn {
namespace {

using eval::Key;
using eval::ShardedLruCache;

const OpPoint kRef{5.0, 20.0};

// ---- ShardedLruCache ----------------------------------------------------

TEST(ShardedLruCache, MissThenHitReturnsStoredValue) {
  ShardedLruCache<int> c(1 << 20);
  const Key k{1, 2, 3};
  EXPECT_FALSE(c.get(k).has_value());
  c.put(k, 42, 8);
  const auto v = c.get(k);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 42);
  const auto n = c.counters();
  EXPECT_EQ(n.hits, 1u);
  EXPECT_EQ(n.misses, 1u);
  EXPECT_EQ(n.insertions, 1u);
  EXPECT_EQ(n.entries, 1u);
  EXPECT_GT(n.bytes, 0u);
}

TEST(ShardedLruCache, KeyFieldsAreComparedExactly) {
  // Permutations of one triple are distinct keys: the fields are never
  // pre-mixed into a single word.
  ShardedLruCache<int> c(1 << 20);
  c.put({1, 2, 3}, 1, 8);
  c.put({3, 2, 1}, 2, 8);
  c.put({2, 1, 3}, 3, 8);
  EXPECT_EQ(*c.get({1, 2, 3}), 1);
  EXPECT_EQ(*c.get({3, 2, 1}), 2);
  EXPECT_EQ(*c.get({2, 1, 3}), 3);
}

TEST(ShardedLruCache, PutRefreshesExistingKeyWithoutNewEntry) {
  ShardedLruCache<int> c(1 << 20);
  const Key k{5, 0, 0};
  c.put(k, 1, 8);
  c.put(k, 2, 8);
  EXPECT_EQ(*c.get(k), 2);
  const auto n = c.counters();
  EXPECT_EQ(n.insertions, 1u);
  EXPECT_EQ(n.entries, 1u);
}

TEST(ShardedLruCache, EvictsUnderPressureButKeepsNewest) {
  // Zero budget: every shard still keeps its most recent entry (an
  // oversized value is admitted alone rather than thrashing).
  ShardedLruCache<int> c(0);
  for (std::uint64_t i = 0; i < 100; ++i) {
    c.put({i, 0, 0}, static_cast<int>(i), 64);
  }
  const auto n = c.counters();
  EXPECT_LE(n.entries, 16u);  // at most one survivor per shard
  EXPECT_GE(n.evictions, 100u - 16u);
}

TEST(ShardedLruCache, OversizedEntryIsAdmitted) {
  ShardedLruCache<int> c(256);
  c.put({7, 7, 7}, 7, 1 << 20);
  EXPECT_TRUE(c.get({7, 7, 7}).has_value());
}

TEST(ShardedLruCache, SetCapacityEvictsImmediately) {
  ShardedLruCache<int> c(1 << 20);
  for (std::uint64_t i = 0; i < 64; ++i) c.put({i, 0, 0}, 1, 1024);
  EXPECT_EQ(c.counters().entries, 64u);
  c.set_capacity(0);
  EXPECT_LE(c.counters().entries, 16u);
}

TEST(ShardedLruCache, ClearDropsEntriesKeepsCounters) {
  ShardedLruCache<int> c(1 << 20);
  c.put({1, 1, 1}, 1, 8);
  c.get({1, 1, 1});
  c.clear();
  EXPECT_FALSE(c.get({1, 1, 1}).has_value());
  const auto n = c.counters();
  EXPECT_EQ(n.entries, 0u);
  EXPECT_EQ(n.bytes, 0u);
  EXPECT_EQ(n.hits, 1u);  // history survives explicit invalidation
}

TEST(ShardedLruCache, CrossThreadHitIsCounted) {
  ShardedLruCache<int> c(1 << 20);
  c.put({9, 9, 9}, 1, 8);
  EXPECT_TRUE(c.get({9, 9, 9}).has_value());  // same-thread hit
  EXPECT_EQ(c.counters().cross_thread_hits, 0u);
  std::thread t([&c] { EXPECT_TRUE(c.get({9, 9, 9}).has_value()); });
  t.join();
  EXPECT_EQ(c.counters().cross_thread_hits, 1u);
}

// ---- Trace fingerprints -------------------------------------------------

TEST(TraceFingerprint, SensitiveToContentAndShape) {
  const Trace t = make_trace(3, 8, 11);
  EXPECT_EQ(trace_fingerprint(t), trace_fingerprint(Trace(t)));

  Trace bumped = t;
  bumped[0][0] ^= 1;
  EXPECT_NE(trace_fingerprint(bumped), trace_fingerprint(t));

  Trace shorter = t;
  shorter.pop_back();
  EXPECT_NE(trace_fingerprint(shorter), trace_fingerprint(t));

  EXPECT_NE(trace_fingerprint(make_trace(3, 8, 12)), trace_fingerprint(t));
}

// ---- DFG evaluation through the shared cache ----------------------------

std::unique_ptr<Dfg> binary_dfg(Op op) {
  auto d = std::make_unique<Dfg>("g", 2, 1);
  const int a = d->connect({kPrimaryIn, 0}, {});
  const int b = d->connect({kPrimaryIn, 1}, {});
  const int n = d->add_node(op);
  d->add_consumer(a, {n, 0});
  d->add_consumer(b, {n, 1});
  d->connect({n, 0}, {{kPrimaryOut, 0}});
  d->validate();
  return d;
}

const BehaviorResolver kNoHier = [](const std::string&) -> const Dfg* {
  return nullptr;
};

TEST(EvalEngine, DfgAddressReuseCannotAliasCachedValues) {
  // Regression: the pre-refactor evaluation memo keyed entries by the raw
  // `const Dfg*`, so a new graph allocated at a recycled address was
  // served the dead graph's values. The shared cache keys by content
  // hash; rebuilding different same-shape graphs in a loop (the
  // allocator overwhelmingly reuses the freed block) must evaluate each
  // one to its own semantics.
  const Trace tr = make_trace(2, 6, 13);
  static const Op kOps[] = {Op::Add, Op::Mult, Op::Sub, Op::Xor};
  for (int round = 0; round < 12; ++round) {
    const Op op = kOps[round % 4];
    const auto d = binary_dfg(op);
    const auto outs = eval_dfg(*d, kNoHier, tr);
    ASSERT_EQ(outs.size(), tr.size());
    for (std::size_t s = 0; s < tr.size(); ++s) {
      EXPECT_EQ(outs[s][0], eval_op(op, tr[s][0], tr[s][1]))
          << op_name(op) << " round " << round << " sample " << s;
    }
  }
}

TEST(EvalEngine, SharedEdgeValuesAreMemoized) {
  const auto d = binary_dfg(Op::Add);
  const Trace tr = make_trace(2, 6, 17);
  const auto p1 = eval_dfg_edges_shared(*d, kNoHier, tr);
  const auto p2 = eval_dfg_edges_shared(*d, kNoHier, tr);
  EXPECT_EQ(p1.get(), p2.get());  // second call hits: same allocation
  const auto rows = eval_dfg_edges(*d, kNoHier, tr);
  ASSERT_EQ(rows.size(), tr.size());
  for (std::size_t t = 0; t < rows.size(); ++t) {
    ASSERT_EQ(rows[t].size(), static_cast<std::size_t>(p1->num_edges()));
    for (int e = 0; e < p1->num_edges(); ++e) {
      EXPECT_EQ(rows[t][static_cast<std::size_t>(e)], p1->at(e, t));
    }
  }
}

// ---- EvalEngine determinism ---------------------------------------------

struct PaulinFixture {
  Library lib = default_library();
  Design design;
  Datapath dp;

  PaulinFixture() {
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

TEST(EvalEngine, CachedCostsBitIdenticalToRecompute) {
  PaulinFixture f;
  const Trace tr = make_trace(f.dp.behaviors[0].dfg->num_inputs(), 16, 5);
  eval::EvalEngine& eng = eval::EvalEngine::instance();

  eng.clear();
  const EnergyBreakdown e1 = energy_of(f.dp, 0, tr, f.lib, kRef);
  const EnergyBreakdown e2 = energy_of(f.dp, 0, tr, f.lib, kRef);  // hit
  eng.clear();
  const EnergyBreakdown e3 = energy_of(f.dp, 0, tr, f.lib, kRef);  // recompute
  for (const EnergyBreakdown* e : {&e2, &e3}) {
    EXPECT_EQ(e->fu, e1.fu);
    EXPECT_EQ(e->reg, e1.reg);
    EXPECT_EQ(e->mux, e1.mux);
    EXPECT_EQ(e->wire, e1.wire);
    EXPECT_EQ(e->ctrl, e1.ctrl);
    EXPECT_EQ(e->children, e1.children);
  }

  const AreaBreakdown a1 = area_of(f.dp, f.lib);
  eng.clear();
  const AreaBreakdown a2 = area_of(f.dp, f.lib);
  EXPECT_EQ(a1.total(), a2.total());

  // Different operating points must not share energy entries.
  const OpPoint low{3.3, 40.0};
  schedule_datapath(f.dp, f.lib, low, kNoDeadline);
  const EnergyBreakdown el = energy_of(f.dp, 0, tr, f.lib, low);
  EXPECT_NE(el.total(), e1.total());
}

TEST(EvalEngine, ConnectivityIsSharedPerFingerprint) {
  PaulinFixture f;
  eval::EvalEngine& eng = eval::EvalEngine::instance();
  const auto c1 = eng.connectivity(f.dp);
  const auto c2 = eng.connectivity(f.dp);
  EXPECT_EQ(c1.get(), c2.get());  // hit: same shared row set
  EXPECT_TRUE(*c1 == connectivity_of(f.dp));
}

TEST(Library, MutationRefreshesUidCopiesKeepIt) {
  // The library half of every cost key: copies are content-equal and
  // share the uid; any mutating access draws a fresh process-wide id, so
  // stale costs can never be served after a library edit.
  const Library lib = default_library();
  Library copy = lib;
  EXPECT_EQ(copy.uid(), lib.uid());
  const std::uint64_t before = copy.uid();
  copy.costs_mut();
  EXPECT_NE(copy.uid(), before);
  EXPECT_EQ(lib.uid(), before);  // the source is untouched
  Library other = default_library();
  EXPECT_NE(other.uid(), lib.uid());
}

// ---- Dirty-region incremental connectivity ------------------------------

TEST(RefreshConnectivity, UnchangedBindingReproducesBase) {
  PaulinFixture f;
  const Connectivity base = connectivity_of(f.dp);
  DirtyRegion dirty;
  dirty.binding_changed = false;
  EXPECT_TRUE(refresh_connectivity(f.dp, base, dirty) == base);
}

TEST(RefreshConnectivity, RegisterMoveHintMatchesFullRecompute) {
  PaulinFixture f;
  const Connectivity base = connectivity_of(f.dp);
  const BehaviorImpl& bi = f.dp.behaviors[0];
  int e = -1;
  for (std::size_t i = 0; i < bi.edge_reg.size(); ++i) {
    if (bi.edge_reg[i] >= 0) {
      e = static_cast<int>(i);
      break;
    }
  }
  ASSERT_GE(e, 0);

  // split_reg's mutation: the edge moves to a fresh register.
  Datapath cand = f.dp;
  const int old_reg = cand.behaviors[0].edge_reg[static_cast<std::size_t>(e)];
  cand.behaviors[0].edge_reg[static_cast<std::size_t>(e)] =
      static_cast<int>(cand.regs.size());
  cand.regs.push_back({});
  cand.invalidate_fingerprint();

  DirtyRegion dirty;  // the appended register is implicitly dirty
  dirty.regs.push_back(old_reg);
  for (const PortRef& d : bi.dfg->edge(e).dsts) {
    if (d.node < 0) continue;
    const int iv = bi.inv_of(d.node);
    if (iv < 0) continue;
    const UnitRef u = bi.invs[static_cast<std::size_t>(iv)].unit;
    (u.kind == UnitRef::Kind::Fu ? dirty.fus : dirty.children).push_back(u.idx);
  }
  EXPECT_TRUE(refresh_connectivity(cand, base, dirty) == connectivity_of(cand));
}

TEST(RefreshConnectivity, UnitSplitHintMatchesFullRecompute) {
  PaulinFixture f;
  const Connectivity base = connectivity_of(f.dp);
  const BehaviorImpl& bi = f.dp.behaviors[0];
  int iv = -1;
  for (std::size_t i = 0; i < bi.invs.size(); ++i) {
    if (bi.invs[i].unit.kind == UnitRef::Kind::Fu) {
      iv = static_cast<int>(i);
      break;
    }
  }
  ASSERT_GE(iv, 0);

  // split_fu's mutation: the invocation moves to an appended unit copy.
  Datapath cand = f.dp;
  const Invocation& inv = bi.invs[static_cast<std::size_t>(iv)];
  const int old_fu = inv.unit.idx;
  cand.behaviors[0].invs[static_cast<std::size_t>(iv)].unit.idx =
      static_cast<int>(cand.fus.size());
  cand.fus.push_back(cand.fus[static_cast<std::size_t>(old_fu)]);
  cand.invalidate_fingerprint();

  DirtyRegion dirty;
  dirty.fus.push_back(old_fu);
  for (const int nid : inv.nodes) {
    const Node& n = bi.dfg->node(nid);
    for (int p = 0; p < n.num_outputs; ++p) {
      const int oe = bi.dfg->output_edge(nid, p);
      if (oe < 0) continue;
      const int r = bi.edge_reg[static_cast<std::size_t>(oe)];
      if (r >= 0) dirty.regs.push_back(r);
    }
  }
  EXPECT_TRUE(refresh_connectivity(cand, base, dirty) == connectivity_of(cand));
}

/// Connectivity with std::set rows, built the way it was before rows
/// became sorted vectors: the oracle for row contents and order.
struct SetConnectivity {
  std::vector<std::vector<std::set<int>>> fu_port_srcs;
  std::vector<std::vector<std::set<int>>> child_port_srcs;
  std::vector<std::set<SourceKey>> reg_srcs;
};

SetConnectivity set_oracle(const Datapath& dp) {
  SetConnectivity c;
  c.fu_port_srcs.resize(dp.fus.size());
  c.child_port_srcs.resize(dp.children.size());
  c.reg_srcs.resize(dp.regs.size());
  for (std::size_t b = 0; b < dp.behaviors.size(); ++b) {
    const BehaviorImpl& bi = dp.behaviors[b];
    for (std::size_t i = 0; i < bi.invs.size(); ++i) {
      const UnitRef u = bi.invs[i].unit;
      const std::vector<int> ins =
          dp.inv_input_edges(static_cast<int>(b), static_cast<int>(i));
      auto& ports = u.kind == UnitRef::Kind::Fu
                        ? c.fu_port_srcs[static_cast<std::size_t>(u.idx)]
                        : c.child_port_srcs[static_cast<std::size_t>(u.idx)];
      if (ports.size() < ins.size()) ports.resize(ins.size());
      for (std::size_t p = 0; p < ins.size(); ++p) {
        const int r = bi.edge_reg[static_cast<std::size_t>(ins[p])];
        if (r >= 0) ports[p].insert(r);
      }
    }
    for (const Edge& e : bi.dfg->edges()) {
      const int r = bi.edge_reg[static_cast<std::size_t>(e.id)];
      if (r < 0) continue;
      SourceKey k{3, e.src.port, 0};
      if (e.src.node != kPrimaryIn) {
        const UnitRef u =
            bi.invs[static_cast<std::size_t>(bi.inv_of(e.src.node))].unit;
        k = u.kind == UnitRef::Kind::Fu ? SourceKey{1, u.idx, 0}
                                        : SourceKey{2, u.idx, e.src.port};
      }
      c.reg_srcs[static_cast<std::size_t>(r)].insert(k);
    }
  }
  return c;
}

/// Every row of `c` is strictly ascending and holds exactly the oracle's
/// set.
void expect_rows_match(const Connectivity& c, const SetConnectivity& o,
                       const std::string& where) {
  auto same = [](const auto& row, const auto& set) {
    const auto not_ascending = [](const auto& a, const auto& b) { return !(a < b); };
    return std::adjacent_find(row.begin(), row.end(), not_ascending) == row.end() &&
           std::equal(row.begin(), row.end(), set.begin(), set.end());
  };
  auto ports_match = [&](const auto& got, const auto& want, const char* kind) {
    ASSERT_EQ(got.size(), want.size()) << where << " " << kind;
    for (std::size_t u = 0; u < got.size(); ++u) {
      ASSERT_EQ(got[u].size(), want[u].size()) << where << " " << kind << u;
      for (std::size_t p = 0; p < got[u].size(); ++p) {
        EXPECT_TRUE(same(got[u][p], want[u][p]))
            << where << " " << kind << u << " port " << p;
      }
    }
  };
  ports_match(c.fu_port_srcs, o.fu_port_srcs, "fu");
  ports_match(c.child_port_srcs, o.child_port_srcs, "child");
  ASSERT_EQ(c.reg_srcs.size(), o.reg_srcs.size()) << where;
  for (std::size_t r = 0; r < c.reg_srcs.size(); ++r) {
    EXPECT_TRUE(same(c.reg_srcs[r], o.reg_srcs[r])) << where << " reg " << r;
  }
}

/// Random sharing on behavior 0 of `dp`: unit merges (onto units able to
/// execute the invocation), child merges (same behavior), register
/// merges, and now and then a split onto an appended unit or register.
void random_rebind(Datapath& dp, const Library& lib, Rng& rng) {
  BehaviorImpl& bi = dp.behaviors[0];
  for (int m = static_cast<int>(rng.below(4)); m > 0; --m) {
    Invocation& inv = bi.invs[rng.below(bi.invs.size())];
    const Node& n = bi.dfg->node(inv.nodes.front());
    if (inv.unit.kind == UnitRef::Kind::Fu) {
      const int to = static_cast<int>(rng.below(dp.fus.size()));
      if (inv.nodes.size() == 1 &&
          lib.fu(dp.fus[static_cast<std::size_t>(to)].type).supports(n.op)) {
        inv.unit.idx = to;
      }
    } else {
      const int to = static_cast<int>(rng.below(dp.children.size()));
      if (dp.children[static_cast<std::size_t>(to)].impl->find_behavior(
              n.behavior) >= 0) {
        inv.unit.idx = to;
      }
    }
  }
  for (int m = static_cast<int>(rng.below(4)); m > 0 && !dp.regs.empty(); --m) {
    int& r = bi.edge_reg[rng.below(bi.edge_reg.size())];
    if (r >= 0) r = static_cast<int>(rng.below(dp.regs.size()));
  }
  if (rng.below(3) == 0) {
    Invocation& inv = bi.invs[rng.below(bi.invs.size())];
    if (inv.unit.kind == UnitRef::Kind::Fu) {
      dp.fus.push_back(dp.fus[static_cast<std::size_t>(inv.unit.idx)]);
      inv.unit.idx = static_cast<int>(dp.fus.size()) - 1;
    }
  }
  if (rng.below(3) == 0) {
    int& r = bi.edge_reg[rng.below(bi.edge_reg.size())];
    if (r >= 0) {
      dp.regs.push_back({});
      r = static_cast<int>(dp.regs.size()) - 1;
    }
  }
  dp.invalidate_fingerprint();
}

TEST(RefreshConnectivity, SortedRowsMatchSetOracleOnRandomBindings) {
  const Library lib = default_library();
  // Random flat DFGs, plus two bundled hierarchical designs whose child
  // rows and child-output register sources the flat ones never produce.
  std::vector<Benchmark> benches;
  benches.push_back(make_benchmark("iir", lib));
  benches.push_back(make_benchmark("hier_paulin", lib));
  for (std::uint64_t seed = 1; seed <= 42; ++seed) {
    Design random;
    const Design* design = &random;
    const ComplexLibrary* clib = nullptr;
    if (seed <= benches.size()) {
      design = &benches[seed - 1].design;
      clib = &benches[seed - 1].clib;
    } else {
      random.add_behavior(
          testing_support::random_dfg(seed, 5 + static_cast<int>(seed % 12)));
      random.set_top(random.behavior_names().front());
      random.validate();
    }
    SynthContext cx;
    cx.design = design;
    cx.lib = &lib;
    cx.clib = clib;
    cx.pt = kRef;
    cx.deadline = kNoDeadline;
    Rng rng(seed * 104729);
    Datapath base = initial_solution(design->top(), design->top_name(), cx);
    random_rebind(base, lib, rng);
    base.prune_unused();
    const Connectivity base_conn = connectivity_of(base);
    const SetConnectivity before = set_oracle(base);
    const std::string where = "seed " + std::to_string(seed);
    expect_rows_match(base_conn, before, where);
    for (int trial = 0; trial < 6; ++trial) {
      Datapath cand = base;
      random_rebind(cand, lib, rng);
      const SetConnectivity after = set_oracle(cand);
      // A complete hint -- every row whose sources changed -- plus rows
      // that did not change and indices out of range, which are harmless.
      DirtyRegion dirty;
      auto changed = [](const auto& b, const auto& a, std::vector<int>& out) {
        for (std::size_t i = 0; i < a.size() && i < b.size(); ++i) {
          if (a[i] != b[i]) out.push_back(static_cast<int>(i));
        }
      };
      changed(before.fu_port_srcs, after.fu_port_srcs, dirty.fus);
      changed(before.child_port_srcs, after.child_port_srcs, dirty.children);
      changed(before.reg_srcs, after.reg_srcs, dirty.regs);
      if (!cand.fus.empty()) {
        dirty.fus.push_back(static_cast<int>(rng.below(cand.fus.size())));
      }
      if (!cand.regs.empty()) {
        dirty.regs.push_back(static_cast<int>(rng.below(cand.regs.size())));
      }
      dirty.regs.push_back(-1);
      dirty.fus.push_back(static_cast<int>(cand.fus.size()) + 3);
      const Connectivity got = refresh_connectivity(cand, base_conn, dirty);
      expect_rows_match(got, after, where + " trial " + std::to_string(trial));
      EXPECT_TRUE(got == connectivity_of(cand)) << where << " trial " << trial;
    }
  }
}

// ---- TemplateCache ------------------------------------------------------

TEST(TemplateCache, BoundedWithLruEviction) {
  TemplateCache tc;
  const auto proto = std::make_shared<const Datapath>("tmpl");
  const auto k = [](int i) {
    return TemplateKey("k" + std::to_string(i), "b", OpPoint{});
  };
  for (int i = 0; i < 70; ++i) tc.put(k(i), proto);
  EXPECT_EQ(tc.size(), 64u);  // the bound held: k0..k5 evicted
  EXPECT_EQ(tc.get(k(0)), nullptr);
  EXPECT_NE(tc.get(k(69)), nullptr);
  ASSERT_NE(tc.get(k(6)), nullptr);  // refreshes k6's recency...
  tc.put(k(70), proto);
  EXPECT_NE(tc.get(k(6)), nullptr);  // ...so k7 is the next victim
  EXPECT_EQ(tc.get(k(7)), nullptr);
}

TEST(TemplateCache, NearbyClocksNeverShareSchedules) {
  // Two clocks 0.0008 ns apart straddle a cycle boundary of the fast
  // triple-product template: each must get the schedule its own clock
  // gives, never the other's cached instance.
  const Library lib = default_library();
  const Benchmark bench = make_benchmark("test1", lib);
  const ComplexLibrary::Template* t = bench.clib.find("b3mul_fast");
  ASSERT_NE(t, nullptr);
  SynthContext cx;
  cx.design = &bench.design;
  cx.lib = &lib;
  cx.clib = &bench.clib;
  const auto fresh_makespan = [&](const OpPoint& pt) {
    Datapath inst = ComplexLibrary::instantiate(*t, "b3mul");
    const SchedResult sr = schedule_datapath(inst, lib, pt, kNoDeadline);
    EXPECT_TRUE(sr.ok) << sr.reason;
    return sr.makespan;
  };
  const OpPoint slow{5.0, 11.0004};
  const OpPoint fast{5.0, 10.9996};
  ASSERT_NE(fresh_makespan(slow), fresh_makespan(fast));
  for (const OpPoint& pt : {slow, fast, slow}) {
    cx.pt = pt;
    const std::shared_ptr<const Datapath> inst =
        instantiate_scheduled(*t, "b3mul", cx);
    ASSERT_TRUE(inst->behaviors[0].scheduled);
    EXPECT_EQ(inst->behaviors[0].makespan, fresh_makespan(pt))
        << "clk " << pt.clk_ns;
  }
  EXPECT_EQ(cx.template_cache->size(), 2u);
}

// ---- metrics-registry integration ---------------------------------------

TEST(RuntimeStats, EvalCacheCountersAppearInSnapshot) {
  eval::EvalEngine::instance();  // ensure the sources are registered
  TemplateCache ensure_registered;
  (void)ensure_registered;
  const auto sources = obs::Registry::instance().poll_sources();
  for (const char* src :
       {"eval-energy-cache", "eval-area-cache", "eval-conn-cache",
        "eval-edge-vals-cache", "template-cache"}) {
    ASSERT_TRUE(sources.count(src)) << src;
    EXPECT_TRUE(sources.at(src).count("hits")) << src;
  }
}

// ---- Concurrency stress (run under TSan in CI) --------------------------

TEST(EvalCacheStress, SharedCacheTortureAcrossThreads) {
  // 8 raw threads hammer one small cache with overlapping keys while one
  // thread resizes and another clears. Every value is a pure function of
  // its key, so any hit observing a foreign value is corruption.
  ShardedLruCache<std::uint64_t> cache(1 << 16);
  constexpr int kThreads = 8;
  constexpr int kIters = 3000;
  constexpr std::uint64_t kKeys = 128;
  const auto value_of = [](const Key& k) {
    return k.structure * 1000003ull + k.trace;
  };
  std::atomic<std::uint64_t> corrupt{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        const std::uint64_t s =
            (static_cast<std::uint64_t>(i) * 13 + static_cast<std::uint64_t>(t) * 7) % kKeys;
        const Key k{s, s * 31, 77};
        if (const auto v = cache.get(k)) {
          if (*v != value_of(k)) corrupt.fetch_add(1);
        } else {
          cache.put(k, value_of(k), 32 + (s % 5) * 16);
        }
        if (t == 0 && i % 1024 == 512) cache.set_capacity(1 << 14);
        if (t == 0 && i % 1024 == 0) cache.set_capacity(1 << 16);
        if (t == 1 && i % 1500 == 749) cache.clear();
      }
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(corrupt.load(), 0u);
  const auto n = cache.counters();
  EXPECT_EQ(n.hits + n.misses,
            static_cast<std::uint64_t>(kThreads) * kIters);
  EXPECT_GT(n.cross_thread_hits, 0u);  // the cache really is shared
}

TEST(EvalCacheStress, EngineServesConcurrentCostQueries) {
  // Area and connectivity queries on one shared datapath from raw
  // threads, with periodic invalidation: every answer must equal the
  // single-threaded reference exactly.
  PaulinFixture f;
  eval::EvalEngine& eng = eval::EvalEngine::instance();
  eng.clear();
  const double ref_area = area_of(f.dp, f.lib).total();
  const Connectivity ref_conn = connectivity_of(f.dp);
  std::atomic<int> wrong{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < 8; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < 60; ++i) {
        if (area_of(f.dp, f.lib).total() != ref_area) wrong.fetch_add(1);
        const auto conn = eng.connectivity(f.dp);
        if (!(*conn == ref_conn)) wrong.fetch_add(1);
        if (t == 0 && i % 16 == 7) eng.clear();
      }
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(wrong.load(), 0);
}

}  // namespace
}  // namespace hsyn
