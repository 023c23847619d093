#include "sched/scheduler.h"

#include <algorithm>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/fmt.h"

namespace hsyn {
namespace {

/// An external input edge of an invocation: the earliest offset (from
/// the invocation's start) at which it is needed and the latest at which
/// it is read. A complex module may read one edge on several ports.
struct InEdge {
  int edge, first, last;
};

/// An output edge of an invocation and its production offset.
struct OutEdge {
  int edge, off;
};

/// Constraint edge: start[to] >= start[from] + w.
struct CEdge {
  int from, to, w;
};

/// A variable sharing a register, with its sort keys.
struct RegVar {
  int edge;
  bool feeds_po;  ///< read by a primary output
  int ready;      ///< resource-free ASAP production time
};

/// Per-thread scratch of one scheduling run. Every scheduler entry point
/// rebuilds it from scratch; keeping the buffers between calls makes the
/// steady state allocation-free. Nothing on the scheduling path
/// re-enters the scheduler, so one instance per thread suffices.
struct Scratch {
  // Per-invocation timing info, in CSR form over invocation indices.
  std::vector<int> busy;       ///< occupancy of the unit per run
  std::vector<int> in_begin;   ///< ins[in_begin[i] .. in_begin[i+1])
  std::vector<InEdge> ins;
  std::vector<int> out_begin;  ///< outs[out_begin[i] .. out_begin[i+1])
  std::vector<OutEdge> outs;

  // Constraint graph: data edges first, then orderings.
  std::vector<int> base;  ///< per-invocation lower bound from primary inputs
  std::vector<CEdge> edges;

  // longest_path: CSR adjacency, in-degrees and the topological order.
  std::vector<int> adj_begin;
  std::vector<int> adj_pos;
  std::vector<CEdge> adj;
  std::vector<int> indeg;
  std::vector<int> topo;
  std::vector<int> asap;
  std::vector<int> start;

  // Invocations bucketed by unit, variables by register (bucket_sort),
  // and the variables of one register.
  std::vector<int> bucket_begin;
  std::vector<int> bucket_pos;
  std::vector<int> bucket;
  std::vector<RegVar> vars;
};

Scratch& scratch() {
  thread_local Scratch s;
  return s;
}

/// Counting sort of `n` keys in [0, nkeys) into s.bucket, stable, with
/// s.bucket_begin[k] .. s.bucket_begin[k + 1] delimiting key k.
template <typename KeyOf>
void bucket_sort(Scratch& s, int n, int nkeys, KeyOf key_of) {
  s.bucket_begin.assign(static_cast<std::size_t>(nkeys) + 1, 0);
  for (int i = 0; i < n; ++i) {
    const int k = key_of(i);
    if (k >= 0) ++s.bucket_begin[static_cast<std::size_t>(k) + 1];
  }
  for (int k = 0; k < nkeys; ++k) {
    s.bucket_begin[static_cast<std::size_t>(k) + 1] +=
        s.bucket_begin[static_cast<std::size_t>(k)];
  }
  s.bucket.resize(static_cast<std::size_t>(s.bucket_begin.back()));
  s.bucket_pos.assign(s.bucket_begin.begin(), s.bucket_begin.end() - 1);
  for (int i = 0; i < n; ++i) {
    const int k = key_of(i);
    if (k >= 0) {
      int& pos = s.bucket_pos[static_cast<std::size_t>(k)];
      s.bucket[static_cast<std::size_t>(pos++)] = i;
    }
  }
}

/// Reads shared by the graph builders: the behavior, its DFG, and
/// bounds-checked lookups into the collected timing info.
struct View {
  const Datapath& dp;
  const BehaviorImpl& bi;
  const Dfg& dfg;
  Scratch& s;
  int ninv;

  View(const Datapath& d, int b, Scratch& sc)
      : dp(d), bi(checked_behavior(d, b)), dfg(*bi.dfg), s(sc),
        ninv(static_cast<int>(bi.invs.size())) {}

  static const BehaviorImpl& checked_behavior(const Datapath& d, int b) {
    check(b >= 0 && b < static_cast<int>(d.behaviors.size()),
          "scheduler: behavior index out of range");
    const BehaviorImpl& bi = d.behaviors[static_cast<std::size_t>(b)];
    check(bi.dfg != nullptr, "scheduler: behavior without dfg");
    return bi;
  }

  /// Invocation executing `node`, checked against the invocation count.
  int inv_of(int node) const {
    const int i = bi.inv_of(node);
    check(i < ninv, "scheduler: node bound to a missing invocation");
    return i;
  }

  /// Production offset of edge `e` by invocation `p`.
  int out_off(int p, int e) const {
    const std::size_t i = static_cast<std::size_t>(p);
    for (int k = s.out_begin[i]; k < s.out_begin[i + 1]; ++k) {
      const OutEdge& o = s.outs[static_cast<std::size_t>(k)];
      if (o.edge == e) return o.off;
    }
    check_failed(strf("scheduler: edge %d is not an output of invocation %d", e, p));
  }

  /// Latest offset at which invocation `c` reads edge `e`; 0 when it
  /// does not read it as an external input.
  int in_last(int c, int e) const {
    const std::size_t i = static_cast<std::size_t>(c);
    for (int k = s.in_begin[i]; k < s.in_begin[i + 1]; ++k) {
      const InEdge& in = s.ins[static_cast<std::size_t>(k)];
      if (in.edge == e) return in.last;
    }
    return 0;
  }

  int input_arrival(int port) const {
    check(port >= 0 && port < static_cast<int>(bi.input_arrival.size()),
          "scheduler: primary input without arrival time");
    return bi.input_arrival[static_cast<std::size_t>(port)];
  }
};

/// Add `e` to the input entries of the invocation being collected (from
/// `lo` on), merging repeated reads of one edge.
void add_input(Scratch& s, std::size_t lo, int e, int off) {
  for (std::size_t k = lo; k < s.ins.size(); ++k) {
    if (s.ins[k].edge == e) {
      s.ins[k].first = std::min(s.ins[k].first, off);
      s.ins[k].last = std::max(s.ins[k].last, off);
      return;
    }
  }
  s.ins.push_back({e, off, off});
}

/// Collect timing info for every invocation of the behavior into s.
void collect_info(const View& v, const Library& lib, const OpPoint& pt) {
  Scratch& s = v.s;
  const Datapath& dp = v.dp;
  const Dfg& dfg = v.dfg;
  s.busy.assign(static_cast<std::size_t>(v.ninv), 1);
  s.in_begin.assign(1, 0);
  s.out_begin.assign(1, 0);
  s.ins.clear();
  s.outs.clear();
  const int nnodes = static_cast<int>(dfg.nodes().size());
  for (int i = 0; i < v.ninv; ++i) {
    const Invocation& inv = v.bi.invs[static_cast<std::size_t>(i)];
    check(!inv.nodes.empty(), "scheduler: empty invocation");
    for (const int nid : inv.nodes) {
      check(nid >= 0 && nid < nnodes, "scheduler: node id out of range");
    }
    const std::size_t lo = s.ins.size();
    if (inv.unit.kind == UnitRef::Kind::Fu) {
      check(inv.unit.idx >= 0 && inv.unit.idx < static_cast<int>(dp.fus.size()),
            "scheduler: fu index out of range");
      const int lat =
          lib.cycles(dp.fus[static_cast<std::size_t>(inv.unit.idx)].type, pt);
      s.busy[static_cast<std::size_t>(i)] = lat;
      // All operands of a simple/chained unit are read at start; edges
      // between the nodes of a chain are internal.
      const std::size_t chain = inv.nodes.size();
      for (const int nid : inv.nodes) {
        const Node& n = dfg.node(nid);
        for (int port = 0; port < n.num_inputs; ++port) {
          const int e = dfg.input_edge(nid, port);
          bool internal = false;
          for (std::size_t k = 0; k + 1 < chain && !internal; ++k) {
            const int link = dfg.output_edge(inv.nodes[k], 0);
            internal = link >= 0 && link == e;
          }
          if (!internal) add_input(s, lo, e, 0);
        }
      }
      const int last = inv.nodes.back();
      const Node& n = dfg.node(last);
      for (int port = 0; port < n.num_outputs; ++port) {
        const int e = dfg.output_edge(last, port);
        if (e >= 0) s.outs.push_back({e, lat});
      }
    } else {
      check(inv.unit.idx >= 0 &&
                inv.unit.idx < static_cast<int>(dp.children.size()) &&
                dp.children[static_cast<std::size_t>(inv.unit.idx)].impl,
            "scheduler: child index out of range");
      const Datapath& child =
          *dp.children[static_cast<std::size_t>(inv.unit.idx)].impl;
      const Node& n = dfg.node(inv.nodes.front());
      const int cb = child.find_behavior(n.behavior);
      if (cb < 0) check_failed("scheduler: child lacks behavior " + n.behavior);
      const Profile& p = child.profile(cb, lib, pt);
      check(static_cast<int>(p.in.size()) >= n.num_inputs &&
                static_cast<int>(p.out.size()) >= n.num_outputs,
            "scheduler: child profile does not match its node");
      s.busy[static_cast<std::size_t>(i)] = std::max(1, p.makespan());
      for (int port = 0; port < n.num_inputs; ++port) {
        add_input(s, lo, dfg.input_edge(inv.nodes.front(), port),
                  p.in[static_cast<std::size_t>(port)]);
      }
      for (int port = 0; port < n.num_outputs; ++port) {
        const int e = dfg.output_edge(inv.nodes.front(), port);
        if (e >= 0) s.outs.push_back({e, p.out[static_cast<std::size_t>(port)]});
      }
    }
    s.in_begin.push_back(static_cast<int>(s.ins.size()));
    s.out_begin.push_back(static_cast<int>(s.outs.size()));
  }
}

/// Longest path from sources over the first `nedges` constraint edges,
/// starting from s.base, into `start` (and s.topo). Returns false on a
/// cycle (the derived ordering is inconsistent with the dataflow). The
/// CSR adjacency stays in s.adj for alap_starts.
bool longest_path(Scratch& s, std::size_t nedges, std::vector<int>& start) {
  const std::size_t n = s.base.size();
  s.adj_begin.assign(n + 1, 0);
  s.indeg.assign(n, 0);
  for (std::size_t k = 0; k < nedges; ++k) {
    const CEdge& e = s.edges[k];
    ++s.adj_begin[static_cast<std::size_t>(e.from) + 1];
    ++s.indeg[static_cast<std::size_t>(e.to)];
  }
  for (std::size_t i = 0; i < n; ++i) s.adj_begin[i + 1] += s.adj_begin[i];
  s.adj.resize(nedges);
  s.adj_pos.assign(s.adj_begin.begin(), s.adj_begin.end() - 1);
  for (std::size_t k = 0; k < nedges; ++k) {
    const CEdge& e = s.edges[k];
    int& pos = s.adj_pos[static_cast<std::size_t>(e.from)];
    s.adj[static_cast<std::size_t>(pos++)] = e;
  }
  s.topo.clear();
  for (std::size_t i = 0; i < n; ++i) {
    if (s.indeg[i] == 0) s.topo.push_back(static_cast<int>(i));
  }
  for (std::size_t head = 0; head < s.topo.size(); ++head) {
    const std::size_t u = static_cast<std::size_t>(s.topo[head]);
    for (int k = s.adj_begin[u]; k < s.adj_begin[u + 1]; ++k) {
      const int v = s.adj[static_cast<std::size_t>(k)].to;
      if (--s.indeg[static_cast<std::size_t>(v)] == 0) s.topo.push_back(v);
    }
  }
  if (s.topo.size() != n) return false;  // cycle
  start.assign(s.base.begin(), s.base.end());
  for (const int u : s.topo) {
    const std::size_t uu = static_cast<std::size_t>(u);
    for (int k = s.adj_begin[uu]; k < s.adj_begin[uu + 1]; ++k) {
      const CEdge& e = s.adj[static_cast<std::size_t>(k)];
      int& sv = start[static_cast<std::size_t>(e.to)];
      sv = std::max(sv, start[uu] + e.w);
    }
  }
  return true;
}

/// Build the full constraint graph for the behavior into s.base/s.edges:
/// data edges, then resource-serialization and register write-after-read
/// orderings derived from the resource-free ASAP priorities. Returns the
/// failure reason; empty on success.
std::string build_graphs(const View& v, const Library& lib, const OpPoint& pt) {
  Scratch& s = v.s;
  const Datapath& dp = v.dp;
  const BehaviorImpl& bi = v.bi;
  const Dfg& dfg = v.dfg;
  const std::size_t ninv = static_cast<std::size_t>(v.ninv);
  collect_info(v, lib, pt);

  // ---- Data-only graph and resource-free ASAP. --------------------------
  s.base.assign(ninv, 0);
  s.edges.clear();
  for (std::size_t c = 0; c < ninv; ++c) {
    for (int k = s.in_begin[c]; k < s.in_begin[c + 1]; ++k) {
      const InEdge in = s.ins[static_cast<std::size_t>(k)];
      const Edge& edge = dfg.edge(in.edge);
      if (edge.src.node == kPrimaryIn) {
        s.base[c] =
            std::max(s.base[c], v.input_arrival(edge.src.port) - in.first);
      } else {
        const int p = v.inv_of(edge.src.node);
        if (p == static_cast<int>(c)) continue;  // chain-internal
        s.edges.push_back(
            {p, static_cast<int>(c), v.out_off(p, in.edge) - in.first});
      }
    }
  }
  if (!longest_path(s, s.edges.size(), s.asap)) return "data dependencies cyclic";
  const std::vector<int>& asap = s.asap;

  // ---- Same-unit invocation ordering. -----------------------------------
  // Units are keyed fus first, then children; their indices were
  // range-checked by collect_info.
  const int nfus = static_cast<int>(dp.fus.size());
  bucket_sort(s, v.ninv, nfus + static_cast<int>(dp.children.size()), [&](int i) {
    const UnitRef& u = bi.invs[static_cast<std::size_t>(i)].unit;
    return u.kind == UnitRef::Kind::Fu ? u.idx : nfus + u.idx;
  });
  for (std::size_t key = 0; key + 1 < s.bucket_begin.size(); ++key) {
    const auto first = s.bucket.begin() + s.bucket_begin[key];
    const auto last = s.bucket.begin() + s.bucket_begin[key + 1];
    if (last - first < 2) continue;
    std::sort(first, last, [&](int a, int c) {
      if (asap[static_cast<std::size_t>(a)] != asap[static_cast<std::size_t>(c)]) {
        return asap[static_cast<std::size_t>(a)] < asap[static_cast<std::size_t>(c)];
      }
      return a < c;
    });
    for (auto it = first; it + 1 != last; ++it) {
      const int a = *it;
      const Invocation& ia = bi.invs[static_cast<std::size_t>(a)];
      const bool pipelined =
          ia.unit.kind == UnitRef::Kind::Fu &&
          lib.fu(dp.fus[static_cast<std::size_t>(ia.unit.idx)].type).pipelined;
      s.edges.push_back(
          {a, *(it + 1), pipelined ? 1 : s.busy[static_cast<std::size_t>(a)]});
    }
  }

  // ---- Same-register variable ordering (WAR / WAW). ---------------------
  const int nedges = static_cast<int>(dfg.edges().size());
  const int nregs = static_cast<int>(dp.regs.size());
  check(static_cast<int>(bi.edge_reg.size()) >= nedges,
        "scheduler: edge_reg shorter than the edge list");
  bucket_sort(s, nedges, nregs, [&](int e) {
    const int r = bi.edge_reg[static_cast<std::size_t>(e)];
    check(r < nregs, "scheduler: register index out of range");
    return r;
  });
  auto ready_time = [&](int e) {
    const Edge& edge = dfg.edge(e);
    if (edge.src.node == kPrimaryIn) return v.input_arrival(edge.src.port);
    const int p = v.inv_of(edge.src.node);
    return asap[static_cast<std::size_t>(p)] + v.out_off(p, e);
  };
  auto feeds_primary_output = [&](int e) {
    for (const PortRef& d : dfg.edge(e).dsts) {
      if (d.node == kPrimaryOut) return true;
    }
    return false;
  };
  // Registers in ascending order, so the first failure reported is the
  // lowest-numbered register's.
  for (int r = 0; r < nregs; ++r) {
    const int lo = s.bucket_begin[static_cast<std::size_t>(r)];
    const int hi = s.bucket_begin[static_cast<std::size_t>(r) + 1];
    if (hi - lo < 2) continue;
    s.vars.clear();
    int n_po = 0;
    for (int k = lo; k < hi; ++k) {
      const int e = s.bucket[static_cast<std::size_t>(k)];
      const bool po = feeds_primary_output(e);
      n_po += po ? 1 : 0;
      s.vars.push_back({e, po, 0});
    }
    if (n_po > 1) return strf("register %d holds %d primary outputs", r, n_po);
    for (RegVar& rv : s.vars) rv.ready = ready_time(rv.edge);
    std::sort(s.vars.begin(), s.vars.end(), [](const RegVar& a, const RegVar& c) {
      // The primary-output variable goes last.
      if (a.feeds_po != c.feeds_po) return c.feeds_po;
      if (a.ready != c.ready) return a.ready < c.ready;
      return a.edge < c.edge;
    });
    for (std::size_t k = 0; k + 1 < s.vars.size(); ++k) {
      const int v1 = s.vars[k].edge;
      const int v2 = s.vars[k + 1].edge;
      const Edge& e2 = dfg.edge(v2);
      if (e2.src.node == kPrimaryIn) {
        // Primary inputs are written at sample start by the environment;
        // they cannot overwrite an internally produced variable.
        return "primary input variable cannot overwrite register";
      }
      const int p2 = v.inv_of(e2.src.node);
      const int w_off = v.out_off(p2, v2);
      // Every read of v1 -- at its *latest* port offset -- must precede
      // the write of v2.
      const Edge& e1 = dfg.edge(v1);
      for (const PortRef& d : e1.dsts) {
        if (d.node < 0) continue;
        const int c = v.inv_of(d.node);
        const int r_off = v.in_last(c, v1);
        if (c == p2) {
          // The writer itself reads v1: safe only when its write happens
          // strictly after its own latest read of v1 (e.g. accumulators;
          // a complex module producing v2 before consuming a late v1
          // cannot share this register).
          if (w_off > r_off) continue;
          return strf("register %d: invocation would overwrite its own "
                      "pending operand",
                      r);
        }
        s.edges.push_back({c, p2, r_off + 1 - w_off});
      }
      // Write-after-write.
      if (e1.src.node >= 0) {
        const int p1 = v.inv_of(e1.src.node);
        if (p1 != p2) {
          s.edges.push_back({p1, p2, v.out_off(p1, v1) + 1 - w_off});
        }
      }
    }
  }
  return {};
}

}  // namespace

SchedResult schedule_behavior(Datapath& dp, int b, const Library& lib,
                              const OpPoint& pt, int deadline) {
  Scratch& s = scratch();
  const View v(dp, b, s);
  const std::string reason = build_graphs(v, lib, pt);
  if (!reason.empty()) return {false, 0, reason};
  if (!longest_path(s, s.edges.size(), s.start)) {
    return {false, 0, "resource/register ordering conflicts with dataflow"};
  }

  BehaviorImpl& bi = dp.behaviors[static_cast<std::size_t>(b)];
  const Dfg& dfg = *bi.dfg;
  bi.inv_start.assign(s.start.begin(), s.start.end());
  bi.scheduled = true;
  bi.sched_lib = lib.uid();
  bi.sched_pt = pt;
  dp.invalidate_fingerprint();

  // The profile: input arrivals, then each primary output's ready cycle
  // (a child's output offset comes from its own stored profile).
  bi.profile.in.assign(bi.input_arrival.begin(), bi.input_arrival.end());
  bi.profile.out.resize(static_cast<std::size_t>(dfg.num_outputs()));
  int makespan = 0;
  for (int o = 0; o < dfg.num_outputs(); ++o) {
    const Edge& e = dfg.edge(dfg.primary_output_edge(o));
    int ready = 0;
    if (e.src.node == kPrimaryIn) {
      ready = v.input_arrival(e.src.port);
    } else {
      check(e.src.node >= 0, "scheduler: primary output has no producer");
      const int p = v.inv_of(e.src.node);
      const std::size_t pp = static_cast<std::size_t>(p);
      ready = s.start[pp] + (bi.invs[pp].unit.kind == UnitRef::Kind::Fu
                                 ? s.busy[pp]
                                 : v.out_off(p, e.id));
    }
    bi.profile.out[static_cast<std::size_t>(o)] = ready;
    makespan = std::max(makespan, ready);
  }
  bi.makespan = makespan;
  if (makespan > deadline) {
    return {false, makespan,
            strf("makespan %d exceeds deadline %d", makespan, deadline)};
  }
  return {true, makespan, {}};
}

namespace {

bool fully_scheduled(const Datapath& dp) {
  for (const BehaviorImpl& bi : dp.behaviors) {
    if (!bi.scheduled) return false;
  }
  for (const ChildUnit& c : dp.children) {
    if (!fully_scheduled(*c.impl)) return false;
  }
  return true;
}

}  // namespace

SchedResult schedule_datapath(Datapath& dp, const Library& lib, const OpPoint& pt,
                              int deadline) {
  obs::Span span("schedule");
  for (std::size_t c = 0; c < dp.children.size(); ++c) {
    if (fully_scheduled(*dp.children[c].impl)) continue;
    const SchedResult r = schedule_datapath(
        dp.mut_child(static_cast<int>(c)), lib, pt, kNoDeadline);
    if (!r.ok) return r;
  }
  SchedResult worst{true, 0, {}};
  for (std::size_t b = 0; b < dp.behaviors.size(); ++b) {
    const SchedResult r =
        schedule_behavior(dp, static_cast<int>(b), lib, pt, deadline);
    if (!r.ok) return r;
    worst.makespan = std::max(worst.makespan, r.makespan);
  }
  // Schedule-length distribution; observations never feed back into any
  // decision (metrics are observational only).
  static obs::Histogram& makespan_hist =
      obs::Registry::instance().histogram("sched.makespan");
  makespan_hist.observe(static_cast<std::uint64_t>(worst.makespan));
  return worst;
}

void invalidate_schedules(Datapath& dp) {
  for (BehaviorImpl& bi : dp.behaviors) bi.unschedule();
  dp.invalidate_fingerprint();
  for (std::size_t c = 0; c < dp.children.size(); ++c) {
    invalidate_schedules(dp.mut_child(static_cast<int>(c)));
  }
}

std::vector<int> alap_starts(const Datapath& dp, int b, const Library& lib,
                             const OpPoint& pt, int deadline) {
  Scratch& s = scratch();
  const View v(dp, b, s);
  if (!build_graphs(v, lib, pt).empty()) return {};
  if (!longest_path(s, s.edges.size(), s.start)) return {};

  // Producers of primary outputs must deliver them by the deadline; every
  // invocation must at least finish its busy window within the deadline.
  std::vector<int> ub(static_cast<std::size_t>(v.ninv));
  for (std::size_t i = 0; i < ub.size(); ++i) ub[i] = deadline - s.busy[i];
  for (int o = 0; o < v.dfg.num_outputs(); ++o) {
    const Edge& e = v.dfg.edge(v.dfg.primary_output_edge(o));
    if (e.src.node < 0) continue;
    const int p = v.inv_of(e.src.node);
    int& u = ub[static_cast<std::size_t>(p)];
    u = std::min(u, deadline - v.out_off(p, e.id));
  }
  // Backward propagation in reverse topological order over the
  // longest-path adjacency.
  for (auto it = s.topo.rbegin(); it != s.topo.rend(); ++it) {
    const std::size_t u = static_cast<std::size_t>(*it);
    for (int k = s.adj_begin[u]; k < s.adj_begin[u + 1]; ++k) {
      const CEdge& e = s.adj[static_cast<std::size_t>(k)];
      ub[u] = std::min(ub[u], ub[static_cast<std::size_t>(e.to)] - e.w);
    }
  }
  return ub;
}

}  // namespace hsyn
