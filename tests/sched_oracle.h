// Reference scheduler: the differential oracle for sched/scheduler.cpp.
//
// This is the scheduler as it was before its hot path was flattened:
// per-invocation std::map offset tables, std::map buckets per unit and
// per register, vector-of-vector adjacency and a std::queue worklist.
// It derives the same orderings and must produce the same start times,
// makespans, verdicts and failure reasons -- and the same ALAP starts --
// as the production scheduler on every datapath. Latencies come from
// cycles_at() directly, so the oracle does not share the library's
// latency table either.
#pragma once

#include <algorithm>
#include <map>
#include <queue>
#include <string>
#include <vector>

#include "rtl/datapath.h"
#include "sched/scheduler.h"
#include "util/fmt.h"

namespace hsyn::testing_support {
namespace oracle_detail {

/// Per-invocation timing metadata extracted once per scheduling run.
struct InvInfo {
  int busy = 1;               ///< occupancy of the unit per run
  std::map<int, int> in_off;  ///< input edge id -> earliest-need offset
  std::map<int, int> in_last; ///< input edge id -> latest read offset
  std::map<int, int> out_off; ///< output edge id -> production offset
};

struct Graph {
  // Constraint edges: start[to] >= start[from] + w.
  struct CEdge {
    int from, to, w;
  };
  std::vector<CEdge> edges;
  std::vector<int> base;  ///< per-invocation lower bound from primary inputs
};

struct BuiltGraphs {
  bool ok = false;
  std::string reason;
  Graph full;
  std::vector<InvInfo> info;
};

/// Collect timing info for every invocation of behavior b.
inline std::vector<InvInfo> collect_info(const Datapath& dp, int b,
                                         const Library& lib, const OpPoint& pt) {
  const BehaviorImpl& bi = dp.behaviors[static_cast<std::size_t>(b)];
  std::vector<InvInfo> info(bi.invs.size());
  for (std::size_t i = 0; i < bi.invs.size(); ++i) {
    const Invocation& inv = bi.invs[i];
    InvInfo& fi = info[i];
    if (inv.unit.kind == UnitRef::Kind::Fu) {
      const int lat = cycles_at(
          lib.fu(dp.fus[static_cast<std::size_t>(inv.unit.idx)].type).delay_ns,
          pt.vdd, pt.clk_ns);
      fi.busy = lat;
      for (const int e : dp.inv_input_edges(b, static_cast<int>(i))) {
        // All operands of a simple/chained unit are read at start.
        fi.in_off.emplace(e, 0);
        fi.in_last.emplace(e, 0);
      }
      for (const int e : dp.inv_output_edges(b, static_cast<int>(i))) {
        fi.out_off.emplace(e, lat);
      }
    } else {
      const Datapath& child =
          *dp.children[static_cast<std::size_t>(inv.unit.idx)].impl;
      const Node& n = bi.dfg->node(inv.nodes.front());
      const int cb = child.find_behavior(n.behavior);
      if (cb < 0) check_failed("scheduler: child lacks behavior " + n.behavior);
      const Profile p = child.profile(cb, lib, pt);
      fi.busy = std::max(1, p.makespan());
      for (int port = 0; port < n.num_inputs; ++port) {
        const int e = bi.dfg->input_edge(inv.nodes.front(), port);
        const int off = p.in[static_cast<std::size_t>(port)];
        auto it = fi.in_off.find(e);
        if (it == fi.in_off.end() || off < it->second) fi.in_off[e] = off;
        auto it2 = fi.in_last.find(e);
        if (it2 == fi.in_last.end() || off > it2->second) fi.in_last[e] = off;
      }
      for (int port = 0; port < n.num_outputs; ++port) {
        const int e = bi.dfg->output_edge(inv.nodes.front(), port);
        if (e >= 0) fi.out_off.emplace(e, p.out[static_cast<std::size_t>(port)]);
      }
    }
  }
  return info;
}

/// Longest path from sources over the constraint graph. Returns false on
/// a cycle (the derived ordering is inconsistent with the dataflow).
inline bool longest_path(const Graph& g, std::vector<int>& start,
                         std::vector<int>* topo_out = nullptr) {
  const std::size_t n = g.base.size();
  std::vector<std::vector<std::pair<int, int>>> adj(n);  // (to, w)
  std::vector<int> indeg(n, 0);
  for (const auto& e : g.edges) {
    adj[static_cast<std::size_t>(e.from)].push_back({e.to, e.w});
    indeg[static_cast<std::size_t>(e.to)]++;
  }
  std::queue<int> q;
  for (std::size_t i = 0; i < n; ++i) {
    if (indeg[i] == 0) q.push(static_cast<int>(i));
  }
  start = g.base;
  std::vector<int> order;
  order.reserve(n);
  while (!q.empty()) {
    const int u = q.front();
    q.pop();
    order.push_back(u);
    for (const auto& [v, w] : adj[static_cast<std::size_t>(u)]) {
      (void)w;
      if (--indeg[static_cast<std::size_t>(v)] == 0) q.push(v);
    }
  }
  if (order.size() != n) return false;  // cycle
  for (const int u : order) {
    for (const auto& [v, w] : adj[static_cast<std::size_t>(u)]) {
      start[static_cast<std::size_t>(v)] =
          std::max(start[static_cast<std::size_t>(v)],
                   start[static_cast<std::size_t>(u)] + w);
    }
  }
  if (topo_out) *topo_out = std::move(order);
  return true;
}

/// Build the full constraint graph for behavior b: data edges, then
/// resource-serialization and register write-after-read orderings derived
/// from the resource-free ASAP priorities.
inline BuiltGraphs build_graphs(const Datapath& dp, int b, const Library& lib,
                                const OpPoint& pt) {
  BuiltGraphs out;
  const BehaviorImpl& bi = dp.behaviors[static_cast<std::size_t>(b)];
  const Dfg& dfg = *bi.dfg;
  const std::size_t ninv = bi.invs.size();
  out.info = collect_info(dp, b, lib, pt);
  const std::vector<InvInfo>& info = out.info;

  // ---- Data-only graph and resource-free ASAP. --------------------------
  Graph data;
  data.base.assign(ninv, 0);
  for (std::size_t c = 0; c < ninv; ++c) {
    for (const auto& [e, off] : info[c].in_off) {
      const Edge& edge = dfg.edge(e);
      if (edge.src.node == kPrimaryIn) {
        data.base[c] = std::max(
            data.base[c],
            bi.input_arrival[static_cast<std::size_t>(edge.src.port)] - off);
      } else {
        const int p = bi.inv_of(edge.src.node);
        if (p == static_cast<int>(c)) continue;  // chain-internal
        data.edges.push_back({p, static_cast<int>(c),
                              info[static_cast<std::size_t>(p)].out_off.at(e) - off});
      }
    }
  }
  std::vector<int> asap;
  if (!longest_path(data, asap)) {
    out.reason = "data dependencies cyclic";
    return out;
  }

  Graph full = data;

  // ---- Same-unit invocation ordering. -----------------------------------
  std::map<std::pair<int, int>, std::vector<int>> by_unit;
  for (std::size_t i = 0; i < ninv; ++i) {
    const UnitRef& u = bi.invs[i].unit;
    by_unit[{static_cast<int>(u.kind), u.idx}].push_back(static_cast<int>(i));
  }
  for (auto& [key, list] : by_unit) {
    (void)key;
    std::sort(list.begin(), list.end(), [&](int a, int c) {
      if (asap[static_cast<std::size_t>(a)] != asap[static_cast<std::size_t>(c)]) {
        return asap[static_cast<std::size_t>(a)] < asap[static_cast<std::size_t>(c)];
      }
      return a < c;
    });
    for (std::size_t k = 0; k + 1 < list.size(); ++k) {
      const int a = list[k];
      const Invocation& ia = bi.invs[static_cast<std::size_t>(a)];
      const bool pipelined =
          ia.unit.kind == UnitRef::Kind::Fu &&
          lib.fu(dp.fus[static_cast<std::size_t>(ia.unit.idx)].type).pipelined;
      full.edges.push_back(
          {a, list[k + 1], pipelined ? 1 : info[static_cast<std::size_t>(a)].busy});
    }
  }

  // ---- Same-register variable ordering (WAR / WAW). ---------------------
  std::map<int, std::vector<int>> by_reg;  // reg -> edge ids
  for (const Edge& e : dfg.edges()) {
    const int r = bi.edge_reg[static_cast<std::size_t>(e.id)];
    if (r >= 0) by_reg[r].push_back(e.id);
  }
  auto ready_time = [&](int e) {
    const Edge& edge = dfg.edge(e);
    if (edge.src.node == kPrimaryIn) {
      return bi.input_arrival[static_cast<std::size_t>(edge.src.port)];
    }
    const int p = bi.inv_of(edge.src.node);
    return asap[static_cast<std::size_t>(p)] +
           info[static_cast<std::size_t>(p)].out_off.at(e);
  };
  auto feeds_primary_output = [&](int e) {
    for (const PortRef& d : dfg.edge(e).dsts) {
      if (d.node == kPrimaryOut) return true;
    }
    return false;
  };
  for (auto& [r, vars] : by_reg) {
    if (vars.size() < 2) continue;
    int n_po = 0;
    for (const int v : vars) n_po += feeds_primary_output(v) ? 1 : 0;
    if (n_po > 1) {
      out.reason = strf("register %d holds %d primary outputs", r, n_po);
      return out;
    }
    std::sort(vars.begin(), vars.end(), [&](int a, int c) {
      const bool pa = feeds_primary_output(a);
      const bool pc = feeds_primary_output(c);
      if (pa != pc) return pc;  // primary-output variable last
      if (ready_time(a) != ready_time(c)) return ready_time(a) < ready_time(c);
      return a < c;
    });
    for (std::size_t k = 0; k + 1 < vars.size(); ++k) {
      const int v1 = vars[k];
      const int v2 = vars[k + 1];
      const Edge& e2 = dfg.edge(v2);
      if (e2.src.node == kPrimaryIn) {
        // Primary inputs are written at sample start by the environment;
        // they cannot overwrite an internally produced variable.
        out.reason = "primary input variable cannot overwrite register";
        return out;
      }
      const int p2 = bi.inv_of(e2.src.node);
      const int w_off = info[static_cast<std::size_t>(p2)].out_off.at(v2);
      // Every read of v1 -- at its *latest* port offset -- must precede
      // the write of v2.
      const Edge& e1 = dfg.edge(v1);
      for (const PortRef& d : e1.dsts) {
        if (d.node < 0) continue;
        const int c = bi.inv_of(d.node);
        const int r_off = info[static_cast<std::size_t>(c)].in_last.count(v1)
                              ? info[static_cast<std::size_t>(c)].in_last.at(v1)
                              : 0;
        if (c == p2) {
          // The writer itself reads v1: safe only when its write happens
          // strictly after its own latest read of v1 (e.g. accumulators;
          // a complex module producing v2 before consuming a late v1
          // cannot share this register).
          if (w_off > r_off) continue;
          out.reason = strf("register %d: invocation would overwrite its own "
                            "pending operand",
                            r);
          return out;
        }
        full.edges.push_back({c, p2, r_off + 1 - w_off});
      }
      // Write-after-write.
      if (e1.src.node >= 0) {
        const int p1 = bi.inv_of(e1.src.node);
        if (p1 != p2) {
          const int w1 = info[static_cast<std::size_t>(p1)].out_off.at(v1);
          full.edges.push_back({p1, p2, w1 + 1 - w_off});
        }
      }
    }
  }

  out.full = std::move(full);
  out.ok = true;
  return out;
}

}  // namespace oracle_detail

/// schedule_behavior of the production scheduler.
inline SchedResult oracle_schedule_behavior(Datapath& dp, int b,
                                            const Library& lib,
                                            const OpPoint& pt, int deadline) {
  BehaviorImpl& bi = dp.behaviors[static_cast<std::size_t>(b)];
  const Dfg& dfg = *bi.dfg;
  oracle_detail::BuiltGraphs g = oracle_detail::build_graphs(dp, b, lib, pt);
  if (!g.ok) return {false, 0, g.reason};

  std::vector<int> start;
  if (!oracle_detail::longest_path(g.full, start)) {
    return {false, 0, "resource/register ordering conflicts with dataflow"};
  }

  bi.inv_start = std::move(start);
  bi.scheduled = true;
  dp.invalidate_fingerprint();

  int makespan = 0;
  for (int o = 0; o < dfg.num_outputs(); ++o) {
    makespan = std::max(
        makespan, dp.edge_ready_time(b, dfg.primary_output_edge(o), lib, pt));
  }
  bi.makespan = makespan;
  if (makespan > deadline) {
    return {false, makespan,
            strf("makespan %d exceeds deadline %d", makespan, deadline)};
  }
  return {true, makespan, {}};
}

inline bool oracle_fully_scheduled(const Datapath& dp) {
  for (const BehaviorImpl& bi : dp.behaviors) {
    if (!bi.scheduled) return false;
  }
  for (const ChildUnit& c : dp.children) {
    if (!oracle_fully_scheduled(*c.impl)) return false;
  }
  return true;
}

/// Bottom-up schedule of `dp`, as schedule_datapath (without its span
/// and makespan histogram).
inline SchedResult oracle_schedule_datapath(Datapath& dp, const Library& lib,
                                            const OpPoint& pt, int deadline) {
  for (std::size_t c = 0; c < dp.children.size(); ++c) {
    if (oracle_fully_scheduled(*dp.children[c].impl)) continue;
    const SchedResult r = oracle_schedule_datapath(
        dp.mut_child(static_cast<int>(c)), lib, pt, kNoDeadline);
    if (!r.ok) return r;
  }
  SchedResult worst{true, 0, {}};
  for (std::size_t b = 0; b < dp.behaviors.size(); ++b) {
    const SchedResult r =
        oracle_schedule_behavior(dp, static_cast<int>(b), lib, pt, deadline);
    if (!r.ok) return r;
    worst.makespan = std::max(worst.makespan, r.makespan);
  }
  return worst;
}

/// alap_starts of the production scheduler.
inline std::vector<int> oracle_alap_starts(const Datapath& dp, int b,
                                           const Library& lib,
                                           const OpPoint& pt, int deadline) {
  const BehaviorImpl& bi = dp.behaviors[static_cast<std::size_t>(b)];
  const Dfg& dfg = *bi.dfg;
  oracle_detail::BuiltGraphs g = oracle_detail::build_graphs(dp, b, lib, pt);
  if (!g.ok) return {};
  std::vector<int> topo;
  std::vector<int> asap;
  if (!oracle_detail::longest_path(g.full, asap, &topo)) return {};

  const std::size_t ninv = bi.invs.size();
  std::vector<int> ub(ninv, deadline);
  // Producers of primary outputs must deliver them by the deadline; every
  // invocation must at least finish its busy window within the deadline.
  for (std::size_t i = 0; i < ninv; ++i) {
    ub[i] = deadline - g.info[i].busy;
  }
  for (int o = 0; o < dfg.num_outputs(); ++o) {
    const Edge& e = dfg.edge(dfg.primary_output_edge(o));
    if (e.src.node < 0) continue;
    const std::size_t p = static_cast<std::size_t>(bi.inv_of(e.src.node));
    ub[p] = std::min(ub[p], deadline - g.info[p].out_off.at(e.id));
  }
  // Backward propagation in reverse topological order.
  std::vector<std::vector<std::pair<int, int>>> radj(ninv);  // from <- (to, w)
  for (const auto& e : g.full.edges) {
    radj[static_cast<std::size_t>(e.from)].push_back({e.to, e.w});
  }
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    const std::size_t u = static_cast<std::size_t>(*it);
    for (const auto& [v, w] : radj[u]) {
      ub[u] = std::min(ub[u], ub[static_cast<std::size_t>(v)] - w);
    }
  }
  return ub;
}

}  // namespace hsyn::testing_support
