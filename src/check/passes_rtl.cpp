// Binding-legality and schedule-legality passes.
//
// Codes: BIND001-BIND008 (rtl-binding), SCHED000-SCHED008
// (sched-legality). Both passes recurse through the datapath tree and
// recompute every derived fact (chain-internal edge sets, per-invocation
// read/write offsets, ready times, register lifetimes) from the raw
// binding tables -- independently of the scheduler's constraint-graph
// machinery -- so a schedule or binding the engine corrupted is caught
// even when the tables it filled in are self-consistent.
#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include "check/check.h"
#include "util/fmt.h"

namespace hsyn::lint {
namespace {

/// One level of the datapath tree with its display path.
struct LevelRef {
  const Datapath* dp = nullptr;
  std::string path;
  int depth = 0;
};

/// Preorder walk; paths look like "dp 'top' / child 1 'mac'".
std::vector<LevelRef> collect_levels(const Datapath& top) {
  std::vector<LevelRef> out;
  struct Item {
    const Datapath* dp;
    std::string path;
    int depth;
  };
  std::vector<Item> stack{{&top, "dp '" + top.name + "'", 0}};
  while (!stack.empty()) {
    const Item it = stack.back();
    stack.pop_back();
    out.push_back({it.dp, it.path, it.depth});
    for (std::size_t c = it.dp->children.size(); c-- > 0;) {
      const ChildUnit& cu = it.dp->children[c];
      if (cu.impl) {
        stack.push_back({cu.impl.get(),
                         it.path + strf(" / child %zu '%s'", c,
                                        cu.name.c_str()),
                         it.depth + 1});
      }
    }
  }
  return out;
}

/// node -> invocation index, tolerant of corrupted tables (-1 on any
/// inconsistency; the binding pass reports those).
int inv_of_safe(const BehaviorImpl& bi, int node) {
  if (node < 0 || node >= static_cast<int>(bi.node_inv.size())) return -1;
  const int i = bi.node_inv[static_cast<std::size_t>(node)];
  if (i < 0 || i >= static_cast<int>(bi.invs.size())) return -1;
  return i;
}

/// Edge ids internal to a chained invocation (produced by a non-final
/// chain node); these are never registered and never scheduled against.
std::set<int> chain_internal_edges(const BehaviorImpl& bi) {
  std::set<int> internal;
  if (bi.dfg == nullptr || !bi.dfg->validated()) return internal;
  for (const Invocation& inv : bi.invs) {
    for (std::size_t k = 0; k + 1 < inv.nodes.size(); ++k) {
      const int eid = bi.dfg->output_edge(inv.nodes[k], 0);
      if (eid >= 0) internal.insert(eid);
    }
  }
  return internal;
}

/// Whether the behavior's tables are usable (sizes match the DFG); the
/// binding pass reports the mismatches, every other consumer skips.
bool tables_usable(const BehaviorImpl& bi) {
  return bi.dfg != nullptr && bi.dfg->validated() &&
         bi.node_inv.size() == bi.dfg->nodes().size() &&
         bi.edge_reg.size() == bi.dfg->edges().size() &&
         static_cast<int>(bi.input_arrival.size()) == bi.dfg->num_inputs();
}

// ---- rtl-binding ---------------------------------------------------------

class RtlBindingPass final : public Pass {
 public:
  const char* name() const override { return "rtl-binding"; }
  bool applicable(const CheckContext& cx) const override {
    return cx.dp != nullptr && cx.lib != nullptr;
  }
  void run(const CheckContext& cx, Report& rep) const override {
    for (const LevelRef& lv : collect_levels(*cx.dp)) {
      for (std::size_t b = 0; b < lv.dp->behaviors.size(); ++b) {
        check_behavior(*lv.dp, static_cast<int>(b), *cx.lib,
                       strf("%s behavior '%s'", lv.path.c_str(),
                            lv.dp->behaviors[b].behavior.c_str()),
                       rep);
      }
      for (std::size_t c = 0; c < lv.dp->children.size(); ++c) {
        if (!lv.dp->children[c].impl) {
          rep.add("BIND007", Severity::Error,
                  lv.path + strf(" child %zu", c),
                  "child unit has no implementation");
        }
      }
    }
  }

 private:
  static void check_behavior(const Datapath& dp, int b, const Library& lib,
                             const std::string& at, Report& rep) {
    const BehaviorImpl& bi = dp.behaviors[static_cast<std::size_t>(b)];
    if (bi.dfg == nullptr) {
      rep.add("BIND008", Severity::Error, at, "behavior has no DFG");
      return;
    }
    if (!bi.dfg->validated()) {
      rep.add("BIND008", Severity::Error, at,
              "behavior DFG is not validated");
      return;
    }
    bool sizes_ok = true;
    if (bi.node_inv.size() != bi.dfg->nodes().size()) {
      rep.add("BIND008", Severity::Error, at,
              strf("node_inv table has %zu entries for %zu nodes",
                   bi.node_inv.size(), bi.dfg->nodes().size()));
      sizes_ok = false;
    }
    if (bi.edge_reg.size() != bi.dfg->edges().size()) {
      rep.add("BIND008", Severity::Error, at,
              strf("edge_reg table has %zu entries for %zu edges",
                   bi.edge_reg.size(), bi.dfg->edges().size()));
      sizes_ok = false;
    }
    if (static_cast<int>(bi.input_arrival.size()) != bi.dfg->num_inputs()) {
      rep.add("BIND008", Severity::Error, at,
              strf("input_arrival has %zu entries for %d primary inputs",
                   bi.input_arrival.size(), bi.dfg->num_inputs()));
      sizes_ok = false;
    }
    if (!sizes_ok) return;

    // Coverage: every node in exactly one invocation, node_inv agreeing.
    std::vector<int> covered(bi.dfg->nodes().size(), 0);
    for (std::size_t i = 0; i < bi.invs.size(); ++i) {
      const Invocation& inv = bi.invs[i];
      const std::string iat = at + strf(" inv %zu", i);
      if (inv.nodes.empty()) {
        rep.add("BIND001", Severity::Error, iat,
                "invocation executes no nodes");
        continue;
      }
      bool nodes_ok = true;
      for (const int nid : inv.nodes) {
        if (nid < 0 || nid >= static_cast<int>(covered.size())) {
          rep.add("BIND001", Severity::Error, iat,
                  strf("references nonexistent node %d", nid));
          nodes_ok = false;
          continue;
        }
        covered[static_cast<std::size_t>(nid)]++;
        if (bi.node_inv[static_cast<std::size_t>(nid)] !=
            static_cast<int>(i)) {
          rep.add("BIND001", Severity::Error, iat,
                  strf("node_inv[%d] = %d disagrees with invocation list",
                       nid, bi.node_inv[static_cast<std::size_t>(nid)]));
        }
      }
      if (!nodes_ok) continue;

      if (inv.unit.kind == UnitRef::Kind::Fu) {
        check_fu_invocation(dp, bi, inv, lib, iat, rep);
      } else {
        check_child_invocation(dp, bi, inv, iat, rep);
      }
    }
    for (std::size_t nid = 0; nid < covered.size(); ++nid) {
      if (covered[nid] != 1) {
        rep.add("BIND001", Severity::Error, at,
                strf("node %zu executed by %d invocations (want exactly 1)",
                     nid, covered[nid]));
      }
    }

    // Register table: index range + every cross-invocation value stored.
    const std::set<int> internal = chain_internal_edges(bi);
    for (const Edge& e : bi.dfg->edges()) {
      const int r = bi.edge_reg[static_cast<std::size_t>(e.id)];
      const std::string eat = at + strf(" edge %d", e.id);
      if (r >= static_cast<int>(dp.regs.size())) {
        rep.add("BIND005", Severity::Error, eat,
                strf("register %d out of range (%zu registers)", r,
                     dp.regs.size()));
        continue;
      }
      const bool is_internal = internal.count(e.id) != 0;
      if (r < 0 && !is_internal) {
        rep.add("BIND006", Severity::Error, eat,
                "value crosses invocations but is bound to no register");
      }
      if (r >= 0 && is_internal) {
        rep.add("BIND004", Severity::Error, eat,
                "chain-internal value must not be registered");
      }
    }
  }

  static void check_fu_invocation(const Datapath& dp, const BehaviorImpl& bi,
                                  const Invocation& inv, const Library& lib,
                                  const std::string& at, Report& rep) {
    if (inv.unit.idx < 0 || inv.unit.idx >= static_cast<int>(dp.fus.size())) {
      rep.add("BIND002", Severity::Error, at,
              strf("functional unit %d out of range (%zu units)",
                   inv.unit.idx, dp.fus.size()));
      return;
    }
    const FuUnit& fu = dp.fus[static_cast<std::size_t>(inv.unit.idx)];
    if (fu.type < 0 || fu.type >= lib.num_fu_types()) {
      rep.add("BIND002", Severity::Error, at,
              strf("unit '%s' has library type %d out of range (%d types)",
                   fu.name.c_str(), fu.type, lib.num_fu_types()));
      return;
    }
    const FuType& t = lib.fu(fu.type);
    if (static_cast<int>(inv.nodes.size()) > t.chain_depth) {
      rep.add("BIND003", Severity::Error, at,
              strf("chain of %zu ops exceeds depth %d of unit type %s",
                   inv.nodes.size(), t.chain_depth, t.name.c_str()));
    }
    for (const int nid : inv.nodes) {
      const Node& n = bi.dfg->node(nid);
      if (n.is_hier()) {
        rep.add("BIND003", Severity::Error, at,
                strf("hierarchical node %d bound to simple unit %s", nid,
                     t.name.c_str()));
        return;
      }
      if (!t.supports(n.op)) {
        rep.add("BIND003", Severity::Error, at,
                strf("unit type %s cannot execute %s (node %d)",
                     t.name.c_str(), op_name(n.op), nid));
      }
    }
    // Chains: contiguous single-consumer dependence chains.
    for (std::size_t k = 0; k + 1 < inv.nodes.size(); ++k) {
      const int eid = bi.dfg->output_edge(inv.nodes[k], 0);
      if (eid < 0) {
        rep.add("BIND004", Severity::Error, at,
                strf("chain link %d -> %d has no connecting edge",
                     inv.nodes[k], inv.nodes[k + 1]));
        continue;
      }
      const Edge& e = bi.dfg->edge(eid);
      if (e.dsts.size() != 1 || e.dsts[0].node != inv.nodes[k + 1]) {
        rep.add("BIND004", Severity::Error, at,
                strf("chain-intermediate value of node %d escapes the chain",
                     inv.nodes[k]));
      }
    }
  }

  static void check_child_invocation(const Datapath& dp,
                                     const BehaviorImpl& bi,
                                     const Invocation& inv,
                                     const std::string& at, Report& rep) {
    if (inv.nodes.size() != 1) {
      rep.add("BIND007", Severity::Error, at,
              strf("child invocation must hold exactly 1 node, holds %zu",
                   inv.nodes.size()));
      return;
    }
    if (inv.unit.idx < 0 ||
        inv.unit.idx >= static_cast<int>(dp.children.size())) {
      rep.add("BIND002", Severity::Error, at,
              strf("child module %d out of range (%zu children)",
                   inv.unit.idx, dp.children.size()));
      return;
    }
    const Node& n = bi.dfg->node(inv.nodes[0]);
    if (!n.is_hier()) {
      rep.add("BIND003", Severity::Error, at,
              strf("operation node %d bound to child module", n.id));
      return;
    }
    const ChildUnit& cu = dp.children[static_cast<std::size_t>(inv.unit.idx)];
    if (!cu.impl) return;  // reported once at the level walk
    if (cu.impl->find_behavior(n.behavior) < 0) {
      rep.add("BIND007", Severity::Error, at,
              strf("child '%s' does not implement behavior '%s'",
                   cu.name.c_str(), n.behavior.c_str()));
    }
  }
};

// ---- sched-legality ------------------------------------------------------

/// Independent recomputation of per-invocation timing: when the unit
/// reads each external input edge (earliest and latest port offset),
/// when it produces each output edge, and how long it occupies the unit.
struct InvTiming {
  int busy = 1;
  bool ok = false;  ///< false: timing indeterminable (diagnosed elsewhere)
  std::map<int, int> in_off;   ///< external input edge -> earliest read
  std::map<int, int> in_last;  ///< external input edge -> latest read
  std::map<int, int> out_off;  ///< output edge -> production offset
};

std::vector<InvTiming> collect_timing(const Datapath& dp, int b,
                                      const Library& lib, const OpPoint& pt,
                                      const std::string& at, Report& rep) {
  const BehaviorImpl& bi = dp.behaviors[static_cast<std::size_t>(b)];
  const std::set<int> internal = chain_internal_edges(bi);
  std::vector<InvTiming> out(bi.invs.size());
  for (std::size_t i = 0; i < bi.invs.size(); ++i) {
    const Invocation& inv = bi.invs[i];
    InvTiming& ti = out[i];
    if (inv.nodes.empty()) continue;
    if (inv.unit.kind == UnitRef::Kind::Fu) {
      if (inv.unit.idx < 0 ||
          inv.unit.idx >= static_cast<int>(dp.fus.size())) {
        continue;
      }
      const int type = dp.fus[static_cast<std::size_t>(inv.unit.idx)].type;
      if (type < 0 || type >= lib.num_fu_types()) continue;
      const int lat = lib.cycles(type, pt);
      ti.busy = lat;
      for (const int nid : inv.nodes) {
        const Node& n = bi.dfg->node(nid);
        if (n.is_hier()) continue;
        for (int p = 0; p < n.num_inputs; ++p) {
          const int e = bi.dfg->input_edge(nid, p);
          if (e < 0 || internal.count(e) != 0) continue;
          ti.in_off.emplace(e, 0);
          ti.in_last.emplace(e, 0);
        }
      }
      const int last = inv.nodes.back();
      for (int p = 0; p < bi.dfg->node(last).num_outputs; ++p) {
        const int e = bi.dfg->output_edge(last, p);
        if (e >= 0) ti.out_off.emplace(e, lat);
      }
      ti.ok = true;
    } else {
      if (inv.unit.idx < 0 ||
          inv.unit.idx >= static_cast<int>(dp.children.size())) {
        continue;
      }
      const ChildUnit& cu =
          dp.children[static_cast<std::size_t>(inv.unit.idx)];
      const Node& n = bi.dfg->node(inv.nodes.front());
      if (!cu.impl || !n.is_hier()) continue;
      const int cb = cu.impl->find_behavior(n.behavior);
      if (cb < 0) continue;
      const BehaviorImpl& cbi =
          cu.impl->behaviors[static_cast<std::size_t>(cb)];
      if (!cbi.scheduled_at(lib, pt)) {
        rep.add("SCHED008", Severity::Error, at + strf(" inv %zu", i),
                strf("child '%s' behavior '%s' is not scheduled%s under a "
                     "scheduled parent",
                     cu.name.c_str(), n.behavior.c_str(),
                     cbi.scheduled ? " at the parent's operating point" : ""));
        continue;
      }
      const Profile& p = cu.impl->profile(cb, lib, pt);
      ti.busy = std::max(1, p.makespan());
      for (int port = 0; port < n.num_inputs; ++port) {
        const int e = bi.dfg->input_edge(inv.nodes.front(), port);
        if (e < 0 ||
            port >= static_cast<int>(p.in.size())) {
          continue;
        }
        const int off = p.in[static_cast<std::size_t>(port)];
        auto [it, fresh] = ti.in_off.emplace(e, off);
        if (!fresh) it->second = std::min(it->second, off);
        auto [it2, fresh2] = ti.in_last.emplace(e, off);
        if (!fresh2) it2->second = std::max(it2->second, off);
      }
      for (int port = 0; port < n.num_outputs; ++port) {
        const int e = bi.dfg->output_edge(inv.nodes.front(), port);
        if (e >= 0 && port < static_cast<int>(p.out.size())) {
          ti.out_off.emplace(e, p.out[static_cast<std::size_t>(port)]);
        }
      }
      ti.ok = true;
    }
  }
  return out;
}

class SchedLegalityPass final : public Pass {
 public:
  const char* name() const override { return "sched-legality"; }
  bool applicable(const CheckContext& cx) const override {
    return cx.dp != nullptr && cx.lib != nullptr;
  }
  void run(const CheckContext& cx, Report& rep) const override {
    for (const LevelRef& lv : collect_levels(*cx.dp)) {
      for (std::size_t b = 0; b < lv.dp->behaviors.size(); ++b) {
        const BehaviorImpl& bi = lv.dp->behaviors[b];
        const std::string at =
            strf("%s behavior '%s'", lv.path.c_str(), bi.behavior.c_str());
        if (!tables_usable(bi)) continue;  // rtl-binding reports these
        if (!bi.scheduled) {
          if (lv.depth == 0 && cx.deadline > 0) {
            rep.add("SCHED000", Severity::Warning, at,
                    "behavior is not scheduled; schedule checks skipped");
          }
          continue;
        }
        check_schedule(*lv.dp, static_cast<int>(b), *cx.lib, cx.pt,
                       lv.depth == 0 ? cx.deadline : 0, at, rep);
      }
    }
  }

 private:
  static void check_schedule(const Datapath& dp, int b, const Library& lib,
                             const OpPoint& pt, int deadline,
                             const std::string& at, Report& rep) {
    const BehaviorImpl& bi = dp.behaviors[static_cast<std::size_t>(b)];
    const Dfg& dfg = *bi.dfg;
    if (bi.inv_start.size() != bi.invs.size()) {
      rep.add("SCHED002", Severity::Error, at,
              strf("inv_start has %zu entries for %zu invocations",
                   bi.inv_start.size(), bi.invs.size()));
      return;
    }
    const std::vector<InvTiming> timing = collect_timing(dp, b, lib, pt, at, rep);

    // Ready time of an edge under the recorded schedule; -1 when the
    // producer's timing could not be established.
    auto ready = [&](int e) -> int {
      const Edge& edge = dfg.edge(e);
      if (edge.src.node == kPrimaryIn) {
        return bi.input_arrival[static_cast<std::size_t>(edge.src.port)];
      }
      const int p = inv_of_safe(bi, edge.src.node);
      if (p < 0 || !timing[static_cast<std::size_t>(p)].ok) return -1;
      const auto it = timing[static_cast<std::size_t>(p)].out_off.find(e);
      if (it == timing[static_cast<std::size_t>(p)].out_off.end()) return -1;
      return bi.inv_start[static_cast<std::size_t>(p)] + it->second;
    };

    // SCHED002: start cycles in range.
    for (std::size_t i = 0; i < bi.invs.size(); ++i) {
      if (bi.inv_start[i] < 0) {
        rep.add("SCHED002", Severity::Error, at + strf(" inv %zu", i),
                strf("starts at negative cycle %d", bi.inv_start[i]));
      }
    }

    // SCHED001: every operand produced before (or at) its read.
    for (std::size_t i = 0; i < bi.invs.size(); ++i) {
      const InvTiming& ti = timing[i];
      if (!ti.ok) continue;
      for (const auto& [e, off] : ti.in_off) {
        const int r = ready(e);
        if (r < 0) continue;
        const int read_at = bi.inv_start[i] + off;
        if (read_at < r) {
          rep.add("SCHED001", Severity::Error, at + strf(" inv %zu", i),
                  strf("reads edge %d at cycle %d but it is produced at "
                       "cycle %d (precedence violated)",
                       e, read_at, r));
        }
      }
    }

    // SCHED003: shared units never double-booked.
    std::map<std::pair<int, int>, std::vector<std::size_t>> by_unit;
    for (std::size_t i = 0; i < bi.invs.size(); ++i) {
      const UnitRef& u = bi.invs[i].unit;
      by_unit[{static_cast<int>(u.kind), u.idx}].push_back(i);
    }
    for (const auto& [key, list] : by_unit) {
      if (list.size() < 2) continue;
      bool pipelined = false;
      if (key.first == static_cast<int>(UnitRef::Kind::Fu) &&
          key.second >= 0 && key.second < static_cast<int>(dp.fus.size())) {
        const int type = dp.fus[static_cast<std::size_t>(key.second)].type;
        if (type >= 0 && type < lib.num_fu_types()) {
          pipelined = lib.fu(type).pipelined;
        }
      }
      std::vector<std::size_t> order = list;
      std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t c) {
        if (bi.inv_start[a] != bi.inv_start[c]) {
          return bi.inv_start[a] < bi.inv_start[c];
        }
        return a < c;
      });
      for (std::size_t k = 0; k + 1 < order.size(); ++k) {
        const std::size_t a = order[k];
        const std::size_t c = order[k + 1];
        if (!timing[a].ok) continue;
        const int gap_needed = pipelined ? 1 : timing[a].busy;
        if (bi.inv_start[c] < bi.inv_start[a] + gap_needed) {
          rep.add("SCHED003", Severity::Error, at,
                  strf("invocations %zu and %zu double-book %s %d "
                       "(starts %d and %d, %s window %d)",
                       a, c,
                       key.first == static_cast<int>(UnitRef::Kind::Fu)
                           ? "fu"
                           : "child",
                       key.second, bi.inv_start[a], bi.inv_start[c],
                       pipelined ? "pipelined initiation" : "busy",
                       gap_needed));
        }
      }
    }

    // Register lifetimes: writes strictly ordered, every read of a value
    // strictly before the next value's write into the same register.
    check_register_lifetimes(dp, b, timing, at, rep);

    // SCHED006: the recorded makespan matches the primary-output ready
    // times; SCHED007: the throughput constraint holds.
    int recomputed = 0;
    bool complete = true;
    for (int o = 0; o < dfg.num_outputs(); ++o) {
      const int e = dfg.primary_output_edge(o);
      if (e < 0) {
        complete = false;
        continue;
      }
      const int r = ready(e);
      if (r < 0) {
        complete = false;
        continue;
      }
      recomputed = std::max(recomputed, r);
    }
    if (complete && recomputed != bi.makespan) {
      rep.add("SCHED006", Severity::Error, at,
              strf("recorded makespan %d but primary outputs complete at "
                   "cycle %d",
                   bi.makespan, recomputed));
    }
    if (deadline > 0 && bi.makespan > deadline) {
      rep.add("SCHED007", Severity::Error, at,
              strf("makespan %d exceeds the sampling-period deadline of %d "
                   "cycles (throughput constraint violated)",
                   bi.makespan, deadline));
    }
  }

  static void check_register_lifetimes(const Datapath& dp, int b,
                                       const std::vector<InvTiming>& timing,
                                       const std::string& at, Report& rep) {
    const BehaviorImpl& bi = dp.behaviors[static_cast<std::size_t>(b)];
    const Dfg& dfg = *bi.dfg;

    struct Var {
      int edge = -1;
      int write = 0;                 ///< cycle the value lands in the register
      std::vector<int> reads;        ///< absolute read cycles
      bool primary_out = false;
    };
    std::map<int, std::vector<Var>> by_reg;
    for (const Edge& e : dfg.edges()) {
      const int r = bi.edge_reg[static_cast<std::size_t>(e.id)];
      if (r < 0 || r >= static_cast<int>(dp.regs.size())) continue;
      Var v;
      v.edge = e.id;
      if (e.src.node == kPrimaryIn) {
        v.write = bi.input_arrival[static_cast<std::size_t>(e.src.port)];
      } else {
        const int p = inv_of_safe(bi, e.src.node);
        if (p < 0 || !timing[static_cast<std::size_t>(p)].ok) continue;
        const auto it = timing[static_cast<std::size_t>(p)].out_off.find(e.id);
        if (it == timing[static_cast<std::size_t>(p)].out_off.end()) continue;
        v.write = bi.inv_start[static_cast<std::size_t>(p)] + it->second;
      }
      for (const PortRef& d : e.dsts) {
        if (d.node == kPrimaryOut) {
          v.primary_out = true;
          v.reads.push_back(bi.makespan);  // live until the sample ends
          continue;
        }
        const int c = inv_of_safe(bi, d.node);
        if (c < 0 || !timing[static_cast<std::size_t>(c)].ok) continue;
        const auto it = timing[static_cast<std::size_t>(c)].in_last.find(e.id);
        const int off =
            it == timing[static_cast<std::size_t>(c)].in_last.end() ? 0
                                                                    : it->second;
        v.reads.push_back(bi.inv_start[static_cast<std::size_t>(c)] + off);
      }
      by_reg[r].push_back(v);
    }

    for (const auto& [r, vars] : by_reg) {
      if (vars.size() < 2) continue;
      int n_po = 0;
      for (const Var& v : vars) n_po += v.primary_out ? 1 : 0;
      if (n_po > 1) {
        rep.add("SCHED005", Severity::Error, at,
                strf("register r%d holds %d primary-output variables", r,
                     n_po));
      }
      std::vector<const Var*> order;
      order.reserve(vars.size());
      for (const Var& v : vars) order.push_back(&v);
      std::sort(order.begin(), order.end(), [](const Var* a, const Var* c) {
        if (a->write != c->write) return a->write < c->write;
        return a->edge < c->edge;
      });
      for (std::size_t k = 0; k + 1 < order.size(); ++k) {
        const Var& a = *order[k];
        const Var& nxt = *order[k + 1];
        if (a.write == nxt.write) {
          rep.add("SCHED004", Severity::Error, at,
                  strf("register r%d written by edges %d and %d in the same "
                       "cycle %d",
                       r, a.edge, nxt.edge, a.write));
          continue;
        }
        // Every read of every earlier value must precede this write.
        for (std::size_t j = 0; j <= k; ++j) {
          const Var& v = *order[j];
          for (const int t : v.reads) {
            if (t >= nxt.write) {
              rep.add("SCHED004", Severity::Error, at,
                      strf("register r%d: edge %d overwrites edge %d at "
                           "cycle %d while it is still read at cycle %d "
                           "(lifetimes overlap)",
                           r, nxt.edge, v.edge, nxt.write, t));
            }
          }
        }
      }
    }
  }
};

}  // namespace

std::unique_ptr<Pass> make_rtl_binding_pass() {
  return std::make_unique<RtlBindingPass>();
}
std::unique_ptr<Pass> make_sched_legality_pass() {
  return std::make_unique<SchedLegalityPass>();
}

}  // namespace hsyn::lint
