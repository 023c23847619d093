#include "embed/embedder.h"

#include <algorithm>
#include <limits>
#include <set>

#include "embed/hungarian.h"
#include "rtl/cost.h"
#include "util/fmt.h"

namespace hsyn {

FuMergeUsage fu_merge_usage(const Datapath& dp, int fu_idx, const Library& lib,
                            const OpPoint& pt) {
  FuMergeUsage u;
  const FuType& t = lib.fu(dp.fus[static_cast<std::size_t>(fu_idx)].type);
  u.cycles = lib.cycles(dp.fus[static_cast<std::size_t>(fu_idx)].type, pt);
  u.pipelined = t.pipelined;
  for (const BehaviorImpl& bi : dp.behaviors) {
    for (const Invocation& inv : bi.invs) {
      if (inv.unit.kind != UnitRef::Kind::Fu || inv.unit.idx != fu_idx) continue;
      u.max_chain = std::max(u.max_chain, static_cast<int>(inv.nodes.size()));
      for (const int nid : inv.nodes) u.ops.insert(bi.dfg->node(nid).op);
    }
  }
  return u;
}

int merged_fu_type(const FuMergeUsage& a, const FuMergeUsage& b,
                   const Library& lib, const OpPoint& pt) {
  if (a.cycles != b.cycles || a.pipelined != b.pipelined) return -1;
  int best = -1;
  double best_area = std::numeric_limits<double>::max();
  for (int t = 0; t < lib.num_fu_types(); ++t) {
    const FuType& ft = lib.fu(t);
    if (ft.chain_depth < std::max(a.max_chain, b.max_chain)) continue;
    if (ft.pipelined != a.pipelined) continue;
    if (lib.cycles(t, pt) != a.cycles) continue;
    bool ok = true;
    for (const Op op : a.ops) ok = ok && ft.supports(op);
    for (const Op op : b.ops) ok = ok && ft.supports(op);
    if (!ok) continue;
    if (ft.area < best_area) {
      best_area = ft.area;
      best = t;
    }
  }
  return best;
}

namespace {

std::string comp_name(const std::string& given, const char* prefix, std::size_t i) {
  return given.empty() ? strf("%s%zu", prefix, i) : given;
}

/// Register sources (producing units) per register, with fu indices
/// remapped through `fu_map` so A- and B-side sources land in the merged
/// index space. Children are offset by `child_off`.
std::vector<std::set<SourceKey>> reg_sources(const Datapath& dp,
                                             const std::vector<int>& fu_map,
                                             int child_off) {
  std::vector<std::set<SourceKey>> srcs(dp.regs.size());
  for (const BehaviorImpl& bi : dp.behaviors) {
    for (const Edge& e : bi.dfg->edges()) {
      const int r = bi.edge_reg[static_cast<std::size_t>(e.id)];
      if (r < 0) continue;
      SourceKey key;
      if (e.src.node == kPrimaryIn) {
        key = {3, e.src.port, 0};
      } else {
        const Invocation& inv =
            bi.invs[static_cast<std::size_t>(bi.inv_of(e.src.node))];
        if (inv.unit.kind == UnitRef::Kind::Fu) {
          key = {1, fu_map[static_cast<std::size_t>(inv.unit.idx)], 0};
        } else {
          key = {2, inv.unit.idx + child_off, e.src.port};
        }
      }
      srcs[static_cast<std::size_t>(r)].insert(key);
    }
  }
  return srcs;
}

}  // namespace

std::optional<Datapath> embed_modules(const Datapath& a, const Datapath& b,
                                      const Library& lib, const OpPoint& pt,
                                      EmbedCorrespondence* corr) {
  // Overlapping behavior sets call for plain instance sharing, not
  // embedding.
  for (const BehaviorImpl& bi : a.behaviors) {
    if (b.find_behavior(bi.behavior) >= 0) return std::nullopt;
  }

  const StructureCosts& sc = lib.costs();
  std::vector<FuMergeUsage> ua, ub;
  for (std::size_t i = 0; i < a.fus.size(); ++i) {
    ua.push_back(fu_merge_usage(a, static_cast<int>(i), lib, pt));
  }
  for (std::size_t j = 0; j < b.fus.size(); ++j) {
    ub.push_back(fu_merge_usage(b, static_cast<int>(j), lib, pt));
  }
  const std::size_t na = a.fus.size();
  const std::size_t nb = b.fus.size();
  const std::size_t n = na + nb;

  // ---- Functional-unit matching. ----------------------------------------
  // Rows: A units then B-dummies; cols: B units then A-dummies.
  std::vector<std::vector<int>> pair_type(na, std::vector<int>(nb, -1));
  std::vector<std::vector<double>> cost(n, std::vector<double>(n, 0));
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i < na && j < nb) {
        const int t = merged_fu_type(ua[i], ub[j], lib, pt);
        pair_type[i][j] = t;
        if (t < 0) {
          cost[i][j] = kInfeasible;
        } else {
          // Shared unit: its area once, plus a mux-growth estimate (each
          // input port now steered from both modules' registers).
          const int ports = std::max(ua[i].max_chain, ub[j].max_chain) + 1;
          cost[i][j] = lib.fu(t).area + sc.mux_area_per_input * ports;
        }
      } else if (i < na) {
        cost[i][j] = lib.fu(a.fus[i].type).area;  // A unit unmatched
      } else if (j < nb) {
        cost[i][j] = lib.fu(b.fus[j].type).area;  // B unit unmatched
      } else {
        cost[i][j] = 0;  // dummy-dummy
      }
    }
  }
  AssignmentResult fu_asg;
  if (n > 0) fu_asg = solve_assignment(cost);

  Datapath merged(a.name + "+" + b.name);
  std::vector<int> a_fu_map(na, -1);
  std::vector<int> b_fu_map(nb, -1);
  struct FuOrigin {
    int from_a = -1;
    int from_b = -1;
  };
  std::vector<FuOrigin> fu_origin;
  for (std::size_t i = 0; i < na; ++i) {
    const int j = fu_asg.row_to_col[i];
    const bool matched =
        j >= 0 && j < static_cast<int>(nb) &&
        pair_type[i][static_cast<std::size_t>(j)] >= 0;
    const int idx = static_cast<int>(merged.fus.size());
    if (matched) {
      merged.fus.push_back({pair_type[i][static_cast<std::size_t>(j)],
                            comp_name(a.fus[i].name, "u", i)});
      a_fu_map[i] = idx;
      b_fu_map[static_cast<std::size_t>(j)] = idx;
      fu_origin.push_back({static_cast<int>(i), j});
    } else {
      merged.fus.push_back({a.fus[i].type, comp_name(a.fus[i].name, "u", i)});
      a_fu_map[i] = idx;
      fu_origin.push_back({static_cast<int>(i), -1});
    }
  }
  for (std::size_t j = 0; j < nb; ++j) {
    if (b_fu_map[j] >= 0) continue;
    b_fu_map[j] = static_cast<int>(merged.fus.size());
    merged.fus.push_back(
        {b.fus[j].type, comp_name(b.fus[j].name, "u", na + j)});
    fu_origin.push_back({-1, static_cast<int>(j)});
  }

  // ---- Children carried over unmatched. ----------------------------------
  const int a_child_off = 0;
  for (const ChildUnit& c : a.children) merged.children.push_back(c);
  const int b_child_off = static_cast<int>(a.children.size());
  for (const ChildUnit& c : b.children) merged.children.push_back(c);

  // ---- Register matching (interconnect-aware). ---------------------------
  const auto a_srcs = reg_sources(a, a_fu_map, a_child_off);
  const auto b_srcs = reg_sources(b, b_fu_map, b_child_off);
  const std::size_t ra = a.regs.size();
  const std::size_t rb = b.regs.size();
  const std::size_t rn = ra + rb;
  std::vector<std::vector<double>> rcost(rn, std::vector<double>(rn, 0));
  for (std::size_t i = 0; i < rn; ++i) {
    for (std::size_t j = 0; j < rn; ++j) {
      if (i < ra && j < rb) {
        std::set<SourceKey> un = a_srcs[i];
        un.insert(b_srcs[j].begin(), b_srcs[j].end());
        rcost[i][j] = lib.reg().area +
                      sc.mux_area_per_input *
                          std::max(0, static_cast<int>(un.size()) - 1);
      } else if (i < ra) {
        rcost[i][j] = lib.reg().area +
                      sc.mux_area_per_input *
                          std::max(0, static_cast<int>(a_srcs[i].size()) - 1);
      } else if (j < rb) {
        rcost[i][j] = lib.reg().area +
                      sc.mux_area_per_input *
                          std::max(0, static_cast<int>(b_srcs[j].size()) - 1);
      } else {
        rcost[i][j] = 0;
      }
    }
  }
  AssignmentResult reg_asg;
  if (rn > 0) reg_asg = solve_assignment(rcost);

  std::vector<int> a_reg_map(ra, -1);
  std::vector<int> b_reg_map(rb, -1);
  struct RegOrigin {
    int from_a = -1;
    int from_b = -1;
  };
  std::vector<RegOrigin> reg_origin;
  for (std::size_t i = 0; i < ra; ++i) {
    const int j = reg_asg.row_to_col[i];
    const int idx = static_cast<int>(merged.regs.size());
    merged.regs.push_back({strf("q%zu", merged.regs.size() + 1)});
    a_reg_map[i] = idx;
    if (j >= 0 && j < static_cast<int>(rb)) {
      b_reg_map[static_cast<std::size_t>(j)] = idx;
      reg_origin.push_back({static_cast<int>(i), j});
    } else {
      reg_origin.push_back({static_cast<int>(i), -1});
    }
  }
  for (std::size_t j = 0; j < rb; ++j) {
    if (b_reg_map[j] >= 0) continue;
    b_reg_map[j] = static_cast<int>(merged.regs.size());
    merged.regs.push_back({strf("q%zu", merged.regs.size() + 1)});
    reg_origin.push_back({-1, static_cast<int>(j)});
  }

  // ---- Rebind behaviors onto the merged component set. -------------------
  auto rebind = [&](const Datapath& src, const std::vector<int>& fu_map,
                    const std::vector<int>& reg_map, int child_off) {
    for (BehaviorImpl bi : src.behaviors) {
      for (Invocation& inv : bi.invs) {
        if (inv.unit.kind == UnitRef::Kind::Fu) {
          inv.unit.idx = fu_map[static_cast<std::size_t>(inv.unit.idx)];
        } else {
          inv.unit.idx += child_off;
        }
      }
      for (int& r : bi.edge_reg) {
        if (r >= 0) r = reg_map[static_cast<std::size_t>(r)];
      }
      bi.unschedule();
      merged.behaviors.push_back(std::move(bi));
    }
  };
  rebind(a, a_fu_map, a_reg_map, a_child_off);
  rebind(b, b_fu_map, b_reg_map, b_child_off);

  if (corr) {
    corr->entries.clear();
    for (std::size_t k = 0; k < merged.regs.size(); ++k) {
      const RegOrigin& o = reg_origin[k];
      corr->entries.push_back(
          {merged.regs[k].name,
           o.from_a >= 0 ? comp_name(a.regs[static_cast<std::size_t>(o.from_a)].name,
                                     "r", static_cast<std::size_t>(o.from_a))
                         : "-",
           o.from_b >= 0 ? comp_name(b.regs[static_cast<std::size_t>(o.from_b)].name,
                                     "s", static_cast<std::size_t>(o.from_b))
                         : "-",
           lib.reg().name, lib.reg().area});
    }
    for (std::size_t k = 0; k < merged.fus.size(); ++k) {
      const FuOrigin& o = fu_origin[k];
      const FuType& t = lib.fu(merged.fus[k].type);
      corr->entries.push_back(
          {merged.fus[k].name,
           o.from_a >= 0 ? comp_name(a.fus[static_cast<std::size_t>(o.from_a)].name,
                                     "fu", static_cast<std::size_t>(o.from_a))
                         : "-",
           o.from_b >= 0 ? comp_name(b.fus[static_cast<std::size_t>(o.from_b)].name,
                                     "fu", static_cast<std::size_t>(o.from_b))
                         : "-",
           t.name, t.area});
    }
  }
  return merged;
}

}  // namespace hsyn
