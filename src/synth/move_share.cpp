// Move C: resource sharing (paper Sections 1 and 3).
//
// Four sharing flavors are generated:
//   * functional-unit merging (two simple units -> one, possibly with a
//     wider multifunction type),
//   * register merging (lifetime compatibility is checked by the
//     scheduler's write-after-read ordering),
//   * complex-instance reuse (two instances executing the same behavior
//     collapse into one),
//   * RTL embedding (two instances executing *different* behaviors merge
//     into one module that embeds both -- the paper's novel move), and
//   * chain fusion (dependent same-op invocations fuse onto a chained
//     unit, e.g. three add1's onto one chained_add3 -- module C5).
//
// Candidates are ranked by a cheap structural saving estimate and the
// best few are fully evaluated (copy, mutate, schedule, cost).
#include <algorithm>
#include <set>

#include "embed/embedder.h"
#include "obs/ledger.h"
#include "rtl/cost.h"
#include "synth/moves.h"
#include "util/fmt.h"

namespace hsyn {
namespace {

struct Candidate {
  double priority = 0;  ///< estimated saving, for ranking only
  enum class Kind { FuMerge, RegMerge, ChildReuse, Embed, ChainFuse } kind;
  int a = -1;
  int b = -1;
  int merged_type = -1;  // FuMerge
  int inv_a = -1;        // ChainFuse: producer invocation
  int inv_b = -1;        // ChainFuse: consumer invocation
  int fuse_type = -1;    // ChainFuse: chained unit type
};

void gather_fu_merges(const Datapath& dp, const SynthContext& cx,
                      std::vector<Candidate>& out) {
  std::vector<FuMergeUsage> use;
  for (std::size_t i = 0; i < dp.fus.size(); ++i) {
    use.push_back(fu_merge_usage(dp, static_cast<int>(i), *cx.lib, cx.pt));
  }
  for (std::size_t i = 0; i < dp.fus.size(); ++i) {
    for (std::size_t j = i + 1; j < dp.fus.size(); ++j) {
      const int t = merged_fu_type(use[i], use[j], *cx.lib, cx.pt);
      if (t < 0) continue;
      const double saving = cx.lib->fu(dp.fus[i].type).area +
                            cx.lib->fu(dp.fus[j].type).area -
                            cx.lib->fu(t).area;
      Candidate c;
      c.kind = Candidate::Kind::FuMerge;
      c.priority = saving;
      c.a = static_cast<int>(i);
      c.b = static_cast<int>(j);
      c.merged_type = t;
      out.push_back(c);
    }
  }
}

void gather_reg_merges(const Datapath& dp, const SynthContext& cx,
                       std::vector<Candidate>& out) {
  // Merging registers whose contents come from the same source costs no
  // extra mux input; prefer those.
  const Connectivity conn = connectivity_of(dp);
  // |a u b| of two sorted, duplicate-free rows, by a merge walk.
  auto union_size = [](const std::vector<SourceKey>& a,
                       const std::vector<SourceKey>& b) {
    std::size_t ia = 0, ib = 0;
    int n = 0;
    while (ia < a.size() && ib < b.size()) {
      const auto ord = a[ia] <=> b[ib];
      if (ord <= 0) ++ia;
      if (ord >= 0) ++ib;
      ++n;
    }
    return n + static_cast<int>(a.size() - ia + b.size() - ib);
  };
  for (std::size_t i = 0; i < dp.regs.size(); ++i) {
    for (std::size_t j = i + 1; j < dp.regs.size(); ++j) {
      const int extra_mux =
          std::max(0, union_size(conn.reg_srcs[i], conn.reg_srcs[j]) - 1) -
          std::max(0, static_cast<int>(conn.reg_srcs[i].size()) - 1) -
          std::max(0, static_cast<int>(conn.reg_srcs[j].size()) - 1);
      Candidate c;
      c.kind = Candidate::Kind::RegMerge;
      c.priority = cx.lib->reg().area -
                   cx.lib->costs().mux_area_per_input * extra_mux;
      c.a = static_cast<int>(i);
      c.b = static_cast<int>(j);
      out.push_back(c);
    }
  }
}

void gather_child_merges(const Datapath& dp, const SynthContext& cx,
                         std::vector<Candidate>& out) {
  auto behaviors_of = [&](int idx) {
    std::set<std::string> s;
    for (const BehaviorImpl& bi : dp.children[static_cast<std::size_t>(idx)]
                                      .impl->behaviors) {
      s.insert(bi.behavior);
    }
    return s;
  };
  for (std::size_t i = 0; i < dp.children.size(); ++i) {
    const double area_i =
        area_of(*dp.children[i].impl, *cx.lib, false).total();
    for (std::size_t j = i + 1; j < dp.children.size(); ++j) {
      const double area_j =
          area_of(*dp.children[j].impl, *cx.lib, false).total();
      const std::set<std::string> bi = behaviors_of(static_cast<int>(i));
      const std::set<std::string> bj = behaviors_of(static_cast<int>(j));
      const bool j_in_i = std::includes(bi.begin(), bi.end(), bj.begin(), bj.end());
      const bool i_in_j = std::includes(bj.begin(), bj.end(), bi.begin(), bi.end());
      bool disjoint = true;
      for (const std::string& s : bj) disjoint = disjoint && !bi.count(s);
      Candidate c;
      c.a = static_cast<int>(i);
      c.b = static_cast<int>(j);
      if (j_in_i) {
        c.kind = Candidate::Kind::ChildReuse;
        c.priority = area_j;
        out.push_back(c);
      } else if (i_in_j) {
        // The other containment direction: keep j, retire i.
        c.kind = Candidate::Kind::ChildReuse;
        c.a = static_cast<int>(j);
        c.b = static_cast<int>(i);
        c.priority = area_i;
        out.push_back(c);
      } else if (disjoint) {
        c.kind = Candidate::Kind::Embed;
        c.priority = std::min(area_i, area_j) * 0.8;
        out.push_back(c);
      }
    }
  }
}

void gather_chain_fusions(const Datapath& dp, const SynthContext& cx,
                          std::vector<Candidate>& out) {
  const BehaviorImpl& bi = dp.behaviors[0];
  const Dfg& dfg = *bi.dfg;
  for (std::size_t p = 0; p < bi.invs.size(); ++p) {
    const Invocation& prod = bi.invs[p];
    if (prod.unit.kind != UnitRef::Kind::Fu) continue;
    const int oe = dfg.output_edge(prod.nodes.back(), 0);
    if (oe < 0) continue;
    const Edge& e = dfg.edge(oe);
    if (e.dsts.size() != 1 || e.dsts[0].node < 0) continue;
    const int ci = bi.inv_of(e.dsts[0].node);
    if (ci == static_cast<int>(p)) continue;
    const Invocation& cons = bi.invs[static_cast<std::size_t>(ci)];
    if (cons.unit.kind != UnitRef::Kind::Fu) continue;
    if (cons.nodes.front() != e.dsts[0].node) continue;
    // Find a chained type able to absorb the whole fused chain.
    FuMergeUsage u;
    u.max_chain = static_cast<int>(prod.nodes.size() + cons.nodes.size());
    for (const int nid : prod.nodes) u.ops.insert(dfg.node(nid).op);
    for (const int nid : cons.nodes) u.ops.insert(dfg.node(nid).op);
    int best_t = -1;
    double best_area = 1e18;
    for (int t = 0; t < cx.lib->num_fu_types(); ++t) {
      const FuType& ft = cx.lib->fu(t);
      if (ft.chain_depth < u.max_chain) continue;
      bool ok = true;
      for (const Op op : u.ops) ok = ok && ft.supports(op);
      if (!ok) continue;
      if (ft.area < best_area) {
        best_area = ft.area;
        best_t = t;
      }
    }
    if (best_t < 0) continue;
    Candidate c;
    c.kind = Candidate::Kind::ChainFuse;
    // Saves the producer+consumer units and the intermediate register in
    // exchange for the chained unit.
    c.priority =
        cx.lib->fu(dp.fus[static_cast<std::size_t>(prod.unit.idx)].type).area +
        cx.lib->fu(dp.fus[static_cast<std::size_t>(cons.unit.idx)].type).area +
        cx.lib->reg().area - best_area;
    c.inv_a = static_cast<int>(p);
    c.inv_b = ci;
    c.fuse_type = best_t;
    out.push_back(c);
  }
}

Datapath apply_candidate(const Datapath& dp, const Candidate& c,
                         const SynthContext& cx, std::string& desc) {
  Datapath cand = dp;
  BehaviorImpl& bi = cand.behaviors[0];
  switch (c.kind) {
    case Candidate::Kind::FuMerge: {
      cand.fus[static_cast<std::size_t>(c.a)].type = c.merged_type;
      for (Invocation& inv : bi.invs) {
        if (inv.unit == UnitRef{UnitRef::Kind::Fu, c.b}) {
          inv.unit.idx = c.a;
        }
      }
      desc = strf("merge fu%d into fu%d as %s", c.b, c.a,
                  cx.lib->fu(c.merged_type).name.c_str());
      break;
    }
    case Candidate::Kind::RegMerge: {
      for (int& r : bi.edge_reg) {
        if (r == c.b) r = c.a;
      }
      desc = strf("merge reg%d into reg%d", c.b, c.a);
      break;
    }
    case Candidate::Kind::ChildReuse: {
      for (Invocation& inv : bi.invs) {
        if (inv.unit == UnitRef{UnitRef::Kind::Child, c.b}) {
          inv.unit.idx = c.a;
        }
      }
      desc = strf("reuse child%d for child%d's work", c.a, c.b);
      break;
    }
    case Candidate::Kind::Embed: {
      auto merged = embed_modules(*dp.children[static_cast<std::size_t>(c.a)].impl,
                                  *dp.children[static_cast<std::size_t>(c.b)].impl,
                                  *cx.lib, cx.pt);
      if (!merged) {
        desc.clear();
        return cand;  // caller treats empty desc as failure
      }
      cand.children[static_cast<std::size_t>(c.a)].impl =
          std::make_shared<const Datapath>(std::move(*merged));
      cand.children[static_cast<std::size_t>(c.a)].sealed =
          dp.children[static_cast<std::size_t>(c.a)].sealed ||
          dp.children[static_cast<std::size_t>(c.b)].sealed;
      for (Invocation& inv : bi.invs) {
        if (inv.unit == UnitRef{UnitRef::Kind::Child, c.b}) {
          inv.unit.idx = c.a;
        }
      }
      desc = strf("embed child%d and child%d into one module", c.a, c.b);
      break;
    }
    case Candidate::Kind::ChainFuse: {
      Invocation& prod = bi.invs[static_cast<std::size_t>(c.inv_a)];
      Invocation& cons = bi.invs[static_cast<std::size_t>(c.inv_b)];
      // Intermediate edge loses its register (lives inside the chain).
      const int oe = bi.dfg->output_edge(prod.nodes.back(), 0);
      bi.edge_reg[static_cast<std::size_t>(oe)] = -1;
      // Fused invocation replaces the consumer on a new chained unit.
      const int new_unit = static_cast<int>(cand.fus.size());
      cand.fus.push_back({c.fuse_type, ""});
      std::vector<int> nodes = prod.nodes;
      nodes.insert(nodes.end(), cons.nodes.begin(), cons.nodes.end());
      cons.nodes = std::move(nodes);
      cons.unit = {UnitRef::Kind::Fu, new_unit};
      for (const int nid : cons.nodes) {
        bi.node_inv[static_cast<std::size_t>(nid)] = c.inv_b;
      }
      // Remove the producer invocation (swap-erase with index fixups).
      const std::size_t last = bi.invs.size() - 1;
      if (static_cast<std::size_t>(c.inv_a) != last) {
        bi.invs[static_cast<std::size_t>(c.inv_a)] = std::move(bi.invs[last]);
        for (const int nid : bi.invs[static_cast<std::size_t>(c.inv_a)].nodes) {
          bi.node_inv[static_cast<std::size_t>(nid)] = c.inv_a;
        }
      }
      bi.invs.pop_back();
      desc = strf("fuse chain onto %s", cx.lib->fu(c.fuse_type).name.c_str());
      break;
    }
  }
  return cand;
}

}  // namespace

Move best_sharing_move(const Datapath& dp, const SynthContext& cx) {
  Move best;
  if (!cx.opts.enable_share) return best;
  const double cost0 = cost_of(dp, cx);

  std::vector<Candidate> cands;
  gather_fu_merges(dp, cx, cands);
  gather_reg_merges(dp, cx, cands);
  gather_child_merges(dp, cx, cands);
  gather_chain_fusions(dp, cx, cands);
  std::sort(cands.begin(), cands.end(), [](const Candidate& a, const Candidate& b) {
    return a.priority > b.priority;
  });
  if (static_cast<int>(cands.size()) > cx.opts.max_candidates) {
    cands.resize(static_cast<std::size_t>(cx.opts.max_candidates));
  }
  // Apply + reschedule + cost each candidate in priority order.
  const std::uint64_t grp = obs::MoveLedger::instance().begin_group();
  for (std::size_t i = 0; i < cands.size(); ++i) {
    obs::CandidateScope oscope(grp, static_cast<std::int32_t>(i));
    const Candidate& c = cands[i];
    std::string desc;
    Datapath cand = apply_candidate(dp, c, cx, desc);
    if (desc.empty()) continue;  // e.g. embedding failed
    const char* kind = c.kind == Candidate::Kind::Embed ? "C:embed"
                       : c.kind == Candidate::Kind::ChainFuse
                           ? "C:chain-fuse"
                           : "C:share";
    keep_better(best, finish_move(std::move(cand), cx, cost0, kind, desc));
  }
  return best;
}

}  // namespace hsyn
