// Move D: resource splitting (paper Section 1: "a simple (complex)
// module is split into multiple simple (complex) modules").
//
// Splitting creates new optimization opportunities and, in the power
// objective, removes the activity penalty of interleaving weakly
// correlated computations on one resource. Flavors:
//   * simple-unit split: one invocation moves to a fresh unit,
//   * register split: one variable moves to a fresh register,
//   * complex-instance split: a second copy of the module takes over
//     part of the work (also un-does RTL embedding behavior-wise),
//   * chain unfuse: a chained invocation breaks back into single ops.
#include <algorithm>
#include <set>

#include "obs/ledger.h"
#include "rtl/cost.h"
#include "runtime/parallel.h"
#include "synth/moves.h"
#include "util/fmt.h"

namespace hsyn {
namespace {

// Every flavor below enumerates its candidate indices serially (cheap
// structural filters, identical order and caps to the serial engine)
// and evaluates them -- copy, mutate, reschedule, cost -- on the
// parallel runtime, reduced in enumeration order so the selected move
// is independent of the thread count.

Move split_fu(const Datapath& dp, const SynthContext& cx, double cost0) {
  const BehaviorImpl& bi = dp.behaviors[0];
  std::vector<std::size_t> targets;
  for (std::size_t i = 0;
       i < bi.invs.size() &&
       static_cast<int>(targets.size()) < cx.opts.max_candidates;
       ++i) {
    const Invocation& inv = bi.invs[i];
    if (inv.unit.kind != UnitRef::Kind::Fu) continue;
    if (dp.unit_load(inv.unit) < 2) continue;
    targets.push_back(i);
  }
  const std::uint64_t grp = obs::MoveLedger::instance().begin_group();
  return runtime::parallel_best(
      static_cast<int>(targets.size()), Move{},
      [&](int k) {
        obs::CandidateScope oscope(grp, k);
        const std::size_t i = targets[static_cast<std::size_t>(k)];
        const Invocation& inv = bi.invs[i];
        Datapath cand = dp;
        const int new_unit = static_cast<int>(cand.fus.size());
        cand.fus.push_back(cand.fus[static_cast<std::size_t>(inv.unit.idx)]);
        cand.behaviors[0].invs[i].unit.idx = new_unit;
        // Rewired rows: the vacated unit (the new one is appended and
        // implicitly dirty) plus the registers fed by the moved
        // invocation's outputs -- their producing source changed units.
        DirtyRegion dirty;
        dirty.fus.push_back(inv.unit.idx);
        for (const int nid : inv.nodes) {
          const Node& n = bi.dfg->node(nid);
          for (int p = 0; p < n.num_outputs; ++p) {
            const int e = bi.dfg->output_edge(nid, p);
            if (e < 0) continue;
            const int r = bi.edge_reg[static_cast<std::size_t>(e)];
            if (r >= 0) dirty.regs.push_back(r);
          }
        }
        return finish_move(std::move(cand), cx, cost0, "D:split-fu",
                           strf("inv%zu gets its own unit (was fu%d)", i,
                                inv.unit.idx),
                           &dp, &dirty);
      },
      keep_better);
}

Move split_reg(const Datapath& dp, const SynthContext& cx, double cost0) {
  const BehaviorImpl& bi = dp.behaviors[0];
  std::vector<std::size_t> targets;
  for (std::size_t e = 0;
       e < bi.edge_reg.size() &&
       static_cast<int>(targets.size()) < cx.opts.max_candidates;
       ++e) {
    const int r = bi.edge_reg[e];
    if (r < 0 || dp.reg_load(r) < 2) continue;
    targets.push_back(e);
  }
  const std::uint64_t grp = obs::MoveLedger::instance().begin_group();
  return runtime::parallel_best(
      static_cast<int>(targets.size()), Move{},
      [&](int k) {
        obs::CandidateScope oscope(grp, k);
        const std::size_t e = targets[static_cast<std::size_t>(k)];
        Datapath cand = dp;
        const int new_reg = static_cast<int>(cand.regs.size());
        cand.regs.push_back({});
        cand.behaviors[0].edge_reg[e] = new_reg;
        // Rewired rows: the vacated register (the new one is appended
        // and implicitly dirty) plus every unit reading the moved edge
        // -- its input port now selects the new register.
        DirtyRegion dirty;
        dirty.regs.push_back(bi.edge_reg[e]);
        for (const PortRef& d : bi.dfg->edge(static_cast<int>(e)).dsts) {
          if (d.node < 0) continue;  // primary output
          const int iv = bi.inv_of(d.node);
          if (iv < 0) continue;
          const UnitRef u = bi.invs[static_cast<std::size_t>(iv)].unit;
          (u.kind == UnitRef::Kind::Fu ? dirty.fus : dirty.children)
              .push_back(u.idx);
        }
        return finish_move(
            std::move(cand), cx, cost0, "D:split-reg",
            strf("edge%zu gets its own register (was r%d)", e, bi.edge_reg[e]),
            &dp, &dirty);
      },
      keep_better);
}

Move split_child(const Datapath& dp, const SynthContext& cx, double cost0) {
  const BehaviorImpl& bi = dp.behaviors[0];
  std::vector<std::size_t> targets;
  for (std::size_t i = 0;
       i < bi.invs.size() &&
       static_cast<int>(targets.size()) < cx.opts.max_candidates;
       ++i) {
    const Invocation& inv = bi.invs[i];
    if (inv.unit.kind != UnitRef::Kind::Child) continue;
    if (dp.unit_load(inv.unit) < 2) continue;
    targets.push_back(i);
  }
  const std::uint64_t grp = obs::MoveLedger::instance().begin_group();
  return runtime::parallel_best(
      static_cast<int>(targets.size()), Move{},
      [&](int t) {
        obs::CandidateScope oscope(grp, t);
        const std::size_t i = targets[static_cast<std::size_t>(t)];
        const Invocation& inv = bi.invs[i];
        Datapath cand = dp;
        ChildUnit copy = cand.children[static_cast<std::size_t>(inv.unit.idx)];
        copy.name += "_split";
        const int new_child = static_cast<int>(cand.children.size());
        cand.children.push_back(std::move(copy));
        cand.behaviors[0].invs[i].unit.idx = new_child;
        // Drop behaviors neither copy still executes so each copy's
        // controller shrinks (resynthesis can then shrink the datapaths).
        auto served = [&cand](int child_idx) {
          std::set<std::string> s;
          const BehaviorImpl& tb = cand.behaviors[0];
          for (const Invocation& ci : tb.invs) {
            if (ci.unit.kind == UnitRef::Kind::Child &&
                ci.unit.idx == child_idx) {
              s.insert(tb.dfg->node(ci.nodes.front()).behavior);
            }
          }
          return s;
        };
        // The two instances share one subtree until a behavior is dropped.
        for (const int cidx : {inv.unit.idx, new_child}) {
          const std::set<std::string> keep = served(cidx);
          const std::vector<BehaviorImpl>& all =
              cand.children[static_cast<std::size_t>(cidx)].impl->behaviors;
          const auto n_kept = static_cast<std::size_t>(std::count_if(
              all.begin(), all.end(),
              [&](const BehaviorImpl& cb) { return keep.count(cb.behavior); }));
          if (n_kept == 0 || n_kept == all.size()) continue;
          Datapath& impl = cand.mut_child(cidx);
          std::erase_if(impl.behaviors, [&](const BehaviorImpl& cb) {
            return keep.count(cb.behavior) == 0;
          });
          impl.prune_unused();
        }
        return finish_move(std::move(cand), cx, cost0, "D:split-child",
                           strf("inv%zu gets its own module instance (was "
                                "child%d)",
                                i, inv.unit.idx));
      },
      keep_better);
}

Move unfuse_chain(const Datapath& dp, const SynthContext& cx, double cost0) {
  const BehaviorImpl& bi = dp.behaviors[0];
  std::vector<std::size_t> targets;
  for (std::size_t i = 0;
       i < bi.invs.size() &&
       static_cast<int>(targets.size()) < cx.opts.max_candidates;
       ++i) {
    const Invocation& inv = bi.invs[i];
    if (inv.unit.kind != UnitRef::Kind::Fu || inv.nodes.size() < 2) continue;
    targets.push_back(i);
  }
  const std::uint64_t grp = obs::MoveLedger::instance().begin_group();
  return runtime::parallel_best(
      static_cast<int>(targets.size()), Move{},
      [&](int t) {
        obs::CandidateScope oscope(grp, t);
        const std::size_t i = targets[static_cast<std::size_t>(t)];
        const Invocation& inv = bi.invs[i];
        Datapath cand = dp;
        BehaviorImpl& cbi = cand.behaviors[0];
        const std::vector<int> nodes = inv.nodes;
        // Each node becomes its own invocation on a fresh fastest unit;
        // internal edges get registers back.
        for (std::size_t k = 0; k < nodes.size(); ++k) {
          const Op op = cbi.dfg->node(nodes[k]).op;
          const int type = cx.lib->fastest_for(op, cx.pt);
          if (k == 0) {
            cbi.invs[i].nodes = {nodes[0]};
            cbi.invs[i].unit = {UnitRef::Kind::Fu,
                                static_cast<int>(cand.fus.size())};
            cand.fus.push_back({type, ""});
          } else {
            Invocation ni;
            ni.nodes = {nodes[k]};
            ni.unit = {UnitRef::Kind::Fu, static_cast<int>(cand.fus.size())};
            cand.fus.push_back({type, ""});
            cbi.node_inv[static_cast<std::size_t>(nodes[k])] =
                static_cast<int>(cbi.invs.size());
            cbi.invs.push_back(std::move(ni));
          }
          if (k + 1 < nodes.size()) {
            const int e = cbi.dfg->output_edge(nodes[k], 0);
            cbi.edge_reg[static_cast<std::size_t>(e)] =
                static_cast<int>(cand.regs.size());
            cand.regs.push_back({});
          }
        }
        return finish_move(std::move(cand), cx, cost0, "D:chain-unfuse",
                           strf("unfuse chain inv%zu", i));
      },
      keep_better);
}

}  // namespace

Move best_splitting_move(const Datapath& dp, const SynthContext& cx) {
  Move best;
  if (!cx.opts.enable_split) return best;
  const double cost0 = cost_of(dp, cx);
  best = better_move(best, split_fu(dp, cx, cost0));
  best = better_move(best, split_reg(dp, cx, cost0));
  best = better_move(best, split_child(dp, cx, cost0));
  best = better_move(best, unfuse_chain(dp, cx, cost0));
  return best;
}

}  // namespace hsyn
