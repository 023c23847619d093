#include "synth/initial.h"

#include <algorithm>
#include <limits>
#include <map>

#include "obs/trace.h"
#include "rtl/cost.h"
#include "sched/scheduler.h"
#include "util/fmt.h"

namespace hsyn {

Datapath initial_solution(const Dfg& dfg, const std::string& behavior_name,
                          const SynthContext& cx) {
  obs::Span span("initial-solution");
  const Library& lib = *cx.lib;
  Datapath dp(behavior_name + "_dp");
  BehaviorImpl bi;
  bi.behavior = behavior_name;
  bi.dfg = &dfg;
  bi.node_inv.assign(dfg.nodes().size(), -1);
  bi.edge_reg.assign(dfg.edges().size(), -1);
  bi.input_arrival.assign(static_cast<std::size_t>(dfg.num_inputs()), 0);

  for (const Node& n : dfg.nodes()) {
    Invocation inv;
    inv.nodes = {n.id};
    if (n.is_hier()) {
      check(cx.design != nullptr,
            "hierarchical node in flattened synthesis context");
      // Fastest implementation: best template vs fresh parallel module.
      // Template instances come scheduled from the cache and are shared,
      // not copied; an unscheduled one failed to schedule at cx.pt.
      std::shared_ptr<const Datapath> best;
      int best_makespan = std::numeric_limits<int>::max();
      double best_area = std::numeric_limits<double>::max();
      auto consider = [&](std::shared_ptr<const Datapath> cand, int makespan) {
        const double area = area_of(*cand, lib, /*top_level=*/false).total();
        if (makespan < best_makespan ||
            (makespan == best_makespan && area < best_area)) {
          best_makespan = makespan;
          best_area = area;
          best = std::move(cand);
        }
      };
      if (cx.clib != nullptr) {
        for (const ComplexLibrary::Template* t :
             cx.clib->for_behavior(*cx.design, n.behavior)) {
          std::shared_ptr<const Datapath> inst =
              instantiate_scheduled(*t, n.behavior, cx);
          if (inst->behaviors[0].scheduled) {
            consider(inst, inst->behaviors[0].makespan);
          }
        }
      }
      Datapath fresh =
          initial_solution(cx.design->behavior(n.behavior), n.behavior, cx);
      const SchedResult sr = schedule_datapath(fresh, lib, cx.pt, kNoDeadline);
      if (sr.ok) {
        consider(std::make_shared<const Datapath>(std::move(fresh)),
                 sr.makespan);
      }
      check(best != nullptr, "no feasible implementation for " + n.behavior);

      ChildUnit cu;
      cu.impl = std::move(best);
      cu.name = n.label.empty() ? n.behavior : n.label;
      inv.unit = {UnitRef::Kind::Child, static_cast<int>(dp.children.size())};
      dp.children.push_back(std::move(cu));
    } else {
      const int type = lib.fastest_for(n.op, cx.pt);
      check(type >= 0, strf("no library unit executes %s", op_name(n.op)));
      inv.unit = {UnitRef::Kind::Fu, static_cast<int>(dp.fus.size())};
      dp.fus.push_back({type, n.label});
    }
    bi.node_inv[static_cast<std::size_t>(n.id)] =
        static_cast<int>(bi.invs.size());
    bi.invs.push_back(std::move(inv));
  }

  for (const Edge& e : dfg.edges()) {
    bi.edge_reg[static_cast<std::size_t>(e.id)] =
        static_cast<int>(dp.regs.size());
    dp.regs.push_back({e.label});
  }

  dp.behaviors.push_back(std::move(bi));
  return dp;
}

int align_child_profiles(Datapath& dp, const Library& lib, const OpPoint& pt,
                         int iterations) {
  // Align grandchildren first so child profiles are as tight as possible
  // before the parent reads them.
  for (std::size_t c = 0; c < dp.children.size(); ++c) {
    align_child_profiles(dp.mut_child(static_cast<int>(c)), lib, pt,
                         iterations);
  }
  SchedResult sr = schedule_datapath(dp, lib, pt, kNoDeadline);
  if (!sr.ok) return -1;

  for (int it = 0; it < iterations; ++it) {
    bool changed = false;
    for (std::size_t b = 0; b < dp.behaviors.size(); ++b) {
      BehaviorImpl& bi = dp.behaviors[b];
      // Desired arrival pattern per (child, behavior name): elementwise
      // minimum of the observed relative arrivals over all invocations
      // (the minimum is conservative -- smaller offsets only delay the
      // module start, never starve a read).
      std::map<std::pair<int, std::string>, std::vector<int>> want;
      for (std::size_t i = 0; i < bi.invs.size(); ++i) {
        const Invocation& inv = bi.invs[i];
        if (inv.unit.kind != UnitRef::Kind::Child) continue;
        const Node& n = bi.dfg->node(inv.nodes.front());
        std::vector<int> rel(static_cast<std::size_t>(n.num_inputs), 0);
        int earliest = 1 << 29;
        for (int p = 0; p < n.num_inputs; ++p) {
          const int e = bi.dfg->input_edge(inv.nodes.front(), p);
          rel[static_cast<std::size_t>(p)] =
              dp.edge_ready_time(static_cast<int>(b), e, lib, pt);
          earliest = std::min(earliest, rel[static_cast<std::size_t>(p)]);
        }
        for (int& v : rel) v -= earliest;
        auto [itw, inserted] = want.emplace(
            std::make_pair(inv.unit.idx, n.behavior), rel);
        if (!inserted) {
          for (std::size_t k = 0; k < rel.size(); ++k) {
            itw->second[k] = std::min(itw->second[k], rel[k]);
          }
        }
      }
      for (const auto& [key, pattern] : want) {
        const Datapath& child =
            *dp.children[static_cast<std::size_t>(key.first)].impl;
        const int cb = child.find_behavior(key.second);
        if (cb < 0) continue;
        if (child.behaviors[static_cast<std::size_t>(cb)].input_arrival ==
            pattern) {
          continue;
        }
        BehaviorImpl& cbi = dp.mut_child(key.first)
                                .behaviors[static_cast<std::size_t>(cb)];
        cbi.input_arrival = pattern;
        cbi.scheduled = false;
        changed = true;
      }
    }
    if (!changed) break;
    sr = schedule_datapath(dp, lib, pt, kNoDeadline);
    if (!sr.ok) return -1;
  }
  return sr.makespan;
}

}  // namespace hsyn
