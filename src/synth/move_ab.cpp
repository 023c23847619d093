// Moves A (module reselection) and B (resynthesis by hierarchy descent),
// implemented per paper Fig. 5: module-group formation -> constraint
// derivation -> resynthesis.
#include <algorithm>
#include <limits>
#include <optional>
#include <set>
#include <vector>

#include "obs/ledger.h"
#include "rtl/cost.h"
#include "sched/scheduler.h"
#include "sched/slack.h"
#include "synth/improve.h"
#include "synth/initial.h"
#include "synth/moves.h"
#include "util/fmt.h"

namespace hsyn {
namespace {

struct Target {
  UnitRef unit;
  double contribution = 0;  ///< cost-share proxy used for group formation
};

/// Module-group formation: the highest cost contributors are the most
/// promising resynthesis targets.
std::vector<Target> form_groups(const Datapath& dp, const SynthContext& cx) {
  std::vector<Target> targets;
  for (std::size_t i = 0; i < dp.fus.size(); ++i) {
    const FuType& t = cx.lib->fu(dp.fus[i].type);
    const UnitRef u{UnitRef::Kind::Fu, static_cast<int>(i)};
    const double c = cx.obj == Objective::Area
                         ? t.area
                         : t.cap_sw * dp.unit_load(u);
    targets.push_back({u, c});
  }
  for (std::size_t i = 0; i < dp.children.size(); ++i) {
    const UnitRef u{UnitRef::Kind::Child, static_cast<int>(i)};
    const double area = area_of(*dp.children[i].impl, *cx.lib, false).total();
    const double c = cx.obj == Objective::Area
                         ? area
                         : area * dp.unit_load(u);  // cap scales with area
    targets.push_back({u, c});
  }
  std::sort(targets.begin(), targets.end(), [](const Target& a, const Target& b) {
    return a.contribution > b.contribution;
  });
  if (static_cast<int>(targets.size()) > cx.opts.group_size) {
    targets.resize(static_cast<std::size_t>(cx.opts.group_size));
  }
  return targets;
}

/// Move A on a simple unit: replace its library type by the best
/// alternative that fits the derived latency budget. `alap` is the base's
/// alap_starts against the deadline.
Move replace_fu(const Datapath& dp, int fu_idx, const SynthContext& cx,
                double cost0, const std::vector<int>& alap) {
  Move best;
  const BehaviorImpl& bi = dp.behaviors[0];
  // Usage of the unit: ops and longest chain.
  std::set<Op> ops;
  int max_chain = 1;
  int budget = std::numeric_limits<int>::max();
  for (std::size_t i = 0; i < bi.invs.size(); ++i) {
    const Invocation& inv = bi.invs[i];
    if (!(inv.unit == UnitRef{UnitRef::Kind::Fu, fu_idx})) continue;
    max_chain = std::max(max_chain, static_cast<int>(inv.nodes.size()));
    for (const int nid : inv.nodes) ops.insert(bi.dfg->node(nid).op);
    const auto b = derive_fu_latency_budget(dp, 0, static_cast<int>(i), alap,
                                            *cx.lib, cx.pt, cx.deadline);
    if (b) budget = std::min(budget, *b);
  }
  if (ops.empty()) return best;

  const int cur_type = dp.fus[static_cast<std::size_t>(fu_idx)].type;
  // Enumerate the admissible replacement types (cheap filters, capped),
  // then score them -- the copy + reschedule + cost part -- in order.
  std::vector<int> types;
  for (int t = 0; t < cx.lib->num_fu_types() &&
                  static_cast<int>(types.size()) < cx.opts.max_candidates;
       ++t) {
    if (t == cur_type) continue;
    const FuType& ft = cx.lib->fu(t);
    if (ft.chain_depth < max_chain) continue;
    bool supports_all = true;
    for (const Op op : ops) supports_all = supports_all && ft.supports(op);
    if (!supports_all) continue;
    if (cx.lib->cycles(t, cx.pt) > budget) continue;  // guide; sched verifies
    types.push_back(t);
  }
  const std::uint64_t grp = obs::MoveLedger::instance().begin_group();
  for (std::size_t i = 0; i < types.size(); ++i) {
    obs::CandidateScope oscope(grp, static_cast<std::int32_t>(i));
    const int t = types[i];
    Datapath cand = dp;
    cand.fus[static_cast<std::size_t>(fu_idx)].type = t;
    // A pure type swap rewires nothing: the base connectivity is
    // reusable verbatim.
    DirtyRegion dirty;
    dirty.binding_changed = false;
    keep_better(best,
                finish_move(std::move(cand), cx, cost0, "A:fu-select",
                            strf("fu%d %s -> %s", fu_idx,
                                 cx.lib->fu(cur_type).name.c_str(),
                                 cx.lib->fu(t).name.c_str()),
                            &dp, &dirty));
  }
  return best;
}

/// Behaviors served by a child unit (usually one).
std::vector<std::string> behaviors_served(const Datapath& dp, int child_idx) {
  std::vector<std::string> out;
  const BehaviorImpl& bi = dp.behaviors[0];
  for (const Invocation& inv : bi.invs) {
    if (inv.unit.kind != UnitRef::Kind::Child || inv.unit.idx != child_idx) continue;
    const std::string& b = bi.dfg->node(inv.nodes.front()).behavior;
    if (std::find(out.begin(), out.end(), b) == out.end()) out.push_back(b);
  }
  return out;
}

/// `impl` expecting its inputs at `arrival`: unscheduled when that
/// changes its assumed arrivals, unchanged otherwise.
Datapath with_arrival(Datapath impl, const std::vector<int>& arrival) {
  BehaviorImpl& bi = impl.behaviors[0];
  if (bi.input_arrival != arrival) {
    bi.input_arrival = arrival;
    bi.unschedule();
    impl.invalidate_fingerprint();
  }
  return impl;
}

/// Move A on a complex instance: swap in a library template or a freshly
/// built implementation of an equivalent DFG ("a move of type A tries to
/// select the best DFG which describes a hierarchical node").
Move replace_child(const Datapath& dp, int child_idx, const SynthContext& cx,
                   double cost0, const ModuleConstraint& mc) {
  Move best;
  if (cx.design == nullptr) return best;
  const std::vector<std::string> served = behaviors_served(dp, child_idx);
  if (served.size() != 1) return best;  // merged modules are not reselected
  const std::string& behavior = served[0];

  // Enumerate candidates (template list + uncovered variants, capped),
  // then instantiate, schedule and cost them in order.
  struct Cand {
    const ComplexLibrary::Template* tmpl = nullptr;  ///< null: fresh variant
    std::string variant;
  };
  std::vector<Cand> cands;
  int tried = 0;
  std::set<std::string> templated_variants;
  if (cx.clib != nullptr) {
    for (const ComplexLibrary::Template* t :
         cx.clib->for_behavior(*cx.design, behavior)) {
      if (tried++ >= cx.opts.max_candidates) break;
      templated_variants.insert(t->implements);
      cands.push_back({t, ""});
    }
  }
  // Fresh fully parallel implementations of equivalent DFG variants the
  // library does not already cover.
  for (const std::string& variant : cx.design->equivalents(behavior)) {
    if (templated_variants.count(variant)) continue;
    if (tried++ >= cx.opts.max_candidates) break;
    cands.push_back({nullptr, variant});
  }

  const std::uint64_t grp = obs::MoveLedger::instance().begin_group();
  for (std::size_t i = 0; i < cands.size(); ++i) {
    obs::CandidateScope oscope(grp, static_cast<std::int32_t>(i));
    const Cand& c = cands[i];
    // A cached template instance is installed as is; it is copied only
    // when the derived input arrivals differ from the ones it was
    // scheduled with.
    std::shared_ptr<const Datapath> impl;
    if (c.tmpl != nullptr) {
      impl = instantiate_scheduled(*c.tmpl, behavior, cx);
      if (impl->behaviors[0].input_arrival != mc.in_arrival) {
        impl = std::make_shared<const Datapath>(
            with_arrival(*impl, mc.in_arrival));
      }
    } else {
      impl = std::make_shared<const Datapath>(with_arrival(
          initial_solution(cx.design->behavior(c.variant), behavior, cx),
          mc.in_arrival));
    }
    Datapath cand = dp;
    cand.children[static_cast<std::size_t>(child_idx)].impl = std::move(impl);
    keep_better(
        best,
        finish_move(
            std::move(cand), cx, cost0,
            c.tmpl != nullptr ? "A:module-select" : "A:dfg-swap",
            c.tmpl != nullptr
                ? strf("child%d <- template %s", child_idx,
                       c.tmpl->name.c_str())
                : strf("child%d <- fresh %s", child_idx, c.variant.c_str())));
  }
  return best;
}

/// Move B: descend into the child and re-optimize it against the relaxed
/// constraint derived from its environment.
Move resynth_child(const Datapath& dp, int child_idx, const SynthContext& cx,
                   double cost0, const ModuleConstraint& mc) {
  Move best;
  const ChildUnit& cu = dp.children[static_cast<std::size_t>(child_idx)];
  if (cu.sealed || !cx.opts.enable_resynth) return best;
  if (cu.impl->behaviors.size() != 1) return best;
  if (cx.opts.max_resynth_depth <= 0) return best;
  const std::string& behavior = cu.impl->behaviors[0].behavior;

  int inner_deadline = mc.max_busy;
  for (const int dl : mc.out_deadline) inner_deadline = std::min(inner_deadline, std::max(dl, 0));
  // Relaxation must leave at least the current makespan available to be
  // interesting; if it cannot even fit the current module, skip.
  if (inner_deadline <= 0) return best;

  Datapath child = *cu.impl;
  child.behaviors[0].input_arrival = mc.in_arrival;
  child.invalidate_fingerprint();
  if (!schedule_datapath(child, *cx.lib, cx.pt, inner_deadline).ok) return best;

  SynthContext inner = cx;
  inner.deadline = inner_deadline;
  inner.trace = child_input_trace(dp, 0, child_idx, behavior, cx);
  // Resynthesis is a nested search; keep its budget small so a single
  // move selection stays cheap (the paper's hierarchical speed advantage
  // depends on lower levels being optimized with bounded effort).
  inner.opts.max_passes = cx.opts.resynth_passes;
  inner.opts.max_moves_per_pass = std::min(cx.opts.max_moves_per_pass, 6);
  inner.opts.max_candidates = std::min(cx.opts.max_candidates, 8);
  inner.opts.group_size = std::min(cx.opts.group_size, 2);
  inner.opts.max_resynth_depth = cx.opts.max_resynth_depth - 1;

  Datapath improved = [&] {
    // The nested improvement engine's own moves are ledgered at
    // depth + 1.
    obs::ResynthScope rscope;
    return improve(std::move(child), inner);
  }();
  Datapath cand = dp;
  cand.children[static_cast<std::size_t>(child_idx)].impl =
      std::make_shared<const Datapath>(std::move(improved));
  const std::uint64_t grp = obs::MoveLedger::instance().begin_group();
  obs::CandidateScope oscope(grp, 0);
  best = better_move(best,
                     finish_move(std::move(cand), cx, cost0, "B:resynth",
                                 strf("resynthesized child%d (%s) against "
                                      "relaxed deadline %d",
                                      child_idx, behavior.c_str(),
                                      inner_deadline)));
  return best;
}

}  // namespace

Move best_replace_move(const Datapath& dp, const SynthContext& cx) {
  Move best;
  if (!cx.opts.enable_replace && !cx.opts.enable_resynth) return best;
  const double cost0 = cost_of(dp, cx);
  // Every constraint derivation below reads the same ALAP starts of the
  // base against the deadline: compute them once, on first use.
  std::optional<std::vector<int>> alap;
  const auto base_alap = [&]() -> const std::vector<int>& {
    if (!alap) alap = alap_starts(dp, 0, *cx.lib, cx.pt, cx.deadline);
    return *alap;
  };
  bool resynth_attempted = false;
  for (const Target& tgt : form_groups(dp, cx)) {
    if (tgt.unit.kind == UnitRef::Kind::Fu) {
      if (cx.opts.enable_replace) {
        best = better_move(best,
                           replace_fu(dp, tgt.unit.idx, cx, cost0, base_alap()));
      }
    } else {
      const auto mc = derive_child_constraint(dp, 0, tgt.unit.idx, base_alap(),
                                              *cx.lib, cx.pt, cx.deadline);
      if (!mc) continue;
      if (cx.opts.enable_replace) {
        best = better_move(best, replace_child(dp, tgt.unit.idx, cx, cost0, *mc));
      }
      // Full resynthesis (move B) is a nested search; run it only for the
      // highest-contribution module of the group (Fig. 5's group
      // formation exists precisely to focus this effort).
      if (!resynth_attempted) {
        const Move m = resynth_child(dp, tgt.unit.idx, cx, cost0, *mc);
        resynth_attempted = resynth_attempted || m.valid;
        best = better_move(best, m);
      }
    }
  }
  return best;
}

}  // namespace hsyn
