// Controller-consistency and operating-point sanity passes.
//
// Codes: CTRL001-CTRL007 (ctrl-consistency), VDD001-VDD005
// (oppoint-sanity). The controller pass re-derives the full expected
// control-assert table for every level of the datapath tree directly
// from the schedule and binding tables, then diffs the actual FSM (the
// injected one from the context for the top level, or the generated one
// otherwise) against it: every control point must be driven, nothing
// spurious may be asserted, no signal may be driven two ways in one
// state, and the state table itself must be dense and duplicate-free.
#include <map>
#include <set>
#include <stdexcept>
#include <vector>

#include "check/check.h"
#include "util/fmt.h"

namespace hsyn::lint {
namespace {

/// (kind, target) -> asserted details, per state. Multisets so duplicate
/// asserts are visible.
using AssertTable =
    std::map<std::pair<int, std::string>, std::multiset<std::string>>;

const char* kind_name(ControlAssert::Kind k) {
  switch (k) {
    case ControlAssert::Kind::MuxSelect: return "mux select";
    case ControlAssert::Kind::RegLoad: return "register load";
    case ControlAssert::Kind::UnitStart: return "unit start";
  }
  return "?";
}

std::string detail_set(const std::multiset<std::string>& s) {
  std::string out;
  for (const std::string& d : s) {
    if (!out.empty()) out += ", ";
    out += d;
  }
  return out.empty() ? "(nothing)" : out;
}

/// Expected controller contents, derived independently of
/// build_controller: states per behavior cycle plus the assert table per
/// state, and the distinct signal count.
struct Expected {
  struct State {
    std::string behavior;
    int cycle = 0;
    AssertTable asserts;
  };
  std::vector<State> states;
  int num_signals = 0;
  bool ok = false;  ///< false: schedule/binding unusable, skip the level
};

bool behavior_usable(const BehaviorImpl& bi) {
  return bi.scheduled && bi.dfg != nullptr && bi.dfg->validated() &&
         bi.node_inv.size() == bi.dfg->nodes().size() &&
         bi.edge_reg.size() == bi.dfg->edges().size() &&
         bi.inv_start.size() == bi.invs.size();
}

Expected derive_expected(const Datapath& dp, const Library& lib,
                         const OpPoint& pt) {
  Expected ex;
  std::set<std::string> signals;
  // The Datapath accessors used below assume in-range unit indices and
  // schedules made at `pt` (ready times read stored child profiles);
  // bail out first when either is broken (rtl-binding and
  // schedule-legality report it).
  for (const BehaviorImpl& bi : dp.behaviors) {
    if (!behavior_usable(bi) || !bi.scheduled_at(lib, pt)) return ex;
    for (const Invocation& inv : bi.invs) {
      const std::size_t limit = inv.unit.kind == UnitRef::Kind::Fu
                                    ? dp.fus.size()
                                    : dp.children.size();
      if (inv.unit.idx < 0 ||
          inv.unit.idx >= static_cast<int>(limit)) {
        return ex;
      }
      if (inv.unit.kind == UnitRef::Kind::Child) {
        const Datapath& child =
            *dp.children[static_cast<std::size_t>(inv.unit.idx)].impl;
        const int cb =
            child.find_behavior(bi.dfg->node(inv.nodes.front()).behavior);
        if (cb < 0 ||
            !child.behaviors[static_cast<std::size_t>(cb)].scheduled_at(lib, pt)) {
          return ex;
        }
      }
    }
  }
  for (std::size_t b = 0; b < dp.behaviors.size(); ++b) {
    const BehaviorImpl& bi = dp.behaviors[b];
    const int base = static_cast<int>(ex.states.size());
    for (int cyc = 0; cyc <= bi.makespan; ++cyc) {
      ex.states.push_back({bi.behavior, cyc, {}});
    }
    for (std::size_t i = 0; i < bi.invs.size(); ++i) {
      const Invocation& inv = bi.invs[i];
      const int start = bi.inv_start[i];
      if (start < 0 || start > bi.makespan) return ex;  // SCHED002/006 fire
      const std::string uname =
          inv.unit.kind == UnitRef::Kind::Fu ? strf("fu%d", inv.unit.idx)
                                             : strf("child%d", inv.unit.idx);
      AssertTable& at =
          ex.states[static_cast<std::size_t>(base + start)].asserts;
      at[{static_cast<int>(ControlAssert::Kind::UnitStart), "fu:" + uname}]
          .insert(strf("inv%zu", i));
      signals.insert("start:" + uname);
      const std::vector<int> ins =
          dp.inv_input_edges(static_cast<int>(b), static_cast<int>(i));
      for (std::size_t p = 0; p < ins.size(); ++p) {
        const int r = bi.edge_reg[static_cast<std::size_t>(ins[p])];
        if (r < 0) continue;
        const std::string mux = strf("mux:%s.p%zu", uname.c_str(), p);
        at[{static_cast<int>(ControlAssert::Kind::MuxSelect), mux}].insert(
            strf("r%d", r));
        signals.insert(mux);
      }
      for (const int e :
           dp.inv_output_edges(static_cast<int>(b), static_cast<int>(i))) {
        const int r = bi.edge_reg[static_cast<std::size_t>(e)];
        if (r < 0) continue;
        const int ready = dp.edge_ready_time(static_cast<int>(b), e, lib, pt);
        if (ready >= 0 && ready <= bi.makespan) {
          ex.states[static_cast<std::size_t>(base + ready)]
              .asserts[{static_cast<int>(ControlAssert::Kind::RegLoad),
                        strf("reg:r%d", r)}]
              .insert(strf("edge%d", e));
          signals.insert(strf("load:r%d", r));
        }
      }
    }
  }
  ex.num_signals = static_cast<int>(signals.size());
  ex.ok = true;
  return ex;
}

class CtrlConsistencyPass final : public Pass {
 public:
  const char* name() const override { return "ctrl-consistency"; }
  bool cheap() const override { return false; }
  bool applicable(const CheckContext& cx) const override {
    return cx.dp != nullptr && cx.lib != nullptr;
  }
  void run(const CheckContext& cx, Report& rep) const override {
    check_level(*cx.dp, *cx.lib, cx.pt, cx.fsm, "dp '" + cx.dp->name + "'",
                rep);
    walk_children(*cx.dp, *cx.lib, cx.pt, "dp '" + cx.dp->name + "'", rep);
  }

 private:
  static void walk_children(const Datapath& dp, const Library& lib,
                            const OpPoint& pt, const std::string& path,
                            Report& rep) {
    for (std::size_t c = 0; c < dp.children.size(); ++c) {
      if (!dp.children[c].impl) continue;  // rtl-binding reports this
      const Datapath& child = *dp.children[c].impl;
      const std::string cpath =
          path + strf(" / child %zu '%s'", c, dp.children[c].name.c_str());
      check_level(child, lib, pt, nullptr, cpath, rep);
      walk_children(child, lib, pt, cpath, rep);
    }
  }

  static void check_level(const Datapath& dp, const Library& lib,
                          const OpPoint& pt, const Controller* given,
                          const std::string& at, Report& rep) {
    const Expected ex = derive_expected(dp, lib, pt);
    if (!ex.ok) return;  // schedule/binding broken; other passes report
    Controller built;
    const Controller* fsm = given;
    if (fsm == nullptr) {
      try {
        built = build_controller(dp, lib, pt);
      } catch (const std::logic_error& e) {
        rep.add("CTRL001", Severity::Error, at,
                strf("controller generation failed: %s", e.what()));
        return;
      }
      fsm = &built;
    }

    if (fsm->states.size() != ex.states.size()) {
      rep.add("CTRL001", Severity::Error, at,
              strf("controller has %zu states but the schedule requires %zu",
                   fsm->states.size(), ex.states.size()));
    }

    // State-table shape: dense ids, behavior/cycle agreement, no
    // duplicate or dead (cycle out of range) states.
    std::set<std::pair<std::string, int>> seen;
    const std::size_t n = std::min(fsm->states.size(), ex.states.size());
    for (std::size_t s = 0; s < fsm->states.size(); ++s) {
      const FsmState& st = fsm->states[s];
      if (st.id != static_cast<int>(s)) {
        rep.add("CTRL005", Severity::Error, at,
                strf("state at index %zu has id %d (ids must be dense)", s,
                     st.id));
      }
      if (!seen.insert({st.behavior, st.cycle}).second) {
        rep.add("CTRL005", Severity::Error, at,
                strf("duplicate state for behavior '%s' cycle %d",
                     st.behavior.c_str(), st.cycle));
      }
      if (s < n && (st.behavior != ex.states[s].behavior ||
                    st.cycle != ex.states[s].cycle)) {
        rep.add("CTRL005", Severity::Error, at,
                strf("state %zu is (behavior '%s', cycle %d); schedule "
                     "requires (behavior '%s', cycle %d)",
                     s, st.behavior.c_str(), st.cycle,
                     ex.states[s].behavior.c_str(), ex.states[s].cycle));
      }
    }

    // Assert diff per comparable state.
    for (std::size_t s = 0; s < n; ++s) {
      AssertTable actual;
      for (const ControlAssert& a : fsm->states[s].asserts) {
        actual[{static_cast<int>(a.kind), a.target}].insert(a.detail);
      }
      const AssertTable& expect = ex.states[s].asserts;
      for (const auto& [key, details] : actual) {
        std::set<std::string> distinct(details.begin(), details.end());
        if (distinct.size() > 1) {
          rep.add("CTRL004", Severity::Error, at,
                  strf("state %zu: %s '%s' driven %zu different ways (%s)", s,
                       kind_name(static_cast<ControlAssert::Kind>(key.first)),
                       key.second.c_str(), distinct.size(),
                       detail_set(details).c_str()));
        }
      }
      for (const auto& [key, details] : expect) {
        const auto it = actual.find(key);
        if (it == actual.end()) {
          rep.add("CTRL002", Severity::Error, at,
                  strf("state %zu: %s '%s' is not driven (schedule requires "
                       "%s)",
                       s, kind_name(static_cast<ControlAssert::Kind>(key.first)),
                       key.second.c_str(), detail_set(details).c_str()));
        } else if (it->second != details) {
          rep.add("CTRL006", Severity::Error, at,
                  strf("state %zu: %s '%s' asserts %s but the binding "
                       "requires %s",
                       s, kind_name(static_cast<ControlAssert::Kind>(key.first)),
                       key.second.c_str(), detail_set(it->second).c_str(),
                       detail_set(details).c_str()));
        }
      }
      for (const auto& [key, details] : actual) {
        if (expect.find(key) == expect.end()) {
          rep.add("CTRL003", Severity::Error, at,
                  strf("state %zu: spurious %s '%s' (%s) not implied by the "
                       "schedule",
                       s, kind_name(static_cast<ControlAssert::Kind>(key.first)),
                       key.second.c_str(), detail_set(details).c_str()));
        }
      }
    }

    if (fsm->num_signals != ex.num_signals) {
      rep.add("CTRL007", Severity::Error, at,
              strf("controller reports %d control signals; the binding "
                   "drives %d",
                   fsm->num_signals, ex.num_signals));
    }
  }
};

// ---- oppoint-sanity ------------------------------------------------------

class OpPointSanityPass final : public Pass {
 public:
  const char* name() const override { return "oppoint-sanity"; }
  bool applicable(const CheckContext& cx) const override {
    // Only meaningful when an operating point is actually in play.
    return cx.dp != nullptr || cx.deadline > 0 || cx.sample_period_ns > 0;
  }
  void run(const CheckContext& cx, Report& rep) const override {
    const OpPoint& pt = cx.pt;
    const std::string at = strf("oppoint %.2f V / %.2f ns", pt.vdd, pt.clk_ns);
    bool vdd_ok = true;
    bool clk_ok = true;
    if (pt.vdd <= kVt) {
      rep.add("VDD001", Severity::Error, at,
              strf("supply voltage %.2f V is at or below the device "
                   "threshold %.2f V; the delay model is undefined there",
                   pt.vdd, kVt));
      vdd_ok = false;
    } else if (pt.vdd > kVref) {
      rep.add("VDD002", Severity::Warning, at,
              strf("supply voltage %.2f V exceeds the %.2f V reference the "
                   "library is characterized at",
                   pt.vdd, kVref));
    }
    if (pt.clk_ns <= 0) {
      rep.add("VDD003", Severity::Error, at, "clock period must be positive");
      clk_ok = false;
    }
    if (vdd_ok && clk_ok && cx.lib != nullptr) {
      for (int t = 0; t < cx.lib->num_fu_types(); ++t) {
        const int cyc = cx.lib->cycles(t, pt);
        if (cyc > 64) {
          rep.add("VDD004", Severity::Warning, at,
                  strf("unit type %s needs %d cycles at this operating "
                       "point; the clock is likely far too fast",
                       cx.lib->fu(t).name.c_str(), cyc));
        }
      }
    }
    if (clk_ok && cx.sample_period_ns > 0) {
      if (cx.sample_period_ns < pt.clk_ns) {
        rep.add("VDD005", Severity::Error, at,
                strf("sampling period %.2f ns is shorter than one clock "
                     "cycle",
                     cx.sample_period_ns));
      } else if (cx.deadline > 0 &&
                 cx.deadline * pt.clk_ns >
                     cx.sample_period_ns * (1.0 + 1e-9)) {
        rep.add("VDD005", Severity::Error, at,
                strf("deadline of %d cycles runs %.2f ns, past the %.2f ns "
                     "sampling period",
                     cx.deadline, cx.deadline * pt.clk_ns,
                     cx.sample_period_ns));
      }
    }
  }
};

}  // namespace

std::unique_ptr<Pass> make_ctrl_consistency_pass() {
  return std::make_unique<CtrlConsistencyPass>();
}
std::unique_ptr<Pass> make_oppoint_sanity_pass() {
  return std::make_unique<OpPointSanityPass>();
}

}  // namespace hsyn::lint
