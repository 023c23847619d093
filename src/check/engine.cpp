#include "check/check.h"

#include <cstdlib>
#include <stdexcept>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/fmt.h"

namespace hsyn::lint {

CheckEngine::CheckEngine() {
  register_pass(make_dfg_wellformed_pass());
  register_pass(make_dfg_hierarchy_pass());
  register_pass(make_dfg_deadcode_pass());
  register_pass(make_dfg_const_fold_pass());
  register_pass(make_dfg_range_overflow_pass());
  register_pass(make_dfg_width_waste_pass());
  register_pass(make_rtl_binding_pass());
  register_pass(make_sched_legality_pass());
  register_pass(make_ctrl_consistency_pass());
  register_pass(make_oppoint_sanity_pass());
}

void CheckEngine::register_pass(std::unique_ptr<Pass> pass) {
  Entry& e = entries_.emplace_back();
  e.phase = std::string("check:") + pass->name();
  e.pass = std::move(pass);
}

std::vector<const Pass*> CheckEngine::passes() const {
  std::vector<const Pass*> out;
  out.reserve(entries_.size());
  for (const Entry& e : entries_) out.push_back(e.pass.get());
  return out;
}

Report CheckEngine::run(const CheckContext& cx, bool cheap_only) const {
  Report rep;
  for (const Entry& e : entries_) {
    if (cheap_only && !e.pass->cheap()) continue;
    if (!e.pass->applicable(cx)) continue;
    obs::Span phase(e.phase.c_str());
    rep.set_active_pass(e.pass->name());
    e.pass->run(cx, rep);
    e.runs.fetch_add(1, std::memory_order_relaxed);
  }
  rep.set_active_pass({});
  runs_.fetch_add(1, std::memory_order_relaxed);
  diags_.fetch_add(rep.diags().size(), std::memory_order_relaxed);
  errors_.fetch_add(static_cast<std::uint64_t>(rep.errors()),
                    std::memory_order_relaxed);
  return rep;
}

void register_check_counters(CheckEngine& e) {
  obs::Registry::instance().register_source("check-engine", [&e] {
    std::map<std::string, std::uint64_t> m;
    m["runs"] = e.runs_.load(std::memory_order_relaxed);
    m["diagnostics"] = e.diags_.load(std::memory_order_relaxed);
    m["errors"] = e.errors_.load(std::memory_order_relaxed);
    for (const CheckEngine::Entry& en : e.entries_) {
      m[en.pass->name() + std::string(".runs")] =
          en.runs.load(std::memory_order_relaxed);
    }
    return m;
  });
}

CheckEngine& CheckEngine::instance() {
  static CheckEngine* engine = [] {
    auto* e = new CheckEngine();
    register_check_counters(*e);
    return e;
  }();
  return *engine;
}

Report lint_design(const Design& design, const Trace* trace) {
  CheckContext cx;
  cx.design = &design;
  cx.trace = trace;
  return CheckEngine::instance().run(cx);
}

Report lint_datapath(const Datapath& dp, const Library& lib, const OpPoint& pt,
                     int deadline, const Design* design) {
  CheckContext cx;
  cx.design = design;
  cx.dp = &dp;
  cx.lib = &lib;
  cx.pt = pt;
  cx.deadline = deadline;
  return CheckEngine::instance().run(cx);
}

bool env_check_moves() {
  static const bool enabled = [] {
    const char* s = std::getenv("HSYN_CHECK_MOVES");
    return s != nullptr && s[0] == '1' && s[1] == '\0';
  }();
  return enabled;
}

bool env_verify_rewrites() {
  static const bool enabled = [] {
    const char* s = std::getenv("HSYN_VERIFY_REWRITES");
    return s != nullptr && s[0] == '1' && s[1] == '\0';
  }();
  return enabled;
}

void verify_move(const Datapath& dp, const Library& lib, const OpPoint& pt,
                 int deadline, const std::string& what) {
  obs::Span phase("check-moves");
  const Report rep = lint_datapath(dp, lib, pt, deadline);
  if (!rep.ok()) {
    throw std::logic_error(strf(
        "move invariant check failed after %s (%d error(s)):\n%s",
        what.c_str(), rep.errors(), rep.to_text().c_str()));
  }
}

}  // namespace hsyn::lint
