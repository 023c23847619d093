#include "rtl/cost.h"

#include <algorithm>
#include <cmath>

#include "eval/engine.h"
#include "util/fmt.h"

namespace hsyn {

int Connectivity::mux_inputs() const {
  int total = 0;
  auto count = [&total](const std::vector<std::vector<int>>& ports) {
    for (const auto& srcs : ports) {
      total += std::max(0, static_cast<int>(srcs.size()) - 1);
    }
  };
  for (const auto& ports : fu_port_srcs) count(ports);
  for (const auto& ports : child_port_srcs) count(ports);
  for (const auto& srcs : reg_srcs) {
    total += std::max(0, static_cast<int>(srcs.size()) - 1);
  }
  return total;
}

int Connectivity::net_sinks() const {
  int total = 0;
  for (const auto& ports : fu_port_srcs) {
    for (const auto& srcs : ports) total += static_cast<int>(srcs.size());
  }
  for (const auto& ports : child_port_srcs) {
    for (const auto& srcs : ports) total += static_cast<int>(srcs.size());
  }
  for (const auto& srcs : reg_srcs) total += static_cast<int>(srcs.size());
  return total;
}

int Connectivity::control_signals() const {
  int total = 0;
  auto muxed = [&total](const std::vector<std::vector<int>>& ports) {
    for (const auto& srcs : ports) {
      if (srcs.size() > 1) ++total;  // one select bundle per muxed port
    }
  };
  for (const auto& ports : fu_port_srcs) muxed(ports);
  for (const auto& ports : child_port_srcs) muxed(ports);
  for (const auto& srcs : reg_srcs) {
    if (srcs.size() > 1) ++total;
  }
  total += static_cast<int>(reg_srcs.size());  // one enable per register
  return total;
}

namespace {

SourceKey edge_source(const BehaviorImpl& bi, int eid) {
  const Edge& e = bi.dfg->edge(eid);
  if (e.src.node == kPrimaryIn) return {3, e.src.port, 0};
  const int i = bi.inv_of(e.src.node);
  const Invocation& inv = bi.invs[static_cast<std::size_t>(i)];
  if (inv.unit.kind == UnitRef::Kind::Fu) return {1, inv.unit.idx, 0};
  return {2, inv.unit.idx, e.src.port};
}

/// Insert `x` into the sorted, duplicate-free `row`.
template <typename T>
void insert_sorted(std::vector<T>& row, const T& x) {
  const auto it = std::lower_bound(row.begin(), row.end(), x);
  if (it == row.end() || *it != x) row.insert(it, x);
}

/// Add the sources of `dp`'s rows selected by the masks (nullptr: every
/// row) to `c`, whose selected rows start empty and are sized to `dp`.
void add_sources(const Datapath& dp, Connectivity& c, const char* fu_rows,
                 const char* child_rows, const char* reg_rows) {
  std::vector<int> ins;
  for (std::size_t b = 0; b < dp.behaviors.size(); ++b) {
    const BehaviorImpl& bi = dp.behaviors[b];
    for (std::size_t i = 0; i < bi.invs.size(); ++i) {
      const Invocation& inv = bi.invs[i];
      const bool is_fu = inv.unit.kind == UnitRef::Kind::Fu;
      const std::size_t u = static_cast<std::size_t>(inv.unit.idx);
      const char* rows = is_fu ? fu_rows : child_rows;
      if (rows != nullptr && rows[u] == 0) continue;
      ins.clear();
      dp.append_inv_input_edges(static_cast<int>(b), static_cast<int>(i), ins);
      auto& ports = is_fu ? c.fu_port_srcs[u] : c.child_port_srcs[u];
      if (ports.size() < ins.size()) ports.resize(ins.size());
      for (std::size_t p = 0; p < ins.size(); ++p) {
        const int r = bi.edge_reg[static_cast<std::size_t>(ins[p])];
        // Chain-internal edges never appear here (excluded by
        // inv_input_edges); unregistered external edges would be a
        // validation error.
        if (r >= 0) insert_sorted(ports[p], r);
      }
    }
    for (const Edge& e : bi.dfg->edges()) {
      const int r = bi.edge_reg[static_cast<std::size_t>(e.id)];
      if (r < 0 || (reg_rows != nullptr && reg_rows[r] == 0)) continue;
      insert_sorted(c.reg_srcs[static_cast<std::size_t>(r)], edge_source(bi, e.id));
    }
  }
}

/// Mark the `n` rows of one kind for rebuilding: those named in `named`
/// and those appended since the base's `base_n`.
void mark_rows(char* rows, std::size_t n, std::size_t base_n,
               const std::vector<int>& named) {
  for (std::size_t i = base_n; i < n; ++i) rows[i] = 1;
  for (const int i : named) {
    if (i >= 0 && static_cast<std::size_t>(i) < n) rows[i] = 1;
  }
}

/// Copy the rows `rows` leaves clean from `base` into `out`.
template <typename Row>
void keep_clean(std::vector<Row>& out, const std::vector<Row>& base,
                const char* rows) {
  for (std::size_t i = 0; i < out.size() && i < base.size(); ++i) {
    if (rows[i] == 0) out[i] = base[i];
  }
}

}  // namespace

Connectivity connectivity_of(const Datapath& dp) {
  Connectivity c;
  c.fu_port_srcs.resize(dp.fus.size());
  c.child_port_srcs.resize(dp.children.size());
  c.reg_srcs.resize(dp.regs.size());
  add_sources(dp, c, nullptr, nullptr, nullptr);
  return c;
}

Connectivity refresh_connectivity(const Datapath& dp, const Connectivity& base,
                                  const DirtyRegion& dirty) {
  // One mask byte per fu, child and register row; 1 = rebuild.
  std::vector<char> rows(dp.fus.size() + dp.children.size() + dp.regs.size(), 0);
  char* const fu_rows = rows.data();
  char* const child_rows = fu_rows + dp.fus.size();
  char* const reg_rows = child_rows + dp.children.size();
  mark_rows(fu_rows, dp.fus.size(), base.fu_port_srcs.size(), dirty.fus);
  mark_rows(child_rows, dp.children.size(), base.child_port_srcs.size(),
            dirty.children);
  mark_rows(reg_rows, dp.regs.size(), base.reg_srcs.size(), dirty.regs);

  Connectivity c;
  c.fu_port_srcs.resize(dp.fus.size());
  c.child_port_srcs.resize(dp.children.size());
  c.reg_srcs.resize(dp.regs.size());
  keep_clean(c.fu_port_srcs, base.fu_port_srcs, fu_rows);
  keep_clean(c.child_port_srcs, base.child_port_srcs, child_rows);
  keep_clean(c.reg_srcs, base.reg_srcs, reg_rows);
  add_sources(dp, c, fu_rows, child_rows, reg_rows);
  return c;
}

int controller_states(const Datapath& dp) {
  int states = 0;
  for (const BehaviorImpl& bi : dp.behaviors) {
    check(bi.scheduled, "controller_states: behavior not scheduled");
    states += bi.makespan + 1;
  }
  return states;
}

AreaBreakdown area_of_level(const Datapath& dp, const Library& lib,
                            bool top_level, const Connectivity& conn) {
  const StructureCosts& sc = lib.costs();
  AreaBreakdown a;
  for (const FuUnit& fu : dp.fus) {
    a.fu += lib.fu(fu.type).area;
  }
  a.reg = static_cast<double>(dp.regs.size()) * lib.reg().area;
  a.mux = sc.mux_area_per_input * conn.mux_inputs();
  a.wire = (top_level ? sc.wire_area_global : sc.wire_area_local) * conn.net_sinks();
  a.ctrl = sc.ctrl_area_per_state * controller_states(dp) +
           sc.ctrl_area_per_signal * conn.control_signals();
  return a;
}

AreaBreakdown area_of(const Datapath& dp, const Library& lib, bool top_level) {
  return eval::EvalEngine::instance().area(dp, lib, top_level);
}

double wire_scale_of(const Datapath& dp, const Library& lib, bool top_level) {
  const double layout = area_of(dp, lib, top_level).total();
  return std::clamp(std::sqrt(layout / 1500.0), 0.7, 2.5);
}

}  // namespace hsyn
