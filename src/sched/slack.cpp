#include "sched/slack.h"

#include <algorithm>
#include <limits>

#include "util/fmt.h"

namespace hsyn {
namespace {

/// Latest time the value on edge `e` may be produced: min over consumer
/// invocations of (their ALAP start + the offset at which they read `e`),
/// and `deadline` for primary-output consumers.
int edge_deadline(const Datapath& dp, int b, int e, const std::vector<int>& alap,
                  const Library& lib, const OpPoint& pt, int deadline) {
  const BehaviorImpl& bi = dp.behaviors[static_cast<std::size_t>(b)];
  const Edge& edge = bi.dfg->edge(e);
  int dl = std::numeric_limits<int>::max();
  for (const PortRef& d : edge.dsts) {
    if (d.node == kPrimaryOut) {
      dl = std::min(dl, deadline);
      continue;
    }
    const int c = bi.inv_of(d.node);
    const Invocation& cinv = bi.invs[static_cast<std::size_t>(c)];
    int read_off = 0;
    if (cinv.unit.kind == UnitRef::Kind::Child) {
      const Datapath& child =
          *dp.children[static_cast<std::size_t>(cinv.unit.idx)].impl;
      const Node& n = bi.dfg->node(cinv.nodes.front());
      const Profile p = child.profile(child.find_behavior(n.behavior), lib, pt);
      // The edge may feed several ports; it must be there for the earliest.
      int off = std::numeric_limits<int>::max();
      for (int port = 0; port < n.num_inputs; ++port) {
        if (bi.dfg->input_edge(cinv.nodes.front(), port) == e) {
          off = std::min(off, p.in[static_cast<std::size_t>(port)]);
        }
      }
      read_off = off == std::numeric_limits<int>::max() ? 0 : off;
    }
    dl = std::min(dl, alap[static_cast<std::size_t>(c)] + read_off);
  }
  if (dl == std::numeric_limits<int>::max()) dl = deadline;
  return dl;
}

}  // namespace

std::optional<ModuleConstraint> derive_child_constraint(
    const Datapath& dp, int b, int child_idx, const std::vector<int>& alap,
    const Library& lib, const OpPoint& pt, int deadline) {
  const BehaviorImpl& bi = dp.behaviors[static_cast<std::size_t>(b)];
  check(bi.scheduled, "derive_child_constraint: behavior not scheduled");
  if (alap.empty()) return std::nullopt;
  check(alap.size() == bi.invs.size(),
        "derive_child_constraint: ALAP size mismatch");

  std::optional<ModuleConstraint> result;
  for (std::size_t i = 0; i < bi.invs.size(); ++i) {
    const Invocation& inv = bi.invs[i];
    if (inv.unit.kind != UnitRef::Kind::Child || inv.unit.idx != child_idx) continue;
    const Node& n = bi.dfg->node(inv.nodes.front());
    const int start = bi.inv_start[i];

    ModuleConstraint mc;
    mc.in_arrival.resize(static_cast<std::size_t>(n.num_inputs));
    for (int port = 0; port < n.num_inputs; ++port) {
      const int e = bi.dfg->input_edge(inv.nodes.front(), port);
      // Local frame: when is this operand available relative to the
      // invocation's (kept) start time? Never negative.
      mc.in_arrival[static_cast<std::size_t>(port)] =
          std::max(0, dp.edge_ready_time(b, e, lib, pt) - start);
    }
    mc.out_deadline.resize(static_cast<std::size_t>(n.num_outputs));
    for (int port = 0; port < n.num_outputs; ++port) {
      const int e = bi.dfg->output_edge(inv.nodes.front(), port);
      const int dl = e >= 0 ? edge_deadline(dp, b, e, alap, lib, pt, deadline)
                            : deadline;
      mc.out_deadline[static_cast<std::size_t>(port)] = dl - start;
    }
    // Busy budget: the next invocation on the same unit (by current
    // schedule order) may start as late as its ALAP.
    int busy = deadline - start;
    for (std::size_t j = 0; j < bi.invs.size(); ++j) {
      if (j == i || !(bi.invs[j].unit == inv.unit)) continue;
      if (bi.inv_start[j] >= start) {
        // A later invocation on this unit (or a tie: conservative).
        if (bi.inv_start[j] > start ||
            (bi.inv_start[j] == start && j > i)) {
          busy = std::min(busy, alap[j] - start);
        }
      }
    }
    mc.max_busy = busy;

    if (!result) {
      result = std::move(mc);
    } else {
      // Intersect across invocations: latest arrivals, earliest deadlines.
      for (std::size_t k = 0; k < result->in_arrival.size(); ++k) {
        result->in_arrival[k] = std::min(result->in_arrival[k], mc.in_arrival[k]);
      }
      for (std::size_t k = 0; k < result->out_deadline.size(); ++k) {
        result->out_deadline[k] =
            std::min(result->out_deadline[k], mc.out_deadline[k]);
      }
      result->max_busy = std::min(result->max_busy, mc.max_busy);
    }
  }
  return result;
}

std::optional<int> derive_fu_latency_budget(const Datapath& dp, int b, int inv,
                                            const std::vector<int>& alap,
                                            const Library& lib, const OpPoint& pt,
                                            int deadline) {
  const BehaviorImpl& bi = dp.behaviors[static_cast<std::size_t>(b)];
  check(bi.scheduled, "derive_fu_latency_budget: behavior not scheduled");
  if (alap.empty()) return std::nullopt;
  check(alap.size() == bi.invs.size(),
        "derive_fu_latency_budget: ALAP size mismatch");

  const int start = bi.inv_start[static_cast<std::size_t>(inv)];
  int budget = deadline - start;
  for (const int e : dp.inv_output_edges(b, inv)) {
    budget = std::min(budget,
                      edge_deadline(dp, b, e, alap, lib, pt, deadline) - start);
  }
  const UnitRef unit = bi.invs[static_cast<std::size_t>(inv)].unit;
  for (std::size_t j = 0; j < bi.invs.size(); ++j) {
    if (static_cast<int>(j) == inv || !(bi.invs[j].unit == unit)) continue;
    if (bi.inv_start[j] > start ||
        (bi.inv_start[j] == start && static_cast<int>(j) > inv)) {
      budget = std::min(budget, alap[j] - start);
    }
  }
  return budget;
}

}  // namespace hsyn
