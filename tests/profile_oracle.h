// Reference profile queries: the differential oracle for the profile the
// scheduler stores in BehaviorImpl.
//
// These are Datapath::profile and Datapath::edge_ready_time as they were
// before the profile became a schedule-time value: every query recomputes
// the module's output ready cycles from the start cycles, recursing into
// child modules for their profiles at the queried operating point. They
// only need `scheduled` flags and start cycles, so they also serve
// oracle schedulers that never fill in the stored profile.
#pragma once

#include <vector>

#include "library/profile.h"
#include "rtl/datapath.h"
#include "util/fmt.h"

namespace hsyn::testing_support {

inline Profile oracle_profile(const Datapath& dp, int b, const Library& lib,
                              const OpPoint& pt);

/// Production cycle of edge `e` in behavior `b` of `dp`.
inline int oracle_edge_ready_time(const Datapath& dp, int b, int e,
                                  const Library& lib, const OpPoint& pt) {
  const BehaviorImpl& bi = dp.behaviors.at(static_cast<std::size_t>(b));
  check(bi.scheduled, "oracle_edge_ready_time: behavior not scheduled");
  const Edge& edge = bi.dfg->edge(e);
  if (edge.src.node == kPrimaryIn) {
    return bi.input_arrival.at(static_cast<std::size_t>(edge.src.port));
  }
  check(edge.src.node >= 0, "oracle_edge_ready_time: edge has no producer");
  const int i = bi.inv_of(edge.src.node);
  const Invocation& inv = bi.invs.at(static_cast<std::size_t>(i));
  const int start = bi.inv_start.at(static_cast<std::size_t>(i));
  if (inv.unit.kind == UnitRef::Kind::Child) {
    const Datapath& child =
        *dp.children.at(static_cast<std::size_t>(inv.unit.idx)).impl;
    const Node& n = bi.dfg->node(inv.nodes.front());
    const int cb = child.find_behavior(n.behavior);
    if (cb < 0) check_failed("child lacks behavior " + n.behavior);
    const Profile p = oracle_profile(child, cb, lib, pt);
    return start + p.out.at(static_cast<std::size_t>(edge.src.port));
  }
  // Chain-internal producers complete with the whole chain.
  return start + lib.cycles(
                     dp.fus.at(static_cast<std::size_t>(inv.unit.idx)).type, pt);
}

/// Profile of behavior `b` of `dp`: input arrivals, then the ready cycle
/// of every primary output.
inline Profile oracle_profile(const Datapath& dp, int b, const Library& lib,
                              const OpPoint& pt) {
  const BehaviorImpl& bi = dp.behaviors.at(static_cast<std::size_t>(b));
  check(bi.scheduled, "oracle_profile: behavior not scheduled");
  Profile p;
  p.in = bi.input_arrival;
  p.out.resize(static_cast<std::size_t>(bi.dfg->num_outputs()));
  for (int o = 0; o < bi.dfg->num_outputs(); ++o) {
    p.out[static_cast<std::size_t>(o)] =
        oracle_edge_ready_time(dp, b, bi.dfg->primary_output_edge(o), lib, pt);
  }
  return p;
}

}  // namespace hsyn::testing_support
