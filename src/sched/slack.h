// Constraint derivation (paper Fig. 5, middle box).
//
// Given a scheduled design and a target module instance, derive the most
// relaxed timing constraint the instance could satisfy while keeping the
// overall implementation schedulable: the earliest its inputs are
// available and the latest its outputs may be produced. These relaxed
// constraints are what resynthesis (moves A and B) optimizes against --
// e.g. Example 2 relaxes RTL2's profile from {0,0,0,0,6,3} to
// {0,0,0,0,9,9}, enabling the mult1 -> mult2 swap inside it.
//
// The derivation is a guide: every move is ultimately validated by
// rescheduling (paper Section 4: "its validity is checked by
// scheduling").
#pragma once

#include <optional>
#include <vector>

#include "rtl/datapath.h"

namespace hsyn {

/// Relaxed local-frame timing constraint for a module instance:
/// inputs arrive at `in_arrival` (cycles, relative to instance start),
/// output j may be produced as late as `out_deadline[j]`, and the
/// instance may stay busy for at most `max_busy` cycles per invocation.
struct ModuleConstraint {
  std::vector<int> in_arrival;
  std::vector<int> out_deadline;
  int max_busy = 0;
};

/// Both derivations read the ALAP starts of behavior `b` against
/// `deadline`, `alap` = alap_starts(dp, b, lib, pt, deadline) (see
/// sched/scheduler.h). A move selection computes it once and passes it to
/// every derivation on the same base; an empty `alap` (ALAP derivation
/// failed) yields nullopt.

/// Constraint for child unit `child_idx` serving behavior `b` of `dp`,
/// intersected over all its invocations. Requires `b` scheduled.
/// nullopt when the instance is unused in `b`, `alap` is empty, or its
/// invocations in `b` execute more than one behavior (a merged child).
std::optional<ModuleConstraint> derive_child_constraint(
    const Datapath& dp, int b, int child_idx, const std::vector<int>& alap,
    const Library& lib, const OpPoint& pt, int deadline);

/// Latency budget in cycles for invocation `inv` of behavior `b` on a
/// simple unit: the largest latency the invocation could take with the
/// rest of the design fixed to its ALAP freedoms. nullopt when `alap` is
/// empty.
std::optional<int> derive_fu_latency_budget(const Datapath& dp, int b, int inv,
                                            const std::vector<int>& alap,
                                            const Library& lib, const OpPoint& pt,
                                            int deadline);

}  // namespace hsyn
