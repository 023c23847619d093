// Area model and structural connectivity analysis of datapaths.
//
// Substitution for the paper's MSU-standard-cell + OCTTOOLS layout flow
// (see DESIGN.md): area is estimated at the RTL level as the sum of
// component areas, derived multiplexers (one (k-1)-slice cost per k-input
// port), interconnect (per net sink; *global* at the top level, *local*
// inside complex modules -- the locality advantage hierarchy buys), and
// FSM controller area proportional to states and control signals.
#pragma once

#include <vector>

#include "rtl/datapath.h"

namespace hsyn {

/// A data source feeding a port: a register, another unit's output, or a
/// primary input. Ordered, so rows of sources can be kept sorted.
struct SourceKey {
  int kind = 0;  ///< 0 = reg, 1 = fu out, 2 = child out, 3 = primary input
  int idx = 0;
  int port = 0;

  friend auto operator<=>(const SourceKey&, const SourceKey&) = default;
};

/// Structural connectivity of one datapath level (children summarized,
/// not expanded): which sources feed every unit input port and register.
/// Every row is a sorted, duplicate-free vector (a flat set: rows hold a
/// handful of sources, and candidate connectivities are built per move).
struct Connectivity {
  /// [fu][port] -> distinct register sources, ascending.
  std::vector<std::vector<std::vector<int>>> fu_port_srcs;
  /// [child][port] -> distinct register sources, ascending.
  std::vector<std::vector<std::vector<int>>> child_port_srcs;
  /// [reg] -> distinct producing sources, ascending.
  std::vector<std::vector<SourceKey>> reg_srcs;

  /// Total mux data inputs: sum over ports of max(0, |sources| - 1).
  [[nodiscard]] int mux_inputs() const;

  /// Total point-to-point connections (net sinks).
  [[nodiscard]] int net_sinks() const;

  /// Number of mux select / register enable control signals.
  [[nodiscard]] int control_signals() const;

  friend bool operator==(const Connectivity&, const Connectivity&) = default;
};

/// Compute connectivity across all behaviors of `dp` (this level only).
Connectivity connectivity_of(const Datapath& dp);

/// The part of a datapath level a move touched, as reported by the move
/// generator. Indices refer to the *mutated* datapath; a hint is only
/// valid while those indices match the datapath it was derived for (in
/// particular, not across prune_unused() compaction). Listing a row that
/// did not actually change is harmless -- it is rebuilt to the same
/// content; omitting a changed row is not.
struct DirtyRegion {
  std::vector<int> fus;       ///< fu indices whose input wiring may differ
  std::vector<int> children;  ///< child indices whose input wiring may differ
  std::vector<int> regs;      ///< registers whose producing sources may differ
  /// false: the move provably did not change any binding (e.g. a pure
  /// library-type swap), so the base connectivity is reusable verbatim.
  bool binding_changed = true;
};

/// Incrementally derive `dp`'s connectivity from `base` (the pre-move
/// level's connectivity) by rebuilding only the rows named in `dirty`
/// plus any rows appended since `base`. With a complete hint this equals
/// connectivity_of(dp) exactly; callers unsure of completeness fall back
/// to the full recompute.
Connectivity refresh_connectivity(const Datapath& dp, const Connectivity& base,
                                  const DirtyRegion& dirty);

struct AreaBreakdown {
  double fu = 0;
  double reg = 0;
  double mux = 0;
  double wire = 0;
  double ctrl = 0;
  double children = 0;

  [[nodiscard]] double total() const { return fu + reg + mux + wire + ctrl + children; }
};

/// Recursive area of a datapath. `top_level` selects global wire pricing
/// at this level; nested levels always price wires locally. Memoized on
/// the datapath's structural fingerprint (eval::EvalEngine).
AreaBreakdown area_of(const Datapath& dp, const Library& lib, bool top_level = true);

/// Area of this level only (children excluded, `children` field left 0),
/// against a precomputed connectivity. area_of() == area_of_level of
/// every level plus the recursive child totals, summed in child order.
AreaBreakdown area_of_level(const Datapath& dp, const Library& lib,
                            bool top_level, const Connectivity& conn);

/// Wire-length scale factor of the placed layout: average wire length --
/// and hence wire/mux capacitance -- grows with the layout's linear
/// dimension (~sqrt(area), clamped to [0.7, 2.5] around a 1500-unit
/// reference block). Backed by the eval engine's area cache, so the
/// power estimator and the RTL simulator never recompute layout per
/// simulation. This couples power to area the way placed-and-routed
/// designs experience it, and is what stops the power objective from
/// inflating the datapath without bound.
double wire_scale_of(const Datapath& dp, const Library& lib, bool top_level);

/// Number of controller states at this level: behaviors time-share one
/// FSM, so states add up across behaviors.
int controller_states(const Datapath& dp);

}  // namespace hsyn
