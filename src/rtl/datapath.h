// RTL datapath intermediate representation -- the "solution" the
// iterative-improvement engine manipulates.
//
// A Datapath is a set of physical components (simple functional units,
// registers, and nested child datapaths = complex RTL module instances)
// together with one or more *behavior implementations* bound onto those
// components. A single-behavior Datapath is an ordinary synthesized
// circuit; a multi-behavior Datapath is exactly the paper's merged RTL
// module produced by RTL embedding (Example 3): several DFGs time-share
// one component set, each keeping its own schedule and binding.
//
// The same recursive type therefore represents:
//   * the top-level solution under synthesis,
//   * complex library module templates (paper Fig. 2, C1..C5),
//   * customized modules produced by move B (resynthesis), and
//   * merged modules produced by move C (RTL embedding).
//
// DFG pointers are non-owning; the Design (and any flattened DFG held by
// the synthesizer) must outlive every Datapath referencing them.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "dfg/dfg.h"
#include "library/library.h"
#include "library/profile.h"

namespace hsyn {

/// Reference to a component able to execute invocations.
struct UnitRef {
  enum class Kind { Fu, Child };
  Kind kind = Kind::Fu;
  int idx = -1;

  friend bool operator==(const UnitRef&, const UnitRef&) = default;
};

/// One invocation: the atomic unit of scheduling. A simple-operation
/// invocation carries one node; a *chained* invocation carries a chain of
/// dependent same-op nodes executed combinationally in one pass through a
/// chained unit (paper: "chains of functional units", module C5); a
/// hierarchical invocation carries one hier node executed on a child.
struct Invocation {
  UnitRef unit;
  std::vector<int> nodes;  ///< DFG node ids; >1 only for chained groups
};

/// Binding + schedule of one behavior onto the component set.
struct BehaviorImpl {
  std::string behavior;      ///< interface behavior name (hier nodes bind by this)
  const Dfg* dfg = nullptr;  ///< DFG variant actually implemented
  std::vector<Invocation> invs;
  std::vector<int> node_inv;        ///< node id -> invocation index
  std::vector<int> edge_reg;        ///< edge id -> register unit (-1: chain-internal)
  std::vector<int> input_arrival;   ///< assumed primary-input arrival cycles
  // Filled in by the scheduler:
  std::vector<int> inv_start;       ///< invocation start cycles
  int makespan = 0;                 ///< completion cycle of all primary outputs
  bool scheduled = false;

  /// Invocation index executing `node` (checked).
  [[nodiscard]] int inv_of(int node) const;
};

/// A simple functional-unit instance.
struct FuUnit {
  int type = -1;  ///< index into Library::fus()
  std::string name;
};

/// A register instance.
struct RegUnit {
  std::string name;
};

class Datapath;

/// Flat behavior-name -> DFG table over every descendant module of a
/// datapath: the sorted-vector backing of resolver_of (power/estimator.h).
/// Built once per structural fingerprint and cached inside the Datapath,
/// so the table (and the Dfg pointers it holds) can never outlive the
/// datapath tree that owns them -- unlike a process-wide cache keyed by
/// fingerprint, which a structurally identical datapath built after the
/// original's destruction would alias.
struct BehaviorTable {
  std::uint64_t fp = 0;  ///< fingerprint the table was built against
  /// Sorted by name; duplicates resolved first-seen-wins in pre-order
  /// (matching the std::map::emplace semantics of the old per-call
  /// collector).
  std::vector<std::pair<std::string, const Dfg*>> entries;

  /// nullptr when `name` is implemented by no descendant.
  [[nodiscard]] const Dfg* find(const std::string& name) const;
};

/// A complex RTL module instance: a shared, immutable nested datapath.
/// Copying a ChildUnit (and so a Datapath) shares the subtree instead of
/// copying it; the only way to change a child in place is
/// Datapath::mut_child, which first gives the parent a private copy.
struct ChildUnit {
  std::shared_ptr<const Datapath> impl;
  std::string name;
  bool sealed = false;  ///< internal description may not be altered (no move B)
};

class Datapath {
 public:
  std::string name;
  std::vector<FuUnit> fus;
  std::vector<RegUnit> regs;
  std::vector<ChildUnit> children;
  std::vector<BehaviorImpl> behaviors;

  Datapath() = default;
  explicit Datapath(std::string n) : name(std::move(n)) {}
  // The fingerprint cache is an atomic (shared candidate bases and child
  // subtrees are read concurrently by runtime workers), so copies are
  // spelled out; a copy is content-equal, shares every child subtree and
  // keeps the cached fingerprint. Copying costs this level only.
  Datapath(const Datapath& other);
  Datapath& operator=(const Datapath& other);
  Datapath(Datapath&& other) noexcept;
  Datapath& operator=(Datapath&& other) noexcept;

  /// Child `i`'s subtree, writable: replaces the shared child with a
  /// private copy (its own children stay shared), drops that copy's
  /// cached fingerprint and behavior table, and invalidates this level's
  /// fingerprint. Every in-place write into a child goes through here.
  Datapath& mut_child(int i);

  // ---- Behavior queries -------------------------------------------------

  /// Index of the implementation of `behavior`; -1 when absent.
  [[nodiscard]] int find_behavior(const std::string& behavior) const;

  /// Profile of this module for behavior index `b` (requires scheduled).
  /// in[i] = assumed arrival of primary input i; out[j] = production cycle
  /// of primary output j.
  [[nodiscard]] Profile profile(int b, const Library& lib, const OpPoint& pt) const;

  /// Busy time per invocation of behavior `b` = its scheduled makespan
  /// (the module is non-pipelined across behaviors).
  [[nodiscard]] int busy_cycles(int b) const;

  // ---- Structural queries ------------------------------------------------

  /// Latency in cycles of one invocation on this datapath's unit `u` for
  /// behavior `b`'s invocation `i` (fu cycles or child makespan).
  [[nodiscard]] int inv_latency(int b, int i, const Library& lib,
                                const OpPoint& pt) const;

  /// Number of invocations bound to a unit across all behaviors.
  [[nodiscard]] int unit_load(const UnitRef& u) const;

  /// Number of variables bound to register `r` across all behaviors.
  [[nodiscard]] int reg_load(int r) const;

  /// External input edges of invocation `i` of behavior `b`, in physical
  /// port order (chain-internal edges excluded). Each entry is an edge id
  /// of the behavior's DFG.
  [[nodiscard]] std::vector<int> inv_input_edges(int b, int i) const;

  /// Output edges of invocation `i` of behavior `b`, in port order.
  /// For chains, the final node's output; for hier nodes, all outputs.
  [[nodiscard]] std::vector<int> inv_output_edges(int b, int i) const;

  /// Production cycle of edge `e` in behavior `b` (arrival time for
  /// primary-input edges; requires scheduled).
  [[nodiscard]] int edge_ready_time(int b, int e, const Library& lib,
                                    const OpPoint& pt) const;

  /// Drop invocations/registers with no bound work and compact indices.
  /// Returns true when anything changed (units/regs removed, indices
  /// compacted) -- callers use this to decide whether incremental cost
  /// hints computed against pre-prune indices are still valid.
  bool prune_unused();

  /// Structural invariants: every node covered by exactly one invocation,
  /// unit kinds compatible with bound ops, chain groups contiguous
  /// dependence chains, every edge that crosses invocations registered.
  /// Throws std::logic_error on violation.
  void validate(const Library& lib) const;

  /// Total number of component instances (recursively).
  [[nodiscard]] int total_components() const;

  // ---- Structural fingerprint (defined in rtl/fingerprint.cpp) ----------

  /// Cached structural fingerprint of this subtree: component set, bindings,
  /// register assignment, schedules, and each behavior DFG's content hash.
  /// Maintained incrementally -- mutation sites call invalidate_fingerprint()
  /// (mut_child does it for the parent and the copied child) and shared,
  /// untouched children keep their cached values, so steady-state cost
  /// queries are O(changed region), not O(design).
  [[nodiscard]] std::uint64_t fingerprint() const;

  /// Cache-free recompute of the whole subtree (verification/debugging).
  [[nodiscard]] std::uint64_t fingerprint_scratch() const;

  /// Drop the cached fingerprint of *this level* (children keep theirs).
  /// Must be called after any structural/schedule mutation of this level
  /// that does not go through prune_unused(), mut_child() or the
  /// scheduler.
  void invalidate_fingerprint() {
    fp_cache_.store(0, std::memory_order_relaxed);
  }

  /// The flat descendant-behavior table, built at most once per
  /// structural fingerprint (stale tables are detected by their stored
  /// fingerprint and rebuilt). Shared so resolvers stay valid while a
  /// caller holds them even if the datapath mutates meanwhile.
  [[nodiscard]] std::shared_ptr<const BehaviorTable> behavior_table() const;

 private:
  // 0 = not cached. Computed fingerprints are remapped away from 0. Benign
  // racing recomputes store the same value, so relaxed ordering suffices.
  mutable std::atomic<std::uint64_t> fp_cache_{0};
  // Cached behavior table; like fp_cache_, benign races rebuild equal
  // tables. Not copied (a copy re-derives its own on first use).
  mutable std::atomic<std::shared_ptr<const BehaviorTable>> beh_table_{};
};

}  // namespace hsyn
