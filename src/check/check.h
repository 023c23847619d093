// Pass-based static-analysis framework over the H-SYN IRs.
//
// Every deep structural invariant the synthesis engine relies on --
// DFG well-formedness and hierarchy consistency, schedule legality under
// the sampling-period constraint, conflict-free FU/register sharing,
// datapath<->controller consistency, operating-point sanity -- is
// re-verifiable here by an *independent* implementation: the passes
// rebuild every derived fact (port maps, ready times, lifetimes,
// expected control asserts) from the raw IR tables rather than trusting
// the tables the scheduler/binder filled in. A buggy move generator that
// silently produces an illegal circuit is therefore caught at the move
// boundary instead of being cost-optimized.
//
// Three entry points:
//   * `hsyn-lint` (src/tools/hsyn_lint_main.cpp): lints the textio
//     formats standalone, exits non-zero on errors;
//   * verify_move(): the move-engine invariant gate, enabled with
//     --check-moves / HSYN_CHECK_MOVES=1 (synth/improve.cpp) -- re-runs
//     every pass after each accepted move and throws on violation;
//   * debug builds run the cheap passes on every synthesis result
//     (synth/synthesizer.cpp).
//
// Each pass runs under an obs::Span named "check:<pass>" and aggregate
// run/diagnostic counters are exposed as the "check-engine" metrics
// source, mirroring the evaluation caches.
#pragma once

#include <atomic>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "check/diagnostics.h"
#include "dfg/design.h"
#include "library/library.h"
#include "power/trace.h"
#include "rtl/controller.h"
#include "rtl/datapath.h"

namespace hsyn::lint {

/// Everything a pass may look at. Null members simply make the passes
/// that need them inapplicable, so one context type serves design-level
/// linting, post-synthesis verification and the move gate alike.
struct CheckContext {
  const Design* design = nullptr;  ///< hierarchy-level checks
  const Dfg* dfg = nullptr;        ///< single-DFG lint (overrides design scan)
  const Datapath* dp = nullptr;    ///< RTL-level checks
  const Library* lib = nullptr;    ///< required by RTL-level checks
  /// FSM to verify against `dp`'s top level; null = derive it internally.
  const Controller* fsm = nullptr;
  OpPoint pt{};           ///< operating point of `dp`'s schedule
  int deadline = 0;       ///< >0: throughput constraint in cycles at `pt`
  double sample_period_ns = 0;  ///< >0: sampling period for cross-checks
  /// Optional stimulus: the dataflow passes (passes_dataflow.cpp) seed
  /// the design's *top* behavior's input facts from it, which is the
  /// only way value ranges tighten in an IR whose constants arrive as
  /// primary inputs. Null analyzes with unconstrained inputs.
  const Trace* trace = nullptr;
};

/// One analysis pass. Passes are stateless; all inputs come from the
/// context and all outputs go to the report. See DESIGN.md ("Static
/// checking") for the registered passes, their check codes, and how to
/// add one.
class Pass {
 public:
  virtual ~Pass() = default;
  /// Stable pass name ("dfg-wellformed", ...); also the stats phase key.
  virtual const char* name() const = 0;
  /// Cheap passes are the debug-build post-synthesis default set.
  virtual bool cheap() const { return true; }
  /// True when the context carries the IR this pass verifies.
  virtual bool applicable(const CheckContext& cx) const = 0;
  virtual void run(const CheckContext& cx, Report& rep) const = 0;
};

/// The pass registry + runner. Construction registers the default pass
/// set in a fixed order (diagnostic output is deterministic).
class CheckEngine {
 public:
  CheckEngine();

  /// Append a pass (custom passes run after the built-in set).
  void register_pass(std::unique_ptr<Pass> pass);

  /// Registered passes, in execution order.
  std::vector<const Pass*> passes() const;

  /// Run every applicable pass (optionally the cheap subset) and return
  /// the merged report. Thread-safe; each pass runs under an obs::Span
  /// named "check:<pass>".
  Report run(const CheckContext& cx, bool cheap_only = false) const;

  /// The process-wide engine, with its counters registered as the
  /// "check-engine" metrics source (obs::Registry).
  static CheckEngine& instance();

 private:
  struct Entry {
    std::unique_ptr<Pass> pass;
    std::string phase;  ///< "check:<name>", stable storage for the Span name
    mutable std::atomic<std::uint64_t> runs{0};
  };
  /// Deque: Entry is pinned (atomic member) yet pointers stay stable.
  std::deque<Entry> entries_;
  mutable std::atomic<std::uint64_t> runs_{0};
  mutable std::atomic<std::uint64_t> diags_{0};
  mutable std::atomic<std::uint64_t> errors_{0};

  friend void register_check_counters(CheckEngine& e);
};

// ---- Convenience front ends ---------------------------------------------

/// Lint a whole design (DFG + hierarchy passes over every behavior).
/// A non-null `trace` seeds the dataflow passes' input facts of the top
/// behavior (hsyn-lint --trace), sharpening constant/range findings.
Report lint_design(const Design& design, const Trace* trace = nullptr);

/// Verify a synthesized/mutated datapath end to end (all passes).
Report lint_datapath(const Datapath& dp, const Library& lib, const OpPoint& pt,
                     int deadline = 0, const Design* design = nullptr);

/// True when the HSYN_CHECK_MOVES environment variable enables the move
/// gate (value "1"; cached after first read).
bool env_check_moves();

/// True when HSYN_VERIFY_REWRITES=1 enables the rewrite-equivalence
/// gate (check/equiv.h) in the search core; cached after first read.
bool env_verify_rewrites();

/// DFGs referenced by a context, deduplicated in deterministic order:
/// the single-DFG override, else every design behavior followed by the
/// datapath tree's behavior implementations. Shared by the DFG-level
/// passes (passes_dfg.cpp, passes_dataflow.cpp).
std::vector<const Dfg*> context_dfgs(const CheckContext& cx);

/// The move-engine invariant gate: re-verify `dp` with every pass and
/// throw std::logic_error carrying the full diagnostic text when any
/// error-severity finding fires. `what` names the offending move in the
/// exception message. Runs under an obs::Span named "check-moves".
void verify_move(const Datapath& dp, const Library& lib, const OpPoint& pt,
                 int deadline, const std::string& what);

// ---- Built-in pass factories (grouped by implementation file) ------------

std::unique_ptr<Pass> make_dfg_wellformed_pass();   // passes_dfg.cpp
std::unique_ptr<Pass> make_dfg_hierarchy_pass();    // passes_dfg.cpp
std::unique_ptr<Pass> make_dfg_deadcode_pass();     // passes_dataflow.cpp
std::unique_ptr<Pass> make_dfg_const_fold_pass();   // passes_dataflow.cpp
std::unique_ptr<Pass> make_dfg_range_overflow_pass();  // passes_dataflow.cpp
std::unique_ptr<Pass> make_dfg_width_waste_pass();  // passes_dataflow.cpp
std::unique_ptr<Pass> make_rtl_binding_pass();      // passes_rtl.cpp
std::unique_ptr<Pass> make_sched_legality_pass();   // passes_rtl.cpp
std::unique_ptr<Pass> make_ctrl_consistency_pass(); // passes_ctrl.cpp
std::unique_ptr<Pass> make_oppoint_sanity_pass();   // passes_ctrl.cpp

}  // namespace hsyn::lint
