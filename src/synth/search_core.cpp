#include "synth/search_core.h"

#include <algorithm>
#include <limits>
#include <mutex>
#include <string_view>
#include <utility>
#include <vector>

#include "check/check.h"
#include "check/equiv.h"
#include "dfg/analysis.h"
#include "dfg/flatten.h"
#include "obs/ledger.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "power/estimator.h"
#include "rtl/cost.h"
#include "runtime/cancel.h"
#include "runtime/task_rng.h"
#include "runtime/thread_pool.h"
#include "sched/scheduler.h"
#include "synth/initial.h"
#include "util/fmt.h"
#include "util/log.h"

namespace hsyn {
namespace {

/// Progress/cancel hooks fire only at the top of a search: move B's
/// nested improvement runs at resynth depth > 0, where a cancel unwind
/// would corrupt the enclosing move. Every depth-0 search is serial in
/// itself -- pool chunks are whole operating points or portfolio
/// strategies, and a point task records its events into its own
/// narration.
bool at_search_top() { return obs::ResynthScope::current_depth() == 0; }

/// What one stretch of the search logged and reported: log text plus
/// progress events, each at the log offset where it fired. Operating
/// points run concurrently; their narrations are replayed in the serial
/// order, so stderr and the progress sink see what a serial run shows.
struct Narration {
  std::string log;
  std::vector<std::pair<std::size_t, SynthProgress>> events;

  void replay(const SynthOptions& opts) const {
    std::size_t at = 0;
    for (const auto& [pos, ev] : events) {
      log_write(std::string_view(log).substr(at, pos - at));
      at = pos;
      opts.progress(ev);
    }
    log_write(std::string_view(log).substr(at));
  }
};

/// The narration this thread records into (null: deliver directly).
thread_local Narration* tl_narration = nullptr;

/// RAII: this thread's log lines and progress events go to `n`.
class Narrate {
 public:
  explicit Narrate(Narration* n) : log_(&n->log), prev_(tl_narration) {
    tl_narration = n;
  }
  ~Narrate() { tl_narration = prev_; }
  Narrate(const Narrate&) = delete;
  Narrate& operator=(const Narrate&) = delete;

 private:
  LogCapture log_;
  Narration* prev_;
};

/// Deliver a progress event to the sink, or record it in the narration
/// of the stretch this thread is running.
void emit_progress(const SynthOptions& opts, const SynthProgress& ev) {
  if (tl_narration != nullptr) {
    tl_narration->events.emplace_back(tl_narration->log.size(), ev);
  } else {
    opts.progress(ev);
  }
}

/// Longest path through the flattened DFG in nanoseconds, each operation
/// at its fastest library delay (chains allowed).
double critical_ns(const Dfg& flat, const Library& lib) {
  std::vector<double> finish(flat.nodes().size(), 0);
  double worst = 0;
  for (const int nid : flat.topo_order()) {
    const Node& n = flat.node(nid);
    double start = 0;
    for (int p = 0; p < n.num_inputs; ++p) {
      const Edge& e = flat.edge(flat.input_edge(nid, p));
      if (e.src.node >= 0) {
        start = std::max(start, finish[static_cast<std::size_t>(e.src.node)]);
      }
    }
    finish[static_cast<std::size_t>(nid)] = start + lib.min_delay_ns(n.op);
    worst = std::max(worst, finish[static_cast<std::size_t>(nid)]);
  }
  return worst;
}

double objective_value(const SynthResult& r, Objective obj) {
  return obj == Objective::Area ? r.area : r.power;
}

void fill_metrics(SynthResult& r, const Library& lib, const Trace& trace) {
  r.area = area_of(r.dp, lib).total();
  r.energy = energy_of(r.dp, 0, trace, lib, r.pt).total();
  r.power = r.energy / r.sample_period_ns;
  r.makespan = r.dp.behaviors[0].makespan;
}

/// The rewrite-equivalence gate (--verify-rewrites): before a chosen
/// Move A/B is applied, every top-level child whose behavior DFG was
/// swapped for a structurally different one must prove equivalent to
/// the DFG it replaces (check/equiv.h), on the trace that child
/// actually observes. Returns false with the refutation in `why`.
/// Moves that merely re-bind units or re-schedule (identical content
/// hashes) are skipped, so the gate costs one cached analysis/replay
/// per genuinely rewritten DFG.
bool rewrite_verified(const Datapath& before, const Move& m,
                      const SynthContext& cx, std::string* why) {
  obs::Span phase("verify-rewrites");
  const Datapath& after = m.result;
  const std::size_t n =
      std::min(before.children.size(), after.children.size());
  for (std::size_t i = 0; i < n; ++i) {
    const Datapath* bi = before.children[i].impl.get();
    const Datapath* ai = after.children[i].impl.get();
    if (bi == nullptr || ai == nullptr || bi->behaviors.empty() ||
        ai->behaviors.empty()) {
      continue;
    }
    // A move may retarget a child to a different interface behavior;
    // only same-behavior DFG swaps are rewrites this gate can judge.
    if (bi->behaviors[0].behavior != ai->behaviors[0].behavior) continue;
    const Dfg* bd = bi->behaviors[0].dfg;
    const Dfg* ad = ai->behaviors[0].dfg;
    if (bd == nullptr || ad == nullptr || bd == ad) continue;
    if (!bd->validated() || !ad->validated()) continue;
    if (bd->content_hash() == ad->content_hash()) continue;
    Trace t = child_input_trace(before, 0, static_cast<int>(i),
                                bi->behaviors[0].behavior, cx);
    const lint::EquivResult r = lint::verify_equivalent(
        *bd, *ad, t, resolver_of(*bi), resolver_of(*ai));
    if (!r.equivalent) {
      *why = strf("child %zu behavior '%s': %s (%s)", i,
                  bi->behaviors[0].behavior.c_str(), r.detail.c_str(),
                  r.method.c_str());
      return false;
    }
  }
  return true;
}

/// Top-level class of a recorded move kind ("A:..."/"B:..." -> Replace).
MoveClass class_of_kind(const std::string& kind) {
  switch (kind.empty() ? 'A' : kind[0]) {
    case 'C': return MoveClass::Share;
    case 'D': return MoveClass::Split;
    default: return MoveClass::Replace;
  }
}

}  // namespace

void merge_stats(ImproveStats& into, const ImproveStats& from) {
  into.passes += from.passes;
  into.moves_applied += from.moves_applied;
  into.moves_kept += from.moves_kept;
  for (std::size_t i = 0; i < into.by_class.size(); ++i) {
    into.by_class[i].applied += from.by_class[i].applied;
    into.by_class[i].accepted += from.by_class[i].accepted;
    into.by_class[i].accepted_gain += from.by_class[i].accepted_gain;
  }
}

Datapath search_improve(Datapath dp, const SynthContext& cx,
                        const SearchStrategy& strat, ImproveStats* stats) {
  obs::Span improve_span("improve");
  obs::MoveLedger& ledger = obs::MoveLedger::instance();
  // Live-telemetry slot for the thread's current job. The engine only
  // ever *writes* it (relaxed atomics, nothing read back into
  // decisions), so the sampler being on or off cannot change results.
  // Nested resynthesis (move B) skips publication: only top-level
  // passes describe the job's visible progress.
  obs::JobSearchState& js = obs::current_job_state();
  const bool publish = obs::ResynthScope::current_depth() == 0;
  static obs::Counter& refuted_ctr =
      obs::Registry::instance().counter("synth.rewrites_refuted");
  const int max_passes =
      strat.max_passes > 0 ? strat.max_passes : cx.opts.max_passes;
  const int max_moves = strat.max_moves_per_pass > 0 ? strat.max_moves_per_pass
                                                     : cx.opts.max_moves_per_pass;
  double cur_cost = cost_of(dp, cx);
  if (stats) stats->initial_cost = cur_cost;
  // The move-engine invariant gate: after every accepted move, re-verify
  // the whole datapath with the static-check registry and throw on the
  // first illegal circuit -- a move generator bug is then caught at the
  // move that introduced it instead of surfacing as a bad final netlist.
  const bool gate = cx.opts.check_moves || lint::env_check_moves();
  // The rewrite-equivalence gate (check/equiv.h): refuse to apply a
  // chosen Move A/B whose swapped-in DFG is not provably equivalent to
  // the one it replaces. Genuine moves all verify, so the gate is
  // read-only and gated runs stay bit-identical to ungated ones.
  const bool vgate = cx.opts.verify_rewrites || lint::env_verify_rewrites();
  // Tie-jitter stream: a pure function of (seed, offset, strategy index),
  // consumed only when the strategy asks for jitter, so the default
  // strategy draws nothing and matches the legacy engine exactly.
  Rng jitter = runtime::task_rng(cx.opts.seed + strat.seed_offset,
                                 static_cast<std::uint64_t>(strat.index));

  for (int pass = 0; pass < max_passes; ++pass) {
    if (cx.opts.cancel && at_search_top()) cx.opts.cancel->throw_if_cancelled();
    obs::Span pass_span("improve-pass");
    obs::ImproveScope pass_scope(pass);
    if (stats) ++stats->passes;
    // Objective schedule: warm passes may optimize the other metric to
    // escape the real objective's local minima; prefix selection inside
    // the pass follows the warm objective, the cross-pass `cur_cost`
    // always the real one.
    SynthContext pass_cx = cx;
    bool warm = false;
    if (strat.schedule != ObjSchedule::Fixed && pass < strat.warm_passes) {
      pass_cx.obj = strat.schedule == ObjSchedule::AreaFirst ? Objective::Area
                                                             : Objective::Power;
      warm = pass_cx.obj != cx.obj;
    }
    // One pass: apply up to MAX_MOVES best moves, negative gains allowed.
    // The budget scales with the number of movable objects (KL style), so
    // flattened designs work proportionally harder per pass.
    const int objects = static_cast<int>(dp.fus.size() + dp.children.size() +
                                         dp.regs.size() / 2);
    const int budget = std::min(max_moves, std::max(4, objects));
    std::vector<Datapath> snapshots;
    std::vector<double> cum_gain;
    /// Ledger keys of applied moves, parallel to snapshots; used to mark
    /// accepted-vs-rolled-back after the best prefix is chosen.
    std::vector<std::pair<std::uint64_t, std::int32_t>> applied_keys;
    std::vector<std::pair<MoveClass, double>> applied_class;
    Datapath cur = dp;
    double cum = 0;
    for (int mi = 0; mi < budget; ++mi) {
      if (cx.opts.cancel && at_search_top()) {
        cx.opts.cancel->throw_if_cancelled();
      }
      // Wall time of move selection (the dominant cost).
      // Move B's nested improve() opens its own move-select spans; self
      // time keeps the nesting from counting twice.
      obs::Span phase("move-select");
      // Full module resynthesis (move B) is the costliest generator; try
      // it early in the pass where it matters most, then fall back to
      // the cheap selection-only form.
      SynthContext move_cx = pass_cx;
      move_cx.opts.enable_resynth =
          pass_cx.opts.enable_resynth && mi < strat.resynth_head;
      std::vector<MoveClass> order = strat.move_order;
      if (strat.seed_offset != 0 && order.size() > 1) {
        const auto r = jitter.below(order.size());
        std::rotate(order.begin(), order.begin() + static_cast<long>(r),
                    order.end());
      }
      // Collect each generator's best candidate in strategy order. The
      // selection loop below reproduces keep_better's semantics exactly
      // (strict gain >, earlier generator wins ties), so when nothing is
      // refuted the chosen move is identical to the legacy fold; keeping
      // the runners-up lets the equivalence gate fall back to the
      // next-best candidate instead of ending the pass.
      std::vector<Move> cands;
      bool share_ran = false;
      bool share_lost = true;
      for (const MoveClass mc : order) {
        switch (mc) {
          case MoveClass::Replace: {
            Move c = best_replace_move(cur, move_cx);
            if (c.valid) cands.push_back(std::move(c));
            break;
          }
          case MoveClass::Share: {
            Move c = best_sharing_move(cur, pass_cx);
            share_ran = true;
            share_lost = !c.valid || c.gain < 0;
            if (c.valid) cands.push_back(std::move(c));
            break;
          }
          case MoveClass::Split:
            // Fig. 4 statements 9-10: when the best sharing move loses,
            // consider splitting instead. (Strategies may force it, or
            // order split before share -- then it always runs.)
            if (strat.always_split || !share_ran || share_lost) {
              Move c = best_splitting_move(cur, pass_cx);
              if (c.valid) cands.push_back(std::move(c));
            }
            break;
        }
      }
      std::vector<char> refuted(cands.size(), 0);
      int picked = -1;
      for (;;) {
        int sel = -1;
        for (std::size_t ci = 0; ci < cands.size(); ++ci) {
          if (refuted[ci]) continue;
          if (sel < 0 ||
              cands[ci].gain > cands[static_cast<std::size_t>(sel)].gain) {
            sel = static_cast<int>(ci);
          }
        }
        if (sel < 0) break;
        const Move& c = cands[static_cast<std::size_t>(sel)];
        if (!cx.opts.enable_negative_gain && c.gain <= 1e-9) break;
        log_debug(strf("pass %d move %d: %s (%s) gain %.3f", pass, mi,
                       c.kind.c_str(), c.desc.c_str(), c.gain));
        if (vgate && !c.kind.empty() && (c.kind[0] == 'A' || c.kind[0] == 'B')) {
          std::string why;
          if (!rewrite_verified(cur, c, cx, &why)) {
            if (ledger.enabled() && c.obs_cand >= 0) {
              ledger.set_status(c.obs_group, c.obs_cand,
                                obs::MoveStatus::RejectedByVerifier);
            }
            refuted_ctr.add();
            js.rewrites_refuted.fetch_add(1, std::memory_order_relaxed);
            log_warn(strf("pass %d move %d: %s (%s) rejected by the "
                          "equivalence gate: %s -- trying the next-best "
                          "candidate",
                          pass, mi, c.kind.c_str(), c.desc.c_str(),
                          why.c_str()));
            refuted[static_cast<std::size_t>(sel)] = 1;
            continue;  // deterministic fallback, pass continues
          }
        }
        picked = sel;
        break;
      }
      if (picked < 0) break;
      Move& m = cands[static_cast<std::size_t>(picked)];
      cur = std::move(m.result);
      if (gate) {
        lint::verify_move(cur, *cx.lib, cx.pt, cx.deadline,
                          strf("pass %d move %d: %s (%s)", pass, mi,
                               m.kind.c_str(), m.desc.c_str()));
      }
      cum += m.gain;
      snapshots.push_back(cur);
      cum_gain.push_back(cum);
      applied_keys.emplace_back(m.obs_group, m.obs_cand);
      applied_class.emplace_back(class_of_kind(m.kind), m.gain);
      if (ledger.enabled() && m.obs_cand >= 0) {
        ledger.set_status(m.obs_group, m.obs_cand, obs::MoveStatus::Applied);
      }
      if (stats) {
        ++stats->moves_applied;
        ++stats->by_class[static_cast<std::size_t>(applied_class.back().first)]
              .applied;
      }
    }

    // Keep the prefix with the best cumulative gain (statement 14-16).
    int best_k = -1;
    double best_gain = 1e-9;
    for (std::size_t k = 0; k < cum_gain.size(); ++k) {
      if (cum_gain[k] > best_gain) {
        best_gain = cum_gain[k];
        best_k = static_cast<int>(k);
      }
    }
    if (ledger.enabled()) {
      for (std::size_t k = 0; k < applied_keys.size(); ++k) {
        const auto& [g, c] = applied_keys[k];
        if (c < 0) continue;
        ledger.set_status(g, c,
                          static_cast<int>(k) <= best_k
                              ? obs::MoveStatus::Accepted
                              : obs::MoveStatus::RolledBack);
      }
    }
    if (stats) {
      for (int k = 0; k <= best_k; ++k) {
        const auto& [mc, gain] = applied_class[static_cast<std::size_t>(k)];
        ++stats->by_class[static_cast<std::size_t>(mc)].accepted;
        stats->by_class[static_cast<std::size_t>(mc)].accepted_gain += gain;
      }
    }
    if (publish) {
      js.passes.fetch_add(1, std::memory_order_relaxed);
      js.pass.store(pass, std::memory_order_relaxed);
      js.depth.store(best_k + 1, std::memory_order_relaxed);
      js.moves_applied.fetch_add(applied_class.size(),
                                 std::memory_order_relaxed);
      js.moves_accepted.fetch_add(static_cast<std::uint64_t>(best_k + 1),
                                  std::memory_order_relaxed);
      for (std::size_t k = 0; k < applied_class.size(); ++k) {
        const auto mc = static_cast<std::size_t>(applied_class[k].first);
        js.applied_by_class[mc].fetch_add(1, std::memory_order_relaxed);
        if (static_cast<int>(k) <= best_k) {
          js.accepted_by_class[mc].fetch_add(1, std::memory_order_relaxed);
        }
      }
    }
    if (cx.opts.progress && at_search_top()) {
      SynthProgress ev;
      ev.stage = SynthProgress::Stage::Pass;
      ev.vdd = cx.pt.vdd;
      ev.clock_ns = cx.pt.clk_ns;
      ev.pass = pass;
      ev.moves_applied = static_cast<int>(snapshots.size());
      ev.moves_kept = best_k + 1;
      ev.cost = best_k < 0 ? cur_cost
                           : cost_of(snapshots[static_cast<std::size_t>(best_k)],
                                     pass_cx);
      emit_progress(cx.opts, ev);
    }
    if (best_k < 0) {
      // Pass_Gain <= 0. A dry warm pass only ends the warm phase (the
      // real objective still deserves its passes); a dry pass under the
      // real objective ends the search, exactly as in Fig. 4.
      if (warm) continue;
      break;
    }
    dp = std::move(snapshots[static_cast<std::size_t>(best_k)]);
    cur_cost = cost_of(dp, cx);
    if (publish) js.note_best(cur_cost);
    if (stats) stats->moves_kept += best_k + 1;
    log_info(strf("pass %d kept %d moves, gain %.3f, cost %.3f", pass,
                  best_k + 1, best_gain, cur_cost));
  }

  if (stats) stats->final_cost = cur_cost;
  return dp;
}

SearchCore::SearchCore(const Design& design, const Library& lib,
                       const ComplexLibrary* clib, double sample_period_ns,
                       Objective obj, Mode mode, const SynthOptions& opts)
    : design_(design),
      lib_(lib),
      clib_(clib),
      sample_period_ns_(sample_period_ns),
      obj_(obj),
      mode_(mode),
      opts_(opts) {
  if (mode == Mode::Flattened) {
    flat_ = std::make_shared<const Dfg>(flatten_top(design));
    dfg_ = flat_.get();
    behavior_name_ = flat_->name();
  } else {
    dfg_ = &design.top();
    behavior_name_ = design.top_name();
  }

  const double crit = mode == Mode::Flattened
                          ? critical_ns(*dfg_, lib)
                          : critical_ns(flatten_top(design), lib);
  vdds_ = obj == Objective::Area
              ? std::vector<double>{kVref}
              : prune_vdds(default_vdds(), crit, sample_period_ns);
  // Vdd pruning per [10]: the quadratic energy law makes the lowest
  // feasible supplies dominate; keep only the three lowest candidates
  // (cycle quantization occasionally favors the second- or third-lowest).
  if (obj == Objective::Power && vdds_.size() > 3) {
    vdds_.erase(vdds_.begin(), vdds_.end() - 3);
  }
  if (opts.force_vdd > 0) vdds_ = {opts.force_vdd};
  if (vdds_.empty()) {
    viable_ = false;
    fail_reason_ = "sampling period below critical path even at 5 V";
    return;
  }

  if (!opts.user_trace.empty()) {
    check(static_cast<int>(opts.user_trace[0].size()) == dfg_->num_inputs(),
          "user trace arity does not match the design's primary inputs");
    trace_ = opts.user_trace;
  } else {
    trace_ = make_trace(dfg_->num_inputs(), opts.trace_samples, opts.seed);
  }
}

namespace {

/// One (vdd, clock) operating point: probed, picked and aligned by the
/// serial probe phase, then searched as a pool task.
struct PointTask {
  enum class State { Pending, Done, Cancelled };
  double vdd = 0;
  double clk = 0;
  int deadline = 0;
  Datapath init;        ///< aligned initial solution (moved into the search)
  Narration lead;       ///< probe-phase narration that precedes this point
  Narration narration;  ///< the point's own search
  State state = State::Pending;  ///< guarded by the fold mutex
  SynthResult cand;
  std::string cancel_reason;
};

}  // namespace

SearchOutcome SearchCore::run(const SearchStrategy& strat) const {
  SearchOutcome out;
  SynthResult& best = out.result;
  best.obj = obj_;
  best.mode = mode_;
  best.sample_period_ns = sample_period_ns_;
  best.flat_dfg = flat_;
  if (!viable_) {
    best.fail_reason = fail_reason_;
    return out;
  }

  SynthOptions opts = opts_;
  if (strat.max_resynth_depth > 0) opts.max_resynth_depth = strat.max_resynth_depth;

  std::vector<double> vdds = vdds_;
  if (strat.reverse_vdds) std::reverse(vdds.begin(), vdds.end());

  const auto context_at = [&](double vdd, double clk, int deadline) {
    SynthContext cx;
    cx.design = mode_ == Mode::Hierarchical ? &design_ : nullptr;
    cx.lib = &lib_;
    cx.clib = mode_ == Mode::Hierarchical ? clib_ : nullptr;
    cx.pt = {vdd, clk};
    cx.deadline = deadline;
    cx.obj = obj_;
    cx.opts = opts;
    return cx;
  };

  // Probe phase, serial: pick and align every (vdd, clock) point in the
  // order the points are folded below. Its narration is held back and
  // replayed ahead of the point it precedes.
  std::vector<PointTask> points;
  Narration pending;
  try {
    const Narrate narrate(&pending);
    for (const double vdd : vdds) {
      // Probe every candidate clock with a cheap feasibility check (build
      // the fully parallel initial solution and schedule it), then run the
      // expensive improvement only on an even sample of the feasible
      // clocks: long clocks mean few controller states, short clocks mean
      // fine-grained schedules -- both ends of the trade-off deserve a
      // look. This is the clock-set pruning of [10].
      struct Probe {
        double clk;
        int deadline;
        Datapath init;
      };
      std::vector<Probe> feasible;
      {
        obs::Span probe_span("vdd-clock-probe");
        for (const double c : candidate_clocks(lib_.fus(), vdd)) {
          if (opts.cancel) opts.cancel->throw_if_cancelled();
          const int deadline = static_cast<int>(sample_period_ns_ / c + 1e-9);
          if (deadline < 1) continue;
          // Bound the controller: schedules beyond ~100 states per sample
          // mean a needlessly fine clock whose FSM and register clock tree
          // dwarf the datapath (real designs re-time the clock instead).
          if (deadline > 96) continue;
          const SynthContext cx = context_at(vdd, c, deadline);
          Datapath init;
          try {
            init = initial_solution(*dfg_, behavior_name_, cx);
          } catch (const std::logic_error& e) {
            log_warn(strf("initial solution failed at Vdd=%.1f clk=%.1f: %s",
                          vdd, c, e.what()));
            continue;
          }
          // Cheap probe first; when the unaligned schedule misses the
          // deadline, profile alignment (overlapping children with their
          // producers) often recovers it -- hierarchy otherwise serializes
          // cascades. Full alignment for every surviving clock happens once
          // below, on the picked subset only.
          if (!schedule_datapath(init, lib_, cx.pt, deadline).ok) {
            align_child_profiles(init, lib_, cx.pt);
            if (!schedule_datapath(init, lib_, cx.pt, deadline).ok) continue;
          }
          feasible.push_back({c, deadline, std::move(init)});
        }
      }
      if (opts.progress) {
        SynthProgress ev;
        ev.stage = SynthProgress::Stage::Probe;
        ev.vdd = vdd;
        ev.feasible_clocks = static_cast<int>(feasible.size());
        emit_progress(opts, ev);
      }
      std::vector<std::size_t> picked_idx;
      if (static_cast<int>(feasible.size()) <= opts.max_clocks) {
        for (std::size_t i = 0; i < feasible.size(); ++i)
          picked_idx.push_back(i);
      } else {
        const std::size_t n = feasible.size();
        for (int i = 0; i < opts.max_clocks; ++i) {
          picked_idx.push_back(i * (n - 1) /
                               static_cast<std::size_t>(opts.max_clocks - 1));
        }
        picked_idx.erase(std::unique(picked_idx.begin(), picked_idx.end()),
                         picked_idx.end());
      }
      if (strat.reverse_clocks) {
        std::reverse(picked_idx.begin(), picked_idx.end());
      }

      for (const std::size_t pi : picked_idx) {
        if (opts.cancel) opts.cancel->throw_if_cancelled();
        Probe& probe = feasible[pi];
        align_child_profiles(probe.init, lib_, {vdd, probe.clk});
        if (!schedule_datapath(probe.init, lib_, {vdd, probe.clk},
                               probe.deadline)
                 .ok) {
          continue;  // cannot happen in practice; alignment never worsens
        }
        PointTask& p = points.emplace_back();
        p.vdd = vdd;
        p.clk = probe.clk;
        p.deadline = probe.deadline;
        p.init = std::move(probe.init);
        p.lead = std::exchange(pending, Narration{});
      }
    }
  } catch (const runtime::Cancelled& e) {
    // No point has been searched yet: nothing to keep.
    out.cancelled = true;
    out.cancel_reason = e.what();
    for (const PointTask& p : points) p.lead.replay(opts);
    pending.replay(opts);
    best.fail_reason = "cancelled before any feasible operating point";
    return out;
  }

  // Search phase: one pool task per point, so lanes balance over whole
  // searches (a task is serial in itself). The fold consumes finished
  // points strictly in order, as soon as the next one is ready, and
  // frees the ones that lose.
  double best_obj = std::numeric_limits<double>::max();
  const auto fold = [&](PointTask& p) {
    p.lead.replay(opts);
    p.narration.replay(opts);
    SynthResult& cand = p.cand;
    merge_stats(out.total_stats, cand.stats);
    log_info(strf("config Vdd=%.1f clk=%.1fns: area %.1f energy %.1f "
                  "power %.4f",
                  p.vdd, p.clk, cand.area, cand.energy, cand.power));
    if (opts.progress) {
      SynthProgress ev;
      ev.stage = SynthProgress::Stage::OpPoint;
      ev.vdd = p.vdd;
      ev.clock_ns = p.clk;
      ev.cost = objective_value(cand, obj_);
      ev.area = cand.area;
      ev.power = cand.power;
      opts.progress(ev);
    }
    // Primary comparison on the objective; near-ties (within 8%) break
    // toward lower power -- "minimum area, then minimum power" is what
    // a designer means by area-optimized, and it stops the area
    // objective from picking needlessly hot fine-grained clocks.
    const double v = objective_value(cand, obj_);
    obs::current_job_state().note_best(v);
    const bool better =
        v < best_obj * (1.0 - 1e-9) ||
        (best.ok && v <= best_obj * 1.08 && cand.power < best.power);
    if (!best.ok || better) {
      best_obj = std::min(v, best_obj);
      best = std::move(cand);
    }
    p = PointTask{};
  };

  const int n = static_cast<int>(points.size());
  obs::MoveLedger& ledger = obs::MoveLedger::instance();
  const std::uint64_t first_tag = ledger.begin_points(n);
  std::mutex fold_mu;
  std::size_t folded = 0;
  runtime::pool().run(n, [&](int i) {
    PointTask& p = points[static_cast<std::size_t>(i)];
    PointTask::State state = PointTask::State::Done;
    try {
      const obs::PointScope point_scope(first_tag +
                                        static_cast<std::uint64_t>(i));
      const Narrate narrate(&p.narration);
      SynthContext cx = context_at(p.vdd, p.clk, p.deadline);
      cx.trace = trace_;
      obs::JobSearchState& js = obs::current_job_state();
      js.vdd.store(p.vdd, std::memory_order_relaxed);
      js.clock_ns.store(p.clk, std::memory_order_relaxed);
      ImproveStats stats;
      Datapath improved = search_improve(std::move(p.init), cx, strat, &stats);
      SynthResult& cand = p.cand;
      cand.ok = true;
      cand.dp = std::move(improved);
      cand.flat_dfg = flat_;
      cand.pt = cx.pt;
      cand.sample_period_ns = sample_period_ns_;
      cand.deadline_cycles = p.deadline;
      cand.obj = obj_;
      cand.mode = mode_;
      cand.stats = stats;
      fill_metrics(cand, lib_, trace_);
    } catch (const runtime::Cancelled& e) {
      state = PointTask::State::Cancelled;
      p.cancel_reason = e.what();
    } catch (...) {
      log_write(p.narration.log);  // the failure's own log lines
      throw;
    }
    const std::lock_guard<std::mutex> lock(fold_mu);
    p.state = state;
    while (folded < points.size() &&
           points[folded].state == PointTask::State::Done) {
      fold(points[folded++]);
    }
  });
  ledger.place_points(first_tag, n);

  if (folded < points.size()) {
    // Best-so-far semantics: the completed prefix is folded; the first
    // cancelled point reports what it did before the cut, and nothing
    // after it counts.
    const PointTask& p = points[folded];
    p.lead.replay(opts);
    p.narration.replay(opts);
    out.cancelled = true;
    out.cancel_reason = p.cancel_reason;
  } else {
    pending.replay(opts);  // supplies after the last point
  }

  if (!best.ok && best.fail_reason.empty()) {
    best.fail_reason = out.cancelled
                           ? "cancelled before any feasible operating point"
                           : "no feasible operating point";
  }
  return out;
}

void SearchCore::verify_result(const SynthResult& r, const Design& design,
                               const Library& lib) {
#ifndef NDEBUG
  if (!r.ok) return;
  // Debug builds always verify the winning circuit with the cheap
  // check passes; release builds opt in per move via --check-moves /
  // HSYN_CHECK_MOVES=1.
  lint::CheckContext ccx;
  ccx.design = &design;
  ccx.dp = &r.dp;
  ccx.lib = &lib;
  ccx.pt = r.pt;
  ccx.deadline = r.deadline_cycles;
  ccx.sample_period_ns = r.sample_period_ns;
  const lint::Report rep =
      lint::CheckEngine::instance().run(ccx, /*cheap_only=*/true);
  check(rep.ok(), "post-synthesis static checks failed:\n" + rep.to_text());
#else
  (void)r;
  (void)design;
  (void)lib;
#endif
}

}  // namespace hsyn
