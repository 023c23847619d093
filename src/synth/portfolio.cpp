#include "synth/portfolio.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <string>
#include <utility>

#include "obs/ledger.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "runtime/parallel.h"
#include "runtime/thread_pool.h"
#include "util/fmt.h"
#include "util/log.h"
#include "util/table.h"

namespace hsyn {
namespace {

double objective_value(const SynthResult& r, Objective obj) {
  return obj == Objective::Area ? r.area : r.power;
}

}  // namespace

std::vector<MoveClass> prior_move_order(const ImproveStats& totals) {
  std::array<MoveClass, 3> order = {MoveClass::Replace, MoveClass::Share,
                                    MoveClass::Split};
  const auto score = [&](MoveClass c) {
    const MoveClassCounters& k = totals.by_class[static_cast<std::size_t>(c)];
    return std::pair<double, double>(
        k.accepted_gain,
        k.applied > 0 ? static_cast<double>(k.accepted) / k.applied : 0.0);
  };
  // stable_sort keeps the legacy order among fully tied classes, so a
  // prior learned from zero moves is the legacy order itself.
  std::stable_sort(order.begin(), order.end(), [&](MoveClass a, MoveClass b) {
    return score(a) > score(b);
  });
  return {order.begin(), order.end()};
}

PortfolioResult portfolio_synthesize(const Design& design, const Library& lib,
                                     const ComplexLibrary* clib,
                                     double sample_period_ns, Objective obj,
                                     Mode mode, const SynthOptions& opts,
                                     const PortfolioOptions& popts) {
  obs::Span span("portfolio");
  const auto t0 = std::chrono::steady_clock::now();

  PortfolioResult out;
  std::vector<SearchStrategy> strategies =
      popts.strategies.empty()
          ? default_portfolio(std::max(1, popts.num_strategies), obj)
          : popts.strategies;
  for (std::size_t i = 0; i < strategies.size(); ++i) {
    strategies[i].index = static_cast<int>(i);
  }
  const int n = static_cast<int>(strategies.size());
  const int rounds = std::max(1, popts.rounds);

  // Strategies run concurrently, so the per-strategy engines must not
  // call the (single-threaded) progress sink; the portfolio narrates at
  // its own serial boundaries instead.
  SynthOptions core_opts = opts;
  core_opts.progress = nullptr;
  const SearchCore core(design, lib, clib, sample_period_ns, obj, mode,
                        core_opts);

  runtime::Scored<SynthResult> best;
  ImproveStats prior_totals;
  for (int round = 0; round < rounds; ++round) {
    std::vector<SearchStrategy> cohort = strategies;
    if (round > 0) {
      const std::vector<MoveClass> order = prior_move_order(prior_totals);
      for (SearchStrategy& s : cohort) {
        if (s.adaptive) s.move_order = order;
      }
    }

    // One pool chunk per strategy. The point fan-out inside a strategy
    // runs inline on its lane, so each trajectory is strategy-serial;
    // outcomes and log lines land in index order regardless of which
    // lane ran them, and the loop below writes the logs in that order.
    std::vector<SearchOutcome> outcomes(static_cast<std::size_t>(n));
    std::vector<std::string> logs(static_cast<std::size_t>(n));
    runtime::pool().run(n, [&](int i) {
      const auto at = static_cast<std::size_t>(i);
      try {
        const obs::StrategyScope scope(round * n + i);
        const LogCapture capture(&logs[at]);
        outcomes[at] = core.run(cohort[at]);
      } catch (...) {
        log_write(logs[at]);  // the failure's own log lines
        throw;
      }
      // Telemetry only (relaxed, never read back): the lane carries
      // the job tag, so the count lands on the right job.
      obs::current_job_state().strategies_done.fetch_add(
          1, std::memory_order_relaxed);
    });

    for (int i = 0; i < n; ++i) {
      log_write(logs[static_cast<std::size_t>(i)]);
      const SearchOutcome& oc = outcomes[static_cast<std::size_t>(i)];
      StrategyReport rep;
      rep.strategy = cohort[static_cast<std::size_t>(i)];
      rep.round = round;
      rep.ok = oc.result.ok;
      rep.cancelled = oc.cancelled;
      rep.stats = oc.total_stats;
      if (oc.result.ok) {
        rep.area = oc.result.area;
        rep.power = oc.result.power;
        rep.cost = objective_value(oc.result, obj);
      }
      if (oc.cancelled && !out.cancelled) {
        out.cancelled = true;
        out.cancel_reason = oc.cancel_reason;
      }
      merge_stats(prior_totals, oc.total_stats);
      if (oc.result.ok) {
        runtime::keep_scored(
            best, runtime::Scored<SynthResult>{rep.cost, round * n + i,
                                               oc.result});
      }
      if (opts.progress && !oc.cancelled) {
        SynthProgress ev;
        ev.stage = SynthProgress::Stage::Strategy;
        ev.pass = round * n + i;
        ev.cost = rep.cost;
        ev.area = rep.area;
        ev.power = rep.power;
        ev.moves_applied = rep.stats.moves_applied;
        ev.moves_kept = rep.stats.moves_kept;
        opts.progress(ev);
      }
      out.reports.push_back(std::move(rep));
    }
    if (out.cancelled) break;  // no further rounds after a trip
  }
  out.prior_order = prior_move_order(prior_totals);

  if (best.index >= 0) {
    out.best = std::move(best.value);
    out.winner = best.index;
    out.reports[static_cast<std::size_t>(best.index)].winner = true;
    SearchCore::verify_result(out.best, design, lib);
  } else {
    out.best.obj = obj;
    out.best.mode = mode;
    out.best.sample_period_ns = sample_period_ns;
    out.best.fail_reason = out.cancelled
                               ? "cancelled before any strategy finished"
                               : (core.viable() ? "no feasible operating point"
                                                : core.fail_reason());
  }
  out.best.synth_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  log_info(strf("portfolio: %d strategies x %d round(s), winner %d (%s)",
                n, rounds, out.winner,
                out.winner >= 0
                    ? out.reports[static_cast<std::size_t>(out.winner)]
                          .strategy.name.c_str()
                    : "none"));
  return out;
}

std::string PortfolioResult::summary_table() const {
  TextTable t;
  t.row({"#", "strategy", "round", "status", "area", "power", "cost",
         "applied", "accepted", "acc-gain"});
  t.rule();
  for (std::size_t i = 0; i < reports.size(); ++i) {
    const StrategyReport& r = reports[i];
    int applied = 0;
    int accepted = 0;
    double gain = 0;
    for (const MoveClassCounters& k : r.stats.by_class) {
      applied += k.applied;
      accepted += k.accepted;
      gain += k.accepted_gain;
    }
    t.row({std::to_string(i),
           r.strategy.name + (r.winner ? " *" : ""),
           std::to_string(r.round),
           r.cancelled ? "cancelled" : (r.ok ? "ok" : "failed"),
           r.ok ? strf("%.1f", r.area) : "-",
           r.ok ? strf("%.4f", r.power) : "-",
           r.ok ? strf("%.4f", r.cost) : "-",
           std::to_string(applied),
           std::to_string(accepted),
           strf("%.3f", gain)});
  }
  std::string order;
  for (const MoveClass c : prior_order) {
    if (!order.empty()) order += " > ";
    order += move_class_name(c);
  }
  return t.render() + "prior move order: " + order + "\n";
}

}  // namespace hsyn
