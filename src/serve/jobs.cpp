#include "serve/jobs.h"

#include <mutex>
#include <utility>

#include "dfg/textio.h"
#include "dfg/transform.h"
#include "eval/engine.h"
#include "library/textio.h"
#include "obs/job.h"
#include "obs/ledger.h"
#include "power/rtlsim.h"
#include "power/trace.h"
#include "power/trace_io.h"
#include "runtime/cancel.h"
#include "synth/portfolio.h"
#include "synth/report.h"
#include "util/fmt.h"

namespace hsyn::serve {
namespace {

/// The pipeline body; separated so run_job can settle the cache-budget
/// account on every exit path.
JobOutcome run_job_body(const JobSpec& spec, const JobHooks& hooks) {
  JobOutcome out;
  std::string report;
  try {
    if (spec.benchmark.empty() == spec.design_text.empty()) {
      out.error = "exactly one of 'benchmark' and 'design' must be given";
      return out;
    }

    // One shared immutable default library for every job in the
    // process: its uid keys the shared evaluation caches, so a per-job
    // copy (fresh uid each time) would silently disable all cross-job
    // cache reuse -- the daemon's main payoff.
    static const std::shared_ptr<const Library> default_lib =
        std::make_shared<const Library>(default_library());
    std::shared_ptr<const Library> lib = default_lib;
    std::shared_ptr<Benchmark> bench;
    std::shared_ptr<Design> file_design;
    Design* dsn = nullptr;
    std::string label;
    if (!spec.benchmark.empty()) {
      bench = std::make_shared<Benchmark>(make_benchmark(spec.benchmark, *lib));
      dsn = &bench->design;
      label = bench->name;
    } else {
      file_design = std::make_shared<Design>(design_from_text(spec.design_text));
      dsn = file_design.get();
      label = spec.design_name.empty() ? "<design>" : spec.design_name;
    }

    if (spec.auto_variants) {
      int added = 0;
      const std::vector<std::string> names = dsn->behavior_names();
      for (const std::string& b : names) {
        if (b == dsn->top_name()) continue;
        added += register_variants(*dsn, b);
      }
      report +=
          strf("auto-variants: %d equivalent DFG variant(s) registered\n",
               added);
    }
    if (!spec.library_text.empty()) {
      if (bench) {
        out.error =
            "a library cannot be combined with a built-in benchmark "
            "(benchmarks fix their library)";
        out.report = report;
        return out;
      }
      lib = std::make_shared<const Library>(
          library_from_text(spec.library_text));
      report += strf("library: %d functional-unit types loaded\n",
                     lib->num_fu_types());
    }
    std::shared_ptr<ComplexLibrary> local_clib;
    const ComplexLibrary* clib = nullptr;
    if (spec.templates) {
      if (bench) {
        clib = &bench->clib;
      } else {
        local_clib = std::make_shared<ComplexLibrary>(
            default_complex_library(*dsn, *lib));
        clib = local_clib.get();
      }
    }

    const double min_ts = min_sample_period_ns(*dsn, *lib);
    const double ts = spec.period_ns > 0 ? spec.period_ns
                                         : spec.laxity * min_ts;
    report += strf("design %s: top '%s', %d behaviors, %d flattened ops\n",
                   label.c_str(), dsn->top_name().c_str(),
                   static_cast<int>(dsn->behavior_names().size()),
                   dsn->flattened_size(dsn->top_name()));
    report += strf("minimum sampling period %.1f ns, constraint %.1f ns "
                   "(L.F. %.2f)\n\n",
                   min_ts, ts, ts / min_ts);

    SynthOptions opts;
    opts.seed = spec.seed;
    opts.check_moves = spec.check_moves;
    opts.verify_rewrites = spec.verify_rewrites;
    opts.cancel = hooks.cancel;
    opts.progress = hooks.progress;
    if (!spec.trace_text.empty()) {
      opts.user_trace = trace_from_text(spec.trace_text);
      report += strf("trace: %d samples loaded\n",
                     static_cast<int>(opts.user_trace.size()));
    }

    std::shared_ptr<SynthResult> result;
    if (spec.portfolio > 0 || !spec.strategies.empty()) {
      PortfolioOptions popts;
      popts.num_strategies = spec.portfolio > 0 ? spec.portfolio : 4;
      popts.rounds = spec.portfolio_rounds;
      if (!spec.strategies.empty()) {
        std::string perr;
        int rounds = popts.rounds;
        if (!parse_strategies(spec.strategies, spec.objective,
                              &popts.strategies, &rounds, &perr)) {
          out.error = "bad strategies spec: " + perr;
          out.report = std::move(report);
          return out;
        }
        popts.rounds = rounds;
      }
      PortfolioResult pr = portfolio_synthesize(*dsn, *lib, clib, ts,
                                                spec.objective, spec.mode,
                                                opts, popts);
      if (pr.cancelled) {
        // Best-so-far semantics: the portfolio returns whatever its
        // explorers finished before the trip, exactly once, with the
        // cancellation surfaced alongside.
        out.cancelled = true;
        out.error = pr.cancel_reason.empty() ? "cancelled" : pr.cancel_reason;
      }
      const int n_strats = popts.strategies.empty()
                               ? popts.num_strategies
                               : static_cast<int>(popts.strategies.size());
      report += strf("portfolio: %d strategies, %d round(s)\n", n_strats,
                     popts.rounds) +
                pr.summary_table() + "\n";
      result = std::make_shared<SynthResult>(std::move(pr.best));
    } else {
      result = std::make_shared<SynthResult>(synthesize(
          *dsn, *lib, clib, ts, spec.objective, spec.mode, opts));
    }
    if (!result->ok) {
      out.error = out.cancelled ? out.error
                                : "synthesis failed: " + result->fail_reason;
      out.report = std::move(report);
      return out;
    }
    report += result_summary(*result, *lib) + "\n" +
              architecture_summary(result->dp, *lib);

    if (spec.verify && !out.cancelled) {
      const Trace vt = make_trace(result->dp.behaviors[0].dfg->num_inputs(),
                                  32, spec.seed + 1);
      const RtlSimResult sim = simulate_rtl(result->dp, 0, vt, *lib,
                                            result->pt);
      out.verify_ok = sim.ok;
      report += strf("\nRTL verification: %s\n",
                     sim.ok ? "PASS (outputs match the behavioral model)"
                            : sim.violations.front().c_str());
    }

    out.ok = true;
    out.area = result->area;
    out.power = result->power;
    out.energy = result->energy;
    out.synth_seconds = result->synth_seconds;
    out.report = std::move(report);
    out.result = std::move(result);
    out.bench = std::move(bench);
    out.design = std::move(file_design);
    out.lib = std::move(lib);
    out.clib = std::move(local_clib);
  } catch (const runtime::Cancelled& e) {
    out.cancelled = true;
    out.error = e.what();
    out.report = std::move(report);
  } catch (const std::exception& e) {
    out.error = e.what();
    out.report = std::move(report);
  }
  return out;
}

/// Keeps the move ledger recording while any want_ledger job runs, and
/// puts it back as the first such job found it when the last one ends,
/// so a daemon's later plain jobs do not keep piling up records.
class LedgerHold {
 public:
  explicit LedgerHold(bool want) : want_(want) {
    if (!want_) return;
    std::lock_guard<std::mutex> lock(mu_);
    obs::MoveLedger& led = obs::MoveLedger::instance();
    if (holders_++ == 0) was_enabled_ = led.enabled();
    led.set_enabled(true);
  }
  ~LedgerHold() {
    if (!want_) return;
    std::lock_guard<std::mutex> lock(mu_);
    if (--holders_ == 0) obs::MoveLedger::instance().set_enabled(was_enabled_);
  }
  LedgerHold(const LedgerHold&) = delete;
  LedgerHold& operator=(const LedgerHold&) = delete;

 private:
  const bool want_;
  static inline std::mutex mu_;
  static inline int holders_ = 0;
  static inline bool was_enabled_ = false;
};

}  // namespace

JobOutcome run_job(const JobSpec& spec, const JobHooks& hooks) {
  // Every lane the pool lends this job re-applies the tag (see
  // runtime/thread_pool.cpp), so ledger records and cache charges land
  // on this job no matter which thread does the work.
  obs::JobScope job_scope(hooks.job_id);
  eval::EvalEngine& eng = eval::EvalEngine::instance();
  const bool budgeted = hooks.job_id != 0 && spec.cache_budget_mb > 0;
  if (budgeted) {
    eng.set_job_cache_budget(
        hooks.job_id, static_cast<std::size_t>(spec.cache_budget_mb) << 20);
  }
  if (hooks.cancel && spec.time_budget_ms > 0) {
    hooks.cancel->set_deadline_after_ms(spec.time_budget_ms);
  }
  const LedgerHold ledger_hold(spec.want_ledger);

  JobOutcome out = run_job_body(spec, hooks);

  if (spec.want_ledger) {
    obs::MoveLedger& led = obs::MoveLedger::instance();
    out.ledger_attempts = led.merged(hooks.job_id).size();
    out.ledger_table = led.summary_table(hooks.job_id);
    out.ledger_jsonl = led.to_jsonl(/*include_timing=*/true, hooks.job_id);
  }
  if (budgeted) {
    const eval::JobCacheUsage usage = eng.job_cache_usage(hooks.job_id);
    out.cache_budget_charged = usage.charged_bytes;
    out.cache_budget_rejects = usage.rejected;
    eng.clear_job_cache_budget(hooks.job_id);
  }
  return out;
}

bool JobQueue::push(QueuedJob job) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (closed_) return false;
    q_.push_back(std::move(job));
  }
  cv_.notify_one();
  return true;
}

bool JobQueue::pop(QueuedJob* out) {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [&] { return closed_ || !q_.empty(); });
  if (q_.empty()) return false;
  *out = std::move(q_.front());
  q_.pop_front();
  return true;
}

bool JobQueue::remove(std::uint64_t id, QueuedJob* out) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = q_.begin(); it != q_.end(); ++it) {
    if (it->id == id) {
      if (out) *out = std::move(*it);
      q_.erase(it);
      return true;
    }
  }
  return false;
}

std::vector<QueuedJob> JobQueue::drain() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<QueuedJob> out(std::make_move_iterator(q_.begin()),
                             std::make_move_iterator(q_.end()));
  q_.clear();
  return out;
}

void JobQueue::close() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
  }
  cv_.notify_all();
}

std::size_t JobQueue::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return q_.size();
}

}  // namespace hsyn::serve
