// The identity gate: H-SYN's iterative improvement must pick the same
// datapath however it is run. A configuration changes how a synthesis
// job runs -- thread count, eval-cache capacity, tracing and the move
// ledger, the telemetry sampler, or the daemon route -- and its exact
// area/energy/power, report (synthesis-time line stripped), move ledger
// (observational fields and job id stripped) and, where the route
// returns one, netlist must be byte-equal to those of the base
// configuration (1 thread, default cache, tracing and telemetry off, a
// solo serve::run_job). Every run starts from cleared eval caches except
// the second (warm) daemon submit.
//
// The four small designs vary each factor alone; every design also runs
// one combined configuration (every factor at once). The four large
// designs run only that one, to keep the suite's serial time bounded.
#include <unistd.h>

#include <algorithm>
#include <cstddef>
#include <map>
#include <ostream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "eval/engine.h"
#include "obs/ledger.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "rtl/netlist.h"
#include "runtime/thread_pool.h"
#include "serve/client.h"
#include "serve/jobs.h"
#include "serve/server.h"
#include "strip_timing.h"
#include "util/fmt.h"

namespace hsyn {
namespace {

using testing_support::strip_timing;

/// How one job is run. The defaults are the base configuration.
struct Config {
  std::string label;
  int threads = 1;
  int cache_mb = -1;     ///< eval-cache capacity; -1 = leave the default
  bool tracing = false;  ///< span tracer on
  bool ledger = true;    ///< record (and compare) the move ledger
  int telemetry_ms = 0;  ///< sampler interval; 0 = sampler off
  /// Two submits of the spec to one in-process daemon over a unix
  /// socket (cold, then warm) instead of one solo run_job.
  bool daemon = false;
  /// Daemon route: the cold submit only warms the caches (no ledger,
  /// not compared). Shipping a large ledger costs seconds per submit.
  bool warm_only = false;
  /// Per-job eval-cache budget. Budgets apply only to jobs with an id,
  /// so a budgeted solo run gets one, as a daemon job does.
  int cache_budget_mb = 0;
};

/// What a run produced, with everything run-dependent stripped.
struct Result {
  std::string label;
  std::string metrics;  ///< exact area, energy and power (the report rounds)
  std::string report;
  std::string ledger;
  std::string netlist;  ///< empty when the route returns no datapath
};

/// The ledger JSONL without its observational fields (eval_us,
/// cache_hits, cache_misses) and job id: what remains is a pure
/// function of the search.
std::string strip_ledger(const std::string& jsonl) {
  std::string out;
  std::size_t pos = 0;
  while (pos < jsonl.size()) {
    std::size_t eol = jsonl.find('\n', pos);
    if (eol == std::string::npos) eol = jsonl.size();
    std::string line = jsonl.substr(pos, eol - pos);
    const std::size_t job = line.find(",\"job\":");
    if (job != std::string::npos) {
      line.erase(job, line.find(',', job + 1) - job);
    }
    const std::size_t timing = line.find(",\"eval_us\":");
    if (timing != std::string::npos) {
      line.replace(timing, std::string::npos, "}");
    }
    out += line + "\n";
    pos = eol + 1;
  }
  return out;
}

serve::JobSpec spec_for(const std::string& design, const Config& cfg) {
  serve::JobSpec spec;
  spec.benchmark = design;
  spec.seed = 42;
  spec.templates = true;
  spec.verify = false;
  spec.want_ledger = cfg.ledger;
  spec.cache_budget_mb = cfg.cache_budget_mb;
  return spec;
}

Result to_result(const std::string& label, const serve::JobOutcome& out) {
  EXPECT_TRUE(out.ok) << label << ": " << out.error;
  Result r;
  r.label = label;
  r.metrics = strf("area %a, energy %a, power %a", out.area, out.energy,
                   out.power);
  r.report = strip_timing(out.report);
  r.ledger = strip_ledger(out.ledger_jsonl);
  if (out.result) r.netlist = netlist_to_text(out.result->dp, *out.lib);
  return r;
}

/// Applies a configuration's process-wide settings for one scope and
/// restores the defaults afterwards.
class Environment {
 public:
  explicit Environment(const Config& cfg)
      : saved_capacity_(eval::EvalEngine::instance().capacity_bytes()) {
    runtime::set_threads(cfg.threads);
    if (cfg.cache_mb >= 0) {
      eval::EvalEngine::instance().set_capacity_mb(
          static_cast<std::size_t>(cfg.cache_mb));
    }
    if (cfg.tracing) {
      obs::Tracer::instance().reset();
      obs::Tracer::instance().set_enabled(true);
    }
    if (cfg.telemetry_ms > 0) {
      obs::Telemetry::instance().start(cfg.telemetry_ms);
    }
  }
  ~Environment() {
    obs::Telemetry::instance().stop();
    obs::Telemetry::instance().clear();
    obs::Tracer::instance().set_enabled(false);
    obs::Tracer::instance().reset();
    obs::MoveLedger::instance().set_enabled(false);
    obs::MoveLedger::instance().reset();
    eval::EvalEngine::instance().set_capacity_mb(saved_capacity_ >> 20);
    runtime::set_threads(0);
  }
  Environment(const Environment&) = delete;
  Environment& operator=(const Environment&) = delete;

 private:
  std::size_t saved_capacity_;
};

/// Run `design` in configuration `cfg`: one run for the solo route, a
/// cold and a warm run for the daemon route (only the warm one when
/// `cfg.warm_only`).
std::vector<Result> run_config(const std::string& design, const Config& cfg) {
  Environment env(cfg);
  const serve::JobSpec spec = spec_for(design, cfg);
  eval::EvalEngine::instance().clear();
  obs::MoveLedger::instance().reset();
  if (!cfg.daemon) {
    serve::JobHooks hooks;
    if (cfg.cache_budget_mb > 0) hooks.job_id = 1;
    return {to_result(cfg.label, serve::run_job(spec, hooks))};
  }

  const std::string path =
      "/tmp/hsyn_identity_" + std::to_string(::getpid()) + ".sock";
  serve::Server server(serve::ServerOptions{path, 0, 2});
  std::string err;
  if (!server.start(&err)) {
    ADD_FAILURE() << err;
    return {};
  }
  std::thread daemon([&] { server.run(); });
  std::vector<Result> runs;
  serve::Client client;
  if (client.connect(path, &err)) {
    for (const std::string pass : {"cold", "warm"}) {
      const bool warm_up = cfg.warm_only && pass == "cold";
      serve::JobSpec submit = spec;
      if (warm_up) submit.want_ledger = false;
      // Group ids restart per job, as in a fresh process; the eval
      // caches stay warm.
      obs::MoveLedger::instance().reset();
      serve::JobOutcome out;
      if (!client.run_job(submit, nullptr, &out, &err)) break;
      if (!warm_up) runs.push_back(to_result(cfg.label + " " + pass, out));
    }
  }
  EXPECT_EQ(runs.size(), cfg.warm_only ? 1u : 2u) << err;
  if (!client.connected() || !client.shutdown_server(&err)) {
    server.request_shutdown();
  }
  daemon.join();
  return runs;
}

/// The base run of `design`, computed once per process.
const Result& base_run(const std::string& design) {
  static std::map<std::string, Result> cache;
  auto it = cache.find(design);
  if (it == cache.end()) {
    std::vector<Result> runs = run_config(design, Config{.label = "base"});
    it = cache.emplace(design, runs.empty() ? Result{} : runs.front()).first;
  }
  return it->second;
}

/// One test: a design and the configurations it checks against the base.
struct Case {
  std::string design;
  std::string axis;
  std::vector<Config> configs;
};

void PrintTo(const Case& c, std::ostream* os) {
  *os << c.design << "_" << c.axis;
}

std::vector<Case> cases() {
  // Each configuration is one factor away from the base.
  const std::vector<std::pair<std::string, std::vector<Config>>> axes = {
      {"threads",
       {{.label = "2 threads", .threads = 2},
        {.label = "8 threads", .threads = 8}}},
      {"cache",
       {{.label = "0 MB eval cache", .cache_mb = 0},
        {.label = "1 MB eval cache", .cache_mb = 1},
        {.label = "1 MB job cache budget", .cache_budget_mb = 1}}},
      {"obs",
       {{.label = "tracing on", .tracing = true},
        {.label = "ledger off", .ledger = false}}},
      {"telemetry", {{.label = "telemetry every 5 ms", .telemetry_ms = 5}}},
      {"daemon", {{.label = "daemon", .daemon = true}}},
  };
  // Every factor at once: on every design, and the only configuration
  // of the four too slow to run each axis.
  const Config combined{.label = "8 threads, 1 MB cache, tracing, telemetry, "
                                 "daemon",
                        .threads = 8,
                        .cache_mb = 1,
                        .tracing = true,
                        .telemetry_ms = 5,
                        .daemon = true,
                        .warm_only = true};
  std::vector<Case> out;
  for (const char* d : {"test1", "lat", "iir", "hier_paulin"}) {
    for (const auto& [axis, configs] : axes) out.push_back({d, axis, configs});
  }
  for (const char* d : {"test1", "lat", "iir", "hier_paulin", "dct",
                        "avenhaus_cascade", "fir16", "dct2d"}) {
    out.push_back({d, "combined", {combined}});
  }
  return out;
}

/// Fails with the first differing line when `got` != `want`. gtest's own
/// string diff is quadratic in the line count, and a ledger has up to
/// 100k lines.
void expect_same(const std::string& what, const std::string& got,
                 const std::string& want) {
  if (got == want) return;
  const std::size_t at = static_cast<std::size_t>(
      std::mismatch(got.begin(), got.end(), want.begin(), want.end()).first -
      got.begin());
  const std::size_t nl = at == 0 ? std::string::npos : got.rfind('\n', at - 1);
  const std::size_t start = nl == std::string::npos ? 0 : nl + 1;
  const auto line_of = [start](const std::string& s) {
    return s.substr(start, s.find('\n', start) - start);
  };
  const auto line = std::count(
      got.begin(), got.begin() + static_cast<std::ptrdiff_t>(at), '\n');
  ADD_FAILURE() << what << " differs from the base at line " << line + 1
                << "\n  got:  " << line_of(got)
                << "\n  base: " << line_of(want);
}

class Identity : public ::testing::TestWithParam<Case> {};

TEST_P(Identity, MatchesBase) {
  const Case& c = GetParam();
  const Result& base = base_run(c.design);
  ASSERT_FALSE(base.report.empty());
  // An empty ledger or netlist would make their comparisons vacuous.
  ASSERT_FALSE(base.ledger.empty());
  ASSERT_FALSE(base.netlist.empty());
  for (const Config& cfg : c.configs) {
    for (const Result& r : run_config(c.design, cfg)) {
      const std::string where = c.design + ", " + r.label + ": ";
      expect_same(where + "metrics", r.metrics, base.metrics);
      expect_same(where + "report", r.report, base.report);
      if (cfg.ledger) expect_same(where + "ledger", r.ledger, base.ledger);
      if (!r.netlist.empty()) {
        expect_same(where + "netlist", r.netlist, base.netlist);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(, Identity, ::testing::ValuesIn(cases()),
                         [](const ::testing::TestParamInfo<Case>& info) {
                           return ::testing::PrintToString(info.param);
                         });

}  // namespace
}  // namespace hsyn
