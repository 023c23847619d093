// The H-SYN command-line tool: reads a textual hierarchical DFG design,
// synthesizes it under a throughput constraint, and writes the RTL
// outputs (structural netlist, FSM controller, Graphviz of the input).
//
//   hsyn (--design FILE | --benchmark NAME) [--objective power|area]
//        [--mode hier|flat] [--laxity F | --period-ns T] [--netlist FILE]
//        [--fsm FILE] [--dot FILE] [--no-verify] [--seed N] [--threads N]
//        [--templates] [--verbose] [--trace-out FILE] [--move-log FILE]
//        [--metrics-out FILE]
//
// Portfolio search (src/synth/portfolio.h): --portfolio N explores N
// concurrent search strategies over the shared runtime and keeps the
// deterministic best-of; --strategies SPEC names them explicitly,
// --portfolio-rounds N adds learning rounds, and HSYN_PORTFOLIO=N is the
// environment spelling. Results are bit-identical at any thread count.
//
// Every flag also accepts the --flag=VALUE form. With --templates,
// fast/low-power/compact complex-module templates are generated for
// every non-top behavior (the Fig. 2 style library); without it,
// synthesis builds module implementations from scratch.
//
// Server mode (src/serve/, docs/PROTOCOL.md): `hsyn --serve-unix PATH`
// or `hsyn --serve PORT` runs a daemon that accepts synthesis jobs over
// a local socket and multiplexes up to --sessions of them over one
// shared runtime; `hsyn --connect ADDR` plus the normal design flags
// submits one job and renders the result bit-identically to a direct
// run. --job-time-ms / --job-cache-mb attach per-job budgets, --progress
// streams progress events to stderr, --ping / --shutdown talk to a
// running daemon.
//
// Observability (src/obs/): --trace-out writes a Chrome trace-event
// JSON of the run's spans (Perfetto-loadable; HSYN_TRACE=FILE does the
// same), --move-log records every attempted move to JSONL (or CSV when
// the path ends in .csv) and prints the per-class accept-rate table,
// --metrics-out writes the unified metrics registry snapshot. None of
// them change synthesis results. A SIGINT/SIGTERM cancels the in-flight
// run cooperatively and the exports are still flushed on the way out.
//
// Live telemetry (src/obs/telemetry.h): --telemetry-out FILE samples
// the runtime/cache/search state on a background thread (HSYN_TELEMETRY_MS,
// default 250 ms) and writes the ring as JSONL on exit; --metrics-listen
// PORT (serve mode) exposes the metrics registry as Prometheus text on
// GET /metrics; --connect plus --stats prints a one-shot daemon
// snapshot, --watch[=JOB] streams live per-job telemetry lines until
// interrupted (or until the watched job finishes). Sampling is strictly
// read-only: results stay bit-identical with telemetry on or off.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>

#include "benchmarks/benchmarks.h"
#include "dfg/dot.h"
#include "eval/engine.h"
#include "obs/ledger.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "rtl/controller.h"
#include "rtl/netlist.h"
#include "runtime/cancel.h"
#include "runtime/thread_pool.h"
#include "serve/client.h"
#include "serve/jobs.h"
#include "serve/server.h"
#include "synth/synthesizer.h"
#include "util/log.h"
#include "verilog/verilog.h"

namespace {

struct Args {
  std::string design_file;
  std::string benchmark;  ///< built-in benchmark name instead of --design
  hsyn::Objective objective = hsyn::Objective::Power;
  hsyn::Mode mode = hsyn::Mode::Hierarchical;
  double laxity = 2.2;
  std::optional<double> period_ns;
  std::string library_file;
  std::string trace_file;
  std::string netlist_file;
  std::string verilog_file;
  std::string fsm_file;
  std::string dot_file;
  bool verify = true;
  /// Re-verify all IR invariants after every accepted move (src/check/).
  bool check_moves = false;
  bool verify_rewrites = false;
  bool templates = false;
  bool auto_variants = false;
  bool verbose = false;
  std::uint64_t seed = 42;
  /// 0 = automatic (HSYN_THREADS env, else hardware_concurrency).
  /// 1 reproduces the serial engine exactly; any count yields
  /// bit-identical synthesis results (see DESIGN.md).
  int threads = 0;
  /// Evaluation-cache budget in MB. 0 = HSYN_EVAL_CACHE_MB env, else the
  /// built-in default. The cache only changes synthesis speed, never its
  /// results.
  int eval_cache_mb = 0;
  // Observability exports (empty = off).
  std::string trace_out;    ///< Chrome trace-event JSON (or HSYN_TRACE env)
  std::string move_log;     ///< move ledger JSONL (.csv for CSV)
  std::string metrics_out;  ///< metrics registry JSON snapshot
  /// --telemetry-out FILE: run the background sampler and dump its ring
  /// as JSONL on exit (direct and serve modes).
  std::string telemetry_out;
  /// --metrics-listen PORT (serve mode): Prometheus text on /metrics.
  int metrics_listen = 0;
  bool stats = false;             ///< --connect + --stats: one-shot snapshot
  bool watch = false;             ///< --connect + --watch[=JOB]: live stream
  std::uint64_t watch_job = 0;    ///< 0 = whole server
  // Server mode.
  int serve_port = 0;        ///< --serve PORT: daemon on loopback TCP
  std::string serve_unix;    ///< --serve-unix PATH: daemon on a unix socket
  int sessions = 4;          ///< --sessions: concurrent daemon jobs
  std::string connect;       ///< --connect ADDR: submit via a daemon
  bool ping = false;         ///< --connect + --ping: liveness probe
  bool shutdown = false;     ///< --connect + --shutdown: stop the daemon
  bool progress = false;     ///< stream progress events to stderr
  std::int64_t job_time_ms = 0;   ///< per-job time budget (0 = none)
  std::int64_t job_cache_mb = 0;  ///< per-job eval-cache budget (0 = none)
  /// --portfolio N (or HSYN_PORTFOLIO): N concurrent search strategies,
  /// deterministic best-of (synth/portfolio.h). 0 = single-seed engine.
  int portfolio = 0;
  int portfolio_rounds = 1;  ///< --portfolio-rounds: learning rounds
  std::string strategies;    ///< --strategies SPEC: explicit strategy list
  bool help = false;         ///< -h/--help: print usage and exit 0
};

/// Print the usage text to `out` (stderr on usage errors, stdout for
/// -h/--help).
void usage(std::FILE* out = stderr) {
  std::fprintf(out,
               "usage: hsyn (--design FILE | --benchmark NAME) [--objective power|area]\n"
               "            [--mode hier|flat] [--laxity F | --period-ns T]\n"
               "            [--library FILE] [--trace FILE]\n"
               "            [--netlist FILE] [--verilog FILE] [--fsm FILE] [--dot FILE]\n"
               "            [--no-verify] [--check-moves] [--verify-rewrites] [--templates] [--auto-variants] [--seed N] "
               "[--threads N] [--eval-cache-mb N] [--verbose]\n"
               "            [--trace-out FILE] [--move-log FILE] [--metrics-out FILE]\n"
               "            [--telemetry-out FILE]\n"
               "            [--progress] [--job-time-ms N] [--job-cache-mb N]\n"
               "            [--portfolio N] [--portfolio-rounds N] [--strategies SPEC]\n"
               "       hsyn (--serve PORT | --serve-unix PATH) [--sessions N]\n"
               "            [--metrics-listen PORT] [runtime flags]\n"
               "       hsyn --connect ADDR (design flags | --ping | --shutdown |\n"
               "            --stats | --watch[=JOB])\n"
               "(each flag also accepts the --flag=VALUE form)\n");
}

std::optional<Args> parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    // --flag=VALUE: split so both spellings hit the same handlers below.
    std::optional<std::string> inline_val;
    if (arg.rfind("--", 0) == 0) {
      const std::size_t eq = arg.find('=');
      if (eq != std::string::npos) {
        inline_val = arg.substr(eq + 1);
        arg.resize(eq);
      }
    }
    auto next = [&]() -> const char* {
      if (inline_val) return inline_val->c_str();
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "-h" || arg == "--help") {
      a.help = true;
      return a;
    } else if (arg == "--design") {
      const char* v = next();
      if (!v) return std::nullopt;
      a.design_file = v;
    } else if (arg == "--benchmark") {
      const char* v = next();
      if (!v) return std::nullopt;
      a.benchmark = v;
    } else if (arg == "--trace-out") {
      const char* v = next();
      if (!v) return std::nullopt;
      a.trace_out = v;
    } else if (arg == "--move-log") {
      const char* v = next();
      if (!v) return std::nullopt;
      a.move_log = v;
    } else if (arg == "--metrics-out") {
      const char* v = next();
      if (!v) return std::nullopt;
      a.metrics_out = v;
    } else if (arg == "--telemetry-out") {
      const char* v = next();
      if (!v) return std::nullopt;
      a.telemetry_out = v;
    } else if (arg == "--metrics-listen") {
      const char* v = next();
      if (!v) return std::nullopt;
      a.metrics_listen = std::atoi(v);
      if (a.metrics_listen <= 0 || a.metrics_listen > 65535) {
        return std::nullopt;
      }
    } else if (arg == "--stats") {
      a.stats = true;
    } else if (arg == "--watch") {
      // Bare --watch watches the whole server; only the --watch=N
      // spelling names a job (a bare flag never consumes the next arg).
      a.watch = true;
      if (inline_val) {
        a.watch_job = static_cast<std::uint64_t>(std::atoll(inline_val->c_str()));
      }
    } else if (arg == "--objective") {
      const char* v = next();
      if (!v) return std::nullopt;
      if (std::strcmp(v, "power") == 0) {
        a.objective = hsyn::Objective::Power;
      } else if (std::strcmp(v, "area") == 0) {
        a.objective = hsyn::Objective::Area;
      } else {
        return std::nullopt;
      }
    } else if (arg == "--mode") {
      const char* v = next();
      if (!v) return std::nullopt;
      if (std::strcmp(v, "hier") == 0) {
        a.mode = hsyn::Mode::Hierarchical;
      } else if (std::strcmp(v, "flat") == 0) {
        a.mode = hsyn::Mode::Flattened;
      } else {
        return std::nullopt;
      }
    } else if (arg == "--laxity") {
      const char* v = next();
      if (!v) return std::nullopt;
      a.laxity = std::atof(v);
    } else if (arg == "--period-ns") {
      const char* v = next();
      if (!v) return std::nullopt;
      a.period_ns = std::atof(v);
    } else if (arg == "--library") {
      const char* v = next();
      if (!v) return std::nullopt;
      a.library_file = v;
    } else if (arg == "--trace") {
      const char* v = next();
      if (!v) return std::nullopt;
      a.trace_file = v;
    } else if (arg == "--netlist") {
      const char* v = next();
      if (!v) return std::nullopt;
      a.netlist_file = v;
    } else if (arg == "--verilog") {
      const char* v = next();
      if (!v) return std::nullopt;
      a.verilog_file = v;
    } else if (arg == "--fsm") {
      const char* v = next();
      if (!v) return std::nullopt;
      a.fsm_file = v;
    } else if (arg == "--dot") {
      const char* v = next();
      if (!v) return std::nullopt;
      a.dot_file = v;
    } else if (arg == "--no-verify") {
      a.verify = false;
    } else if (arg == "--check-moves") {
      a.check_moves = true;
    } else if (arg == "--verify-rewrites") {
      a.verify_rewrites = true;
    } else if (arg == "--templates") {
      a.templates = true;
    } else if (arg == "--auto-variants") {
      a.auto_variants = true;
    } else if (arg == "--verbose") {
      a.verbose = true;
    } else if (arg == "--progress") {
      a.progress = true;
    } else if (arg == "--ping") {
      a.ping = true;
    } else if (arg == "--shutdown") {
      a.shutdown = true;
    } else if (arg == "--seed") {
      const char* v = next();
      if (!v) return std::nullopt;
      a.seed = static_cast<std::uint64_t>(std::atoll(v));
    } else if (arg == "--threads") {
      const char* v = next();
      if (!v) return std::nullopt;
      a.threads = std::atoi(v);
      if (a.threads < 0) return std::nullopt;
    } else if (arg == "--eval-cache-mb") {
      const char* v = next();
      if (!v) return std::nullopt;
      a.eval_cache_mb = std::atoi(v);
      if (a.eval_cache_mb <= 0) return std::nullopt;
    } else if (arg == "--serve") {
      const char* v = next();
      if (!v) return std::nullopt;
      a.serve_port = std::atoi(v);
      if (a.serve_port <= 0 || a.serve_port > 65535) return std::nullopt;
    } else if (arg == "--serve-unix") {
      const char* v = next();
      if (!v) return std::nullopt;
      a.serve_unix = v;
    } else if (arg == "--sessions") {
      const char* v = next();
      if (!v) return std::nullopt;
      a.sessions = std::atoi(v);
      if (a.sessions <= 0) return std::nullopt;
    } else if (arg == "--connect") {
      const char* v = next();
      if (!v) return std::nullopt;
      a.connect = v;
    } else if (arg == "--job-time-ms") {
      const char* v = next();
      if (!v) return std::nullopt;
      a.job_time_ms = std::atoll(v);
      if (a.job_time_ms <= 0) return std::nullopt;
    } else if (arg == "--job-cache-mb") {
      const char* v = next();
      if (!v) return std::nullopt;
      a.job_cache_mb = std::atoll(v);
      if (a.job_cache_mb <= 0) return std::nullopt;
    } else if (arg == "--portfolio") {
      const char* v = next();
      if (!v) return std::nullopt;
      a.portfolio = std::atoi(v);
      if (a.portfolio < 0) return std::nullopt;
    } else if (arg == "--portfolio-rounds") {
      const char* v = next();
      if (!v) return std::nullopt;
      a.portfolio_rounds = std::atoi(v);
      if (a.portfolio_rounds < 1) return std::nullopt;
    } else if (arg == "--strategies") {
      const char* v = next();
      if (!v) return std::nullopt;
      a.strategies = v;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return std::nullopt;
    }
  }
  // HSYN_PORTFOLIO=N turns any run into a portfolio run without touching
  // the command line (explicit --portfolio wins).
  if (a.portfolio == 0 && a.strategies.empty()) {
    if (const char* env = std::getenv("HSYN_PORTFOLIO")) {
      const int n = std::atoi(env);
      if (n > 0) a.portfolio = n;
    }
  }
  const bool serving = a.serve_port != 0 || !a.serve_unix.empty();
  if (serving && (a.serve_port != 0 && !a.serve_unix.empty())) {
    return std::nullopt;  // one listen address
  }
  if (serving && !a.connect.empty()) return std::nullopt;
  if ((a.ping || a.shutdown) && a.connect.empty()) return std::nullopt;
  // --stats/--watch interrogate a running daemon; --metrics-listen is
  // part of the daemon itself.
  if ((a.stats || a.watch) && a.connect.empty()) return std::nullopt;
  if (a.metrics_listen != 0 && !serving) return std::nullopt;
  const bool needs_design =
      !serving && !a.ping && !a.shutdown && !a.stats && !a.watch;
  if (needs_design && a.design_file.empty() == a.benchmark.empty()) {
    return std::nullopt;  // exactly one of --design / --benchmark
  }
  return a;
}

bool write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  out << content;
  return true;
}

bool read_file(const std::string& path, std::string* out) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot read %s\n", path.c_str());
    return false;
  }
  std::stringstream buf;
  buf << in.rdbuf();
  *out = buf.str();
  return true;
}

/// Progress events go to stderr so stdout stays bit-identical to a run
/// without --progress.
void print_progress(const hsyn::SynthProgress& ev) {
  using Stage = hsyn::SynthProgress::Stage;
  switch (ev.stage) {
    case Stage::Probe:
      std::fprintf(stderr, "progress: probe vdd=%.2f feasible-clocks=%d\n",
                   ev.vdd, ev.feasible_clocks);
      break;
    case Stage::Pass:
      std::fprintf(stderr,
                   "progress: vdd=%.2f clk=%.1f pass=%d moves=%d kept=%d "
                   "cost=%.6g\n",
                   ev.vdd, ev.clock_ns, ev.pass, ev.moves_applied,
                   ev.moves_kept, ev.cost);
      break;
    case Stage::OpPoint:
      std::fprintf(stderr,
                   "progress: op-point vdd=%.2f clk=%.1f cost=%.6g "
                   "area=%.1f power=%.4f\n",
                   ev.vdd, ev.clock_ns, ev.cost, ev.area, ev.power);
      break;
    case Stage::Strategy:
      std::fprintf(stderr,
                   "progress: strategy %d done cost=%.6g area=%.1f "
                   "power=%.4f moves=%d kept=%d\n",
                   ev.pass, ev.cost, ev.area, ev.power, ev.moves_applied,
                   ev.moves_kept);
      break;
  }
}

/// Configure the shared runtime from the CLI flags (direct and serve
/// modes; a --connect client leaves all of this to the daemon).
void setup_runtime(const Args& args) {
  using namespace hsyn;
  // Parallel runtime: --threads N, else HSYN_THREADS, else all cores.
  // Synthesis results are bit-identical for every thread count.
  runtime::set_threads(args.threads);
  if (args.eval_cache_mb > 0) {
    eval::EvalEngine::instance().set_capacity_mb(
        static_cast<std::size_t>(args.eval_cache_mb));
  }
  if (args.verbose) {
    std::printf("runtime: %d thread(s)\n", runtime::threads());
    std::printf("eval cache: %zu MB\n",
                eval::EvalEngine::instance().capacity_bytes() >> 20);
  }
}

/// Resolve --trace-out (or HSYN_TRACE) and switch on the requested
/// observability sinks. The span tracer costs one relaxed atomic load
/// per span when disabled, so it is only enabled when an export was
/// requested.
std::string setup_obs(const Args& args) {
  std::string trace_out = args.trace_out;
  if (trace_out.empty()) {
    if (const char* env = std::getenv("HSYN_TRACE")) trace_out = env;
  }
  if (!trace_out.empty()) hsyn::obs::Tracer::instance().set_enabled(true);
  if (!args.move_log.empty()) {
    hsyn::obs::MoveLedger::instance().set_enabled(true);
  }
  // The sampler only reads; serve mode starts it unconditionally (in
  // Server::run) because stats/watch/metrics-listen read live samples.
  if (!args.telemetry_out.empty()) {
    hsyn::obs::process_uptime_ms();  // anchor uptime at startup
    hsyn::obs::Telemetry::instance().start();
  }
  return trace_out;
}

/// Flush the trace/ledger/metrics exports (the tail of a direct run, a
/// cancelled run on its way out, and daemon shutdown all come through
/// here). Returns false when a file could not be written.
bool flush_obs(const Args& args, const std::string& trace_out) {
  using namespace hsyn;
  bool ok = true;
  if (!args.move_log.empty() && obs::MoveLedger::instance().enabled() &&
      !obs::MoveLedger::instance().write(args.move_log)) {
    std::fprintf(stderr, "cannot write %s\n", args.move_log.c_str());
    ok = false;
  }
  if (!trace_out.empty()) {
    if (!obs::Tracer::instance().write_chrome_json(trace_out)) {
      std::fprintf(stderr, "cannot write %s\n", trace_out.c_str());
      ok = false;
    } else if (args.verbose) {
      std::printf("trace: %zu span(s) written to %s\n",
                  obs::Tracer::instance().events().size(), trace_out.c_str());
    }
  }
  // Dropped-record accounting: surface any span/ledger loss both in the
  // metrics snapshot (gauges) and as a warning, so a truncated export is
  // never mistaken for a complete one. Ring overflow loses trace-file
  // events only: the per-name span totals (the "spans" source) count
  // every span.
  const std::uint64_t spans_dropped = obs::Tracer::instance().dropped();
  const std::uint64_t ledger_dropped = obs::MoveLedger::instance().dropped();
  obs::Registry::instance().gauge("obs.spans_dropped").set(
      static_cast<double>(spans_dropped));
  obs::Registry::instance().gauge("obs.ledger_dropped").set(
      static_cast<double>(ledger_dropped));
  if (!args.metrics_out.empty()) {
    // Runtime counters and span totals reach the snapshot as registry
    // sources ("runtime", "spans").
    if (!obs::Registry::instance().write_json(args.metrics_out)) {
      std::fprintf(stderr, "cannot write %s\n", args.metrics_out.c_str());
      ok = false;
    }
  }
  if (spans_dropped != 0) {
    std::fprintf(stderr,
                 "hsyn: warning: the span ring overflowed: the --trace-out "
                 "file is missing %llu span(s); the per-name span totals in "
                 "--metrics-out are complete\n",
                 static_cast<unsigned long long>(spans_dropped));
  }
  if (ledger_dropped != 0) {
    std::fprintf(stderr,
                 "hsyn: warning: the move ledger overflowed (%llu move "
                 "record(s) dropped from --move-log)\n",
                 static_cast<unsigned long long>(ledger_dropped));
  }
  // The telemetry ring outlives the sampler thread: stop it (idempotent;
  // serve mode already did) and dump whatever was recorded.
  if (!args.telemetry_out.empty()) {
    obs::Telemetry::instance().stop();
    if (!obs::Telemetry::instance().write_jsonl(args.telemetry_out)) {
      std::fprintf(stderr, "cannot write %s\n", args.telemetry_out.c_str());
      ok = false;
    }
  }
  return ok;
}

/// Build the JobSpec both the direct path and the --connect client
/// submit; file contents are read here, on the client side.
bool spec_from_args(const Args& args, hsyn::serve::JobSpec* spec) {
  spec->benchmark = args.benchmark;
  if (!args.design_file.empty()) {
    if (!read_file(args.design_file, &spec->design_text)) return false;
    spec->design_name = args.design_file;
  }
  if (!args.library_file.empty() &&
      !read_file(args.library_file, &spec->library_text)) {
    return false;
  }
  if (!args.trace_file.empty() &&
      !read_file(args.trace_file, &spec->trace_text)) {
    return false;
  }
  spec->objective = args.objective;
  spec->mode = args.mode;
  spec->laxity = args.laxity;
  spec->period_ns = args.period_ns.value_or(0);
  spec->seed = args.seed;
  spec->templates = args.templates;
  spec->auto_variants = args.auto_variants;
  spec->verify = args.verify;
  spec->check_moves = args.check_moves;
  spec->verify_rewrites = args.verify_rewrites;
  spec->time_budget_ms = args.job_time_ms;
  spec->cache_budget_mb = args.job_cache_mb;
  spec->want_progress = args.progress;
  spec->want_ledger = !args.move_log.empty();
  spec->portfolio = args.portfolio;
  spec->portfolio_rounds = args.portfolio_rounds;
  spec->strategies = args.strategies;
  return true;
}

/// Render a finished job the way every mode does: the report verbatim
/// on stdout, the ledger table after it, errors on stderr. Returns the
/// process exit code (130 = cancelled, mirroring 128+SIGINT).
int render_outcome(const Args& args, const hsyn::serve::JobOutcome& outcome) {
  std::fputs(outcome.report.c_str(), stdout);
  if (outcome.ok && !args.move_log.empty()) {
    std::printf("\nmove ledger (%llu attempts):\n%s",
                static_cast<unsigned long long>(outcome.ledger_attempts),
                outcome.ledger_table.c_str());
  }
  if (outcome.cancelled) {
    std::fprintf(stderr, "cancelled: %s\n", outcome.error.c_str());
    return 130;
  }
  if (!outcome.ok) {
    std::fprintf(stderr, "%s\n", outcome.error.c_str());
    return 1;
  }
  if (args.verify && !outcome.verify_ok) return 1;
  return 0;
}

/// The classic one-shot CLI, now the same pipeline the daemon runs.
int run_direct(const Args& args) {
  using namespace hsyn;
  setup_runtime(args);
  const std::string trace_out = setup_obs(args);

  serve::JobSpec spec;
  if (!spec_from_args(args, &spec)) return 1;

  serve::JobHooks hooks;
  hooks.cancel = std::make_shared<runtime::CancelToken>();
  hooks.cancel->link_to_signals();
  runtime::install_signal_handlers();
  if (args.progress) hooks.progress = print_progress;
  // A per-job cache budget needs a nonzero job id for attribution; the
  // ledger and report are unaffected by the id itself.
  if (spec.cache_budget_mb > 0) hooks.job_id = 1;

  const serve::JobOutcome outcome = serve::run_job(spec, hooks);

  const int rc = render_outcome(args, outcome);
  if (!flush_obs(args, trace_out) && rc == 0) return 1;
  if (rc != 0) return rc;

  // File outputs (direct mode only; a --connect client has no Datapath).
  const SynthResult& r = *outcome.result;
  const Library& lib = *outcome.lib;
  if (!args.netlist_file.empty() &&
      !write_file(args.netlist_file, netlist_to_text(r.dp, lib))) {
    return 1;
  }
  if (!args.verilog_file.empty() &&
      !write_file(args.verilog_file, to_verilog(r.dp, lib, r.pt))) {
    return 1;
  }
  if (!args.fsm_file.empty()) {
    const Controller fsm = build_controller(r.dp, lib, r.pt);
    if (!write_file(args.fsm_file, controller_to_text(fsm))) return 1;
  }
  if (!args.dot_file.empty()) {
    const Design& design = outcome.bench ? outcome.bench->design
                                         : *outcome.design;
    if (!write_file(args.dot_file,
                    dfg_to_dot(design.behavior(design.top_name())))) {
      return 1;
    }
  }
  return 0;
}

/// `hsyn --serve[-unix]`: run the daemon until a signal or a client
/// shutdown request, then flush the observability exports.
int run_serve(const Args& args) {
  using namespace hsyn;
  setup_runtime(args);
  const std::string trace_out = setup_obs(args);
  runtime::install_signal_handlers();

  serve::ServerOptions opts;
  opts.unix_path = args.serve_unix;
  opts.tcp_port = args.serve_port;
  opts.sessions = args.sessions;
  opts.metrics_port = args.metrics_listen;
  serve::Server server(std::move(opts));
  std::string err;
  if (!server.start(&err)) {
    std::fprintf(stderr, "hsyn: %s\n", err.c_str());
    return 1;
  }
  if (!args.serve_unix.empty()) {
    std::fprintf(stderr, "hsyn: serving on %s (%d session(s), %d thread(s))\n",
                 args.serve_unix.c_str(), args.sessions, runtime::threads());
  } else {
    std::fprintf(stderr,
                 "hsyn: serving on 127.0.0.1:%d (%d session(s), %d thread(s))\n",
                 args.serve_port, args.sessions, runtime::threads());
  }
  if (args.metrics_listen > 0) {
    std::fprintf(stderr, "hsyn: metrics on http://127.0.0.1:%d/metrics\n",
                 args.metrics_listen);
  }
  const int rc = server.run();
  std::fprintf(stderr, "hsyn: daemon stopped\n");
  if (!flush_obs(args, trace_out) && rc == 0) return 1;
  return rc;
}

/// `hsyn --connect`: the CLI as a thin client of a running daemon.
int run_connect(const Args& args) {
  using namespace hsyn;
  // Everything that shapes the daemon's process (threads, caches) or
  // needs the Datapath locally is a direct-mode concern.
  if (!args.netlist_file.empty() || !args.verilog_file.empty() ||
      !args.fsm_file.empty() || !args.dot_file.empty()) {
    std::fprintf(stderr,
                 "hsyn: file outputs (--netlist/--verilog/--fsm/--dot) "
                 "require a direct run, not --connect\n");
    return 2;
  }
  if (!args.trace_out.empty() || !args.metrics_out.empty() ||
      !args.telemetry_out.empty()) {
    std::fprintf(stderr,
                 "hsyn: --trace-out/--metrics-out/--telemetry-out describe "
                 "the daemon process; pass them to --serve instead of "
                 "--connect\n");
    return 2;
  }
  if (args.threads != 0 || args.eval_cache_mb != 0) {
    std::fprintf(stderr,
                 "hsyn: --threads/--eval-cache-mb are fixed by the daemon; "
                 "pass them to --serve\n");
    return 2;
  }

  serve::Client client;
  std::string err;
  if (!client.connect(args.connect, &err)) {
    std::fprintf(stderr, "hsyn: %s\n", err.c_str());
    return 1;
  }
  if (args.ping) {
    if (!client.ping(&err)) {
      std::fprintf(stderr, "hsyn: %s\n", err.c_str());
      return 1;
    }
    std::printf("pong\n");
    return 0;
  }
  if (args.shutdown) {
    if (!client.shutdown_server(&err)) {
      std::fprintf(stderr, "hsyn: %s\n", err.c_str());
      return 1;
    }
    return 0;
  }
  if (args.stats) {
    // The raw frame goes to stdout verbatim: jq-friendly, and immune to
    // any lossiness in the client-side decode.
    std::string raw;
    if (!client.stats(nullptr, nullptr, &raw, &err)) {
      std::fprintf(stderr, "hsyn: %s\n", err.c_str());
      return 1;
    }
    std::printf("%s\n", raw.c_str());
    return 0;
  }
  if (args.watch) {
    const std::uint64_t want = args.watch_job;
    const bool ok = client.watch(
        want,
        [&](const serve::TelemetryFrame& f) {
          bool keep = true;
          if (f.jobs.empty()) {
            std::printf("t=%llums jobs=0 tasks=%llu cache=%llu/%llu\n",
                        static_cast<unsigned long long>(f.uptime_ms),
                        static_cast<unsigned long long>(f.tasks),
                        static_cast<unsigned long long>(f.cache_hits),
                        static_cast<unsigned long long>(f.cache_misses));
          }
          for (const serve::JobTelemetry& j : f.jobs) {
            std::printf(
                "t=%llums job=%llu state=%s pass=%d applied=%llu "
                "accepted=%llu refuted=%llu best=%.6g cache=%llu/%llu\n",
                static_cast<unsigned long long>(f.uptime_ms),
                static_cast<unsigned long long>(j.job), j.state.c_str(),
                j.pass, static_cast<unsigned long long>(j.moves_applied),
                static_cast<unsigned long long>(j.moves_accepted),
                static_cast<unsigned long long>(j.rewrites_refuted),
                j.best_cost,
                static_cast<unsigned long long>(j.cache_hits),
                static_cast<unsigned long long>(j.cache_misses));
            // Watching one job ends when that job reaches a final state;
            // a whole-server watch streams until interrupted.
            if (want != 0 && j.job == want && j.state != "queued" &&
                j.state != "running") {
              keep = false;
            }
          }
          std::fflush(stdout);
          return keep;
        },
        &err);
    if (!ok) {
      std::fprintf(stderr, "hsyn: %s\n", err.c_str());
      return 1;
    }
    return 0;
  }

  serve::JobSpec spec;
  if (!spec_from_args(args, &spec)) return 1;
  serve::JobOutcome outcome;
  if (!client.run_job(spec, args.progress ? print_progress : nullptr,
                      &outcome, &err)) {
    std::fprintf(stderr, "hsyn: %s\n", err.c_str());
    return 1;
  }
  const int rc = render_outcome(args, outcome);
  // The move log the daemon recorded for this job, written client-side.
  // (JSONL only: group ids come from the daemon's global counter.)
  if (rc == 0 && !args.move_log.empty() &&
      !write_file(args.move_log, outcome.ledger_jsonl)) {
    return 1;
  }
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<Args> args = parse(argc, argv);
  if (!args) {
    usage();
    return 2;
  }
  if (args->help) {
    usage(stdout);
    return 0;
  }
  if (args->verbose) hsyn::set_log_level(hsyn::LogLevel::Info);
  try {
    if (args->serve_port != 0 || !args->serve_unix.empty()) {
      return run_serve(*args);
    }
    if (!args->connect.empty()) return run_connect(*args);
    return run_direct(*args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
