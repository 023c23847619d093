// perfbench: end-to-end synthesis benchmark of the hsyn library.
//
//   perfbench --workload hier-power|flat-area|serve-sweep --seed N
//             --seconds S --trace 0|1
//             [--threads N] [--designs a,b,...] [--passes N]
//             [--fingerprints FILE] [--work-dir DIR]
//             [--commit ID] [--build-type NAME]
//
// Workloads (all closed loops: each caller waits for a result before it
// sends the next job):
//   hier-power   the 8 bundled designs, hierarchical, power objective,
//                complex templates, L.F. 2.2, RTL verification, runtime
//                at nproc threads; eval caches cleared before each job.
//   flat-area    six of those designs (not dct2d, avenhaus_cascade)
//                flattened, area objective, no templates, 1 thread; eval
//                caches cleared before each job.
//   serve-sweep  an in-process daemon (nproc sessions, nproc runtime
//                threads) and nproc clients, each submitting a seeded
//                shuffle of {test1, lat, hier_paulin} x {area, power}
//                x L.F. {1.6, 2.2, 3.2} with templates and verification.
//                Caches are shared across the jobs of one round and
//                cleared between rounds.
//
// A pass runs every job of the workload once (one round of the sweep).
// A run makes at least two passes and more while another one still fits
// in --seconds. Set-up is repeated and its median reported. The seed
// sets every job's SynthOptions.seed and the sweep's submission order.
//
// With --trace 0 the last stdout line is one JSON object with the
// end-to-end metrics; with --trace 1 the run makes one untraced and one
// traced pass and reports the per-layer metrics, measured from outside
// through the benchmark's own spans (written as Chrome trace-event JSON
// into --work-dir) and the counters the library exports. The exit code
// is non-zero when any job fails a check.
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "benchmarks/benchmarks.h"
#include "check/check.h"
#include "eval/engine.h"
#include "obs/ledger.h"
#include "obs/metrics.h"
#include "power/estimator.h"
#include "power/rtlsim.h"
#include "power/trace.h"
#include "rtl/cost.h"
#include "rtl/fingerprint.h"
#include "runtime/thread_pool.h"
#include "sched/scheduler.h"
#include "serve/client.h"
#include "serve/jobs.h"
#include "serve/server.h"
#include "spans.h"
#include "synth/synthesizer.h"

namespace {

using namespace hsyn;
using perfbench::Span;
using perfbench::SpanLog;
using Clock = std::chrono::steady_clock;

constexpr int kSetupReps = 7;
constexpr int kVerifySamples = 32;  // as serve::run_job verifies
/// Passes stop early when the run would otherwise outlive this (the
/// benchmark must finish well within three minutes).
constexpr double kHardStopSeconds = 120;

const char* const kAllDesigns[] = {"test1", "hier_paulin", "dct",  "iir",
                                   "lat",   "avenhaus_cascade", "fir16",
                                   "dct2d"};
/// flat-area leaves out the two designs whose flattened job runs for
/// seconds on one thread (dct2d ~5 s, avenhaus_cascade ~2 s): such a job
/// averages over the speed spells of a shared host instead of fitting
/// between them, and a run has room for only two or three of them, so
/// their best time did not settle (ten-seed spread ~0.25 of the median).
const char* const kFlatDesigns[] = {"test1", "hier_paulin", "dct",
                                    "iir",   "lat",         "fir16"};

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Nearest-rank percentile: always one of the samples.
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  return v[static_cast<std::size_t>(std::max(rank, 1.0)) - 1];
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double s = 0;
  for (double x : v) s += std::log(x);
  return std::exp(s / static_cast<double>(v.size()));
}

std::string strip_timing(const std::string& report) {
  std::istringstream in(report);
  std::string out, line;
  while (std::getline(in, line)) {
    if (line.find("synthesis time") != std::string::npos) continue;
    out += line;
    out += '\n';
  }
  return out;
}

// ---- options and workloads ------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  int threads = 0;  ///< > 0 overrides the workload's thread count
  std::vector<std::string> designs;  ///< non-empty restricts the design set
  int passes = 0;                    ///< > 0 runs exactly this many passes
  std::string fingerprints;          ///< write per-job results here
  std::string work_dir = ".";
  std::string commit = "unknown";
  std::string build_type = "unknown";
};

bool parse_args(int argc, char** argv, Options* o) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    if (a == "--workload") {
      o->workload = v;
    } else if (a == "--seed") {
      o->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      o->seconds = std::atof(v.c_str());
    } else if (a == "--trace") {
      o->trace = v == "1";
    } else if (a == "--threads") {
      o->threads = std::atoi(v.c_str());
    } else if (a == "--designs") {
      std::stringstream ss(v);
      for (std::string d; std::getline(ss, d, ',');) o->designs.push_back(d);
    } else if (a == "--passes") {
      o->passes = std::atoi(v.c_str());
    } else if (a == "--fingerprints") {
      o->fingerprints = v;
    } else if (a == "--work-dir") {
      o->work_dir = v;
    } else if (a == "--commit") {
      o->commit = v;
    } else if (a == "--build-type") {
      o->build_type = v;
    } else {
      return false;
    }
  }
  return !o->workload.empty();
}

struct Workload {
  bool serve = false;
  int threads = 1;
  /// At least two passes, so that every timing is a best of two.
  int min_passes = 2;
  std::vector<std::string> designs;
  std::vector<serve::JobSpec> jobs;  ///< one pass, in submission order
};

bool make_workload(const Options& o, Workload* w) {
  const int nproc =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  serve::JobSpec base;
  base.seed = o.seed;
  base.verify = true;
  std::vector<Objective> objectives;
  std::vector<double> laxities = {2.2};
  if (o.workload == "hier-power") {
    w->designs.assign(std::begin(kAllDesigns), std::end(kAllDesigns));
    base.templates = true;
    w->threads = nproc;
    objectives = {Objective::Power};
  } else if (o.workload == "flat-area") {
    w->designs.assign(std::begin(kFlatDesigns), std::end(kFlatDesigns));
    base.mode = Mode::Flattened;
    w->threads = 1;
    objectives = {Objective::Area};
  } else if (o.workload == "serve-sweep") {
    w->serve = true;
    w->designs = {"test1", "lat", "hier_paulin"};
    base.templates = true;
    w->threads = nproc;
    objectives = {Objective::Area, Objective::Power};
    laxities = {1.6, 2.2, 3.2};
  } else {
    return false;
  }
  if (!o.designs.empty()) w->designs = o.designs;
  if (o.threads > 0) w->threads = o.threads;
  for (const std::string& d : w->designs) {
    for (Objective obj : objectives) {
      for (double lf : laxities) {
        serve::JobSpec s = base;
        s.benchmark = d;
        s.objective = obj;
        s.laxity = lf;
        w->jobs.push_back(s);
      }
    }
  }
  return true;
}

std::string job_label(const serve::JobSpec& s) {
  char buf[128];
  std::snprintf(buf, sizeof buf, "%s/%s/%s/lf%.1f", s.benchmark.c_str(),
                mode_name(s.mode),
                s.objective == Objective::Power ? "power" : "area", s.laxity);
  return buf;
}

// ---- counters the library exports ------------------------------------------

using Counters = std::map<std::string, std::uint64_t>;

/// Every polled source ("source.counter") plus the instruments the
/// per-layer metrics read.
Counters snapshot_counters() {
  obs::Registry& reg = obs::Registry::instance();
  Counters c;
  for (const auto& [src, m] : reg.poll_sources()) {
    for (const auto& [k, v] : m) c[src + "." + k] = v;
  }
  c["sched.makespan.count"] = reg.histogram("sched.makespan").count();
  for (const char* n :
       {"replay.samples", "replay.columns_evaluated", "replay.programs_compiled"}) {
    c[n] = reg.counter(n).value();
  }
  return c;
}

/// acc += after - before, over monotonic counters (gauges that fell
/// contribute nothing).
void add_delta(Counters& acc, const Counters& before, const Counters& after) {
  for (const auto& [k, v] : after) {
    const auto it = before.find(k);
    const std::uint64_t b = it == before.end() ? 0 : it->second;
    if (v > b) acc[k] += v - b;
  }
}

std::uint64_t get(const Counters& c, const std::string& k) {
  const auto it = c.find(k);
  return it == c.end() ? 0 : it->second;
}

// ---- one run's state ---------------------------------------------------------

struct JobRecord {
  std::size_t spec = 0;
  int pass = 0;
  double latency_s = 0;  ///< as the caller saw it
  double power = 0;
  double area = 0;
};

/// What the traced pass measures, layer by layer.
struct Layers {
  Counters delta;  ///< counter deltas over the jobs' measured parts
  double synth_s = 0;
  std::map<std::string, double> synth_by_design;
  double verify_s = 0;
  double lint_s = 0;
  double sched_us = 0, copy_us = 0, area_us = 0, energy_us = 0;
  std::uint64_t moves_applied = 0, moves_kept = 0, passes = 0;
  std::uint64_t candidates = 0;
  std::vector<double> waits;
  double untraced_s = 0, traced_s = 0;
};

struct Run {
  Options opt;
  Workload wl;
  SpanLog log;
  std::vector<JobRecord> jobs;  ///< every job of every measured pass
  std::vector<double> pass_s;
  std::vector<double> setup_s;
  std::vector<double> make_s;
  /// Peak RSS at the end of the first pass. Later passes add a little
  /// heap, and how many passes fit in --seconds depends on the machine.
  double peak_rss_mb = 0;
  std::uint64_t attempted = 0;
  std::vector<std::string> failures;
  /// Per distinct job: structure fingerprint and (serve) stripped report
  /// of its first completion; later completions must match.
  std::map<std::size_t, std::uint64_t> fingerprint;
  std::map<std::size_t, std::string> report;
  Layers layers;
  std::mutex mu;

  void fail(const std::string& what) {
    std::lock_guard<std::mutex> lock(mu);
    failures.push_back(what);
  }
};

void check_fingerprint(Run& run, std::size_t spec, std::uint64_t fp) {
  std::lock_guard<std::mutex> lock(run.mu);
  const auto [it, fresh] = run.fingerprint.emplace(spec, fp);
  if (!fresh && it->second != fp) {
    run.failures.push_back(job_label(run.wl.jobs[spec]) +
                           ": structure fingerprint differs between passes");
  }
}

/// Lint a result; any error fails the job.
void lint_result(Run& run, const serve::JobSpec& spec, const SynthResult& r,
                 const Library& lib, const Design& design) {
  Span s(run.log, "lint");
  const auto t0 = Clock::now();
  const lint::Report rep =
      lint::lint_datapath(r.dp, lib, r.pt, r.deadline_cycles,
                          spec.mode == Mode::Hierarchical ? &design : nullptr);
  run.layers.lint_s += since(t0);
  if (rep.errors() > 0) {
    run.fail(job_label(spec) + ": lint: " + rep.to_text());
  }
}

/// Traced-pass probes: each layer called directly on a finished result.
/// Area and energy run on cleared eval caches (uncached cost).
void probe_result(Run& run, const serve::JobSpec& spec, const SynthResult& r,
                  const Library& lib) {
  Layers& L = run.layers;
  eval::EvalEngine& eng = eval::EvalEngine::instance();
  {
    Span s(run.log, "probe.copy");
    const auto t0 = Clock::now();
    const Datapath copy(r.dp);
    L.copy_us += since(t0) * 1e6;
    if (structure_fingerprint(copy) != structure_fingerprint(r.dp)) {
      run.fail(job_label(spec) + ": datapath copy changed its fingerprint");
    }
  }
  {
    Datapath dp(r.dp);
    invalidate_schedules(dp);
    Span s(run.log, "probe.sched");
    const auto t0 = Clock::now();
    const SchedResult sr = schedule_datapath(dp, lib, r.pt, r.deadline_cycles);
    L.sched_us += since(t0) * 1e6;
    if (!sr.ok) run.fail(job_label(spec) + ": reschedule failed: " + sr.reason);
  }
  {
    eng.clear();
    Span s(run.log, "probe.area");
    const auto t0 = Clock::now();
    const double area = area_of(r.dp, lib).total();
    L.area_us += since(t0) * 1e6;
    if (std::abs(area - r.area) > 1e-6 * std::max(1.0, r.area)) {
      run.fail(job_label(spec) + ": recomputed area differs from the result");
    }
  }
  {
    const Trace tr = make_trace(r.dp.behaviors[0].dfg->num_inputs(),
                                SynthOptions{}.trace_samples, spec.seed);
    eng.clear();
    Span s(run.log, "probe.energy");
    const auto t0 = Clock::now();
    (void)energy_of(r.dp, 0, tr, lib, r.pt);
    L.energy_us += since(t0) * 1e6;
  }
}

void add_stats(Layers& L, const ImproveStats& st) {
  L.moves_applied += static_cast<std::uint64_t>(st.moves_applied);
  L.moves_kept += static_cast<std::uint64_t>(st.moves_kept);
  L.passes += static_cast<std::uint64_t>(st.passes);
}

std::uint64_t ledger_candidates() {
  obs::MoveLedger& led = obs::MoveLedger::instance();
  const std::uint64_t n = led.merged().size() + led.dropped();
  led.reset();
  return n;
}

// ---- set-up and the solo workloads (hier-power, flat-area) ---------------------

struct BuiltDesign {
  std::unique_ptr<Benchmark> bench;
  double period_ns = 0;
};

/// The library and the workload's benchmarks, built once per set-up.
struct DesignSet {
  std::unique_ptr<Library> lib;
  std::map<std::string, BuiltDesign> designs;
};

/// Library, benchmarks (with their complex templates) and the pool.
void build_designs(Run& run, DesignSet* set) {
  DesignSet fresh;
  fresh.lib = std::make_unique<Library>(default_library());
  double make_s = 0;
  for (const std::string& d : run.wl.designs) {
    Span m(run.log, "make_benchmark");
    const auto m0 = Clock::now();
    BuiltDesign sd;
    sd.bench = std::make_unique<Benchmark>(make_benchmark(d, *fresh.lib));
    sd.period_ns = min_sample_period_ns(sd.bench->design, *fresh.lib);
    make_s += since(m0);
    fresh.designs.emplace(d, std::move(sd));
  }
  runtime::set_threads(run.wl.threads);
  (void)runtime::pool();
  *set = std::move(fresh);
  run.make_s.push_back(make_s);
}

/// The calling thread's CPU mask, and pinning to one CPU of it. On a
/// shared host each CPU's speed changes with what its neighbours run, and
/// a lone busy thread stays on its CPU; so a single-threaded pass is
/// pinned to the next allowed CPU, and each job's best time is a best
/// over CPUs as well as over time.
class CpuRotation {
 public:
  CpuRotation() {
    CPU_ZERO(&all_);
    if (sched_getaffinity(0, sizeof all_, &all_) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &all_)) cpus_.push_back(c);
    }
  }
  ~CpuRotation() { restore(); }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void pin(int pass) {
    if (cpus_.size() < 2) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[static_cast<std::size_t>(pass) % cpus_.size()], &one);
    pinned_ = sched_setaffinity(0, sizeof one, &one) == 0;
  }
  void restore() {
    if (pinned_) sched_setaffinity(0, sizeof all_, &all_);
    pinned_ = false;
  }

 private:
  cpu_set_t all_;
  std::vector<int> cpus_;
  bool pinned_ = false;
};

/// One pass over the workload's jobs; returns the summed job time.
double solo_pass(Run& run, DesignSet& set, int pass, bool traced) {
  Layers& L = run.layers;
  eval::EvalEngine& eng = eval::EvalEngine::instance();
  double pass_s = 0;
  for (std::size_t i = 0; i < run.wl.jobs.size(); ++i) {
    const serve::JobSpec& spec = run.wl.jobs[i];
    const BuiltDesign& sd = set.designs.at(spec.benchmark);
    const Design& design = sd.bench->design;
    const ComplexLibrary* clib = spec.templates ? &sd.bench->clib : nullptr;
    SynthOptions so;
    so.seed = spec.seed;
    Span job(run.log, "job", i + 1);
    ++run.attempted;
    eng.clear();  // a one-shot CLI user starts cold
    Counters before;
    if (traced) before = snapshot_counters();

    const auto t0 = Clock::now();
    SynthResult r;
    {
      Span s(run.log, "synthesize");
      r = synthesize(design, *set.lib, clib, spec.laxity * sd.period_ns,
                     spec.objective, spec.mode, so);
    }
    const double synth_s = since(t0);
    if (!r.ok) {
      run.fail(job_label(spec) + ": synthesis failed: " + r.fail_reason);
      continue;
    }
    RtlSimResult sim;
    double verify_s = 0;
    {
      Span s(run.log, "verify");
      const auto v0 = Clock::now();
      const Trace vt = make_trace(r.dp.behaviors[0].dfg->num_inputs(),
                                  kVerifySamples, spec.seed + 1);
      sim = simulate_rtl(r.dp, 0, vt, *set.lib, r.pt);
      verify_s = since(v0);
    }
    const double latency = since(t0);
    pass_s += latency;
    if (!sim.ok) {
      run.fail(job_label(spec) + ": RTL verification: " +
               (sim.violations.empty() ? "failed" : sim.violations.front()));
    }
    if (traced) {
      add_delta(L.delta, before, snapshot_counters());
      L.candidates += ledger_candidates();
      L.synth_s += synth_s;
      L.synth_by_design[spec.benchmark] += synth_s;
      L.verify_s += verify_s;
      add_stats(L, r.stats);
    }
    run.jobs.push_back({i, pass, latency, r.power, r.area});
    check_fingerprint(run, i, structure_fingerprint(r.dp));
    lint_result(run, spec, r, *set.lib, design);
    if (traced) probe_result(run, spec, r, *set.lib);
  }
  return pass_s;
}

// ---- serve-sweep -----------------------------------------------------------------

/// An in-process daemon on a unix socket plus its client connections.
class ServeRig {
 public:
  ServeRig() = default;
  ~ServeRig() { stop(); }
  ServeRig(const ServeRig&) = delete;
  ServeRig& operator=(const ServeRig&) = delete;

  bool start(const std::string& path, int sessions, int clients,
             std::string* err) {
    server_ = std::make_unique<serve::Server>(
        serve::ServerOptions{path, 0, sessions, 0});
    if (!server_->start(err)) {
      server_.reset();
      return false;
    }
    thread_ = std::thread([this] { server_->run(); });
    for (int c = 0; c < clients; ++c) {
      auto cl = std::make_unique<serve::Client>();
      if (!cl->connect(path, err) || !cl->ping(err)) return false;
      clients_.push_back(std::move(cl));
    }
    return true;
  }

  void stop() {
    if (!thread_.joinable()) return;
    std::string err;
    if (clients_.empty() || !clients_[0]->shutdown_server(&err)) {
      server_->request_shutdown();
    }
    thread_.join();
    clients_.clear();
    server_.reset();
  }

  serve::Client& client(int c) { return *clients_[static_cast<std::size_t>(c)]; }
  int clients() const { return static_cast<int>(clients_.size()); }

 private:
  std::unique_ptr<serve::Server> server_;
  std::vector<std::unique_ptr<serve::Client>> clients_;
  std::thread thread_;
};

/// Everything before the first job can be sent: the library, the
/// benchmarks with their complex templates, the pool and (serve-sweep)
/// the daemon with its client connections.
bool setup(Run& run, DesignSet* set, ServeRig* rig, int rep) {
  rig->stop();
  Span s(run.log, "setup");
  const auto t0 = Clock::now();
  build_designs(run, set);
  if (run.wl.serve) {
    // A relative path keeps the socket inside the work directory and
    // short enough for sun_path.
    const std::string path = run.opt.work_dir + "/serve-" +
                             std::to_string(::getpid()) + "-" +
                             std::to_string(rep) + ".sock";
    std::string err;
    if (!rig->start(path, run.wl.threads, run.wl.threads, &err)) {
      run.fail("daemon start: " + err);
      return false;
    }
  }
  run.setup_s.push_back(since(t0));
  return true;
}

/// Submission order of one client in one round.
std::vector<std::size_t> client_order(const Run& run, int round, int c) {
  std::vector<std::size_t> order(run.wl.jobs.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::mt19937_64 rng(run.opt.seed * 1000003u +
                      static_cast<std::uint64_t>(round) * 1009u +
                      static_cast<std::uint64_t>(c));
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng() % i]);
  }
  return order;
}

/// One round: every client submits the whole sweep in its own order.
/// Returns the round's wall time.
double serve_round(Run& run, ServeRig& rig, int round, bool traced) {
  eval::EvalEngine::instance().clear();
  const int parent = SpanLog::current();
  Counters before;
  if (traced) before = snapshot_counters();
  std::uint64_t next_job = static_cast<std::uint64_t>(round) * 100000 + 1;
  const auto t0 = Clock::now();
  std::vector<std::thread> threads;
  for (int c = 0; c < rig.clients(); ++c) {
    threads.emplace_back([&run, &rig, &next_job, round, c, parent, traced] {
      for (const std::size_t i : client_order(run, round, c)) {
        const serve::JobSpec& spec = run.wl.jobs[i];
        std::uint64_t id = 0;
        {
          std::lock_guard<std::mutex> lock(run.mu);
          id = next_job++;
          ++run.attempted;
        }
        Span s(run.log, "job", id, parent);
        serve::JobOutcome out;
        std::string err;
        const auto j0 = Clock::now();
        const bool sent = rig.client(c).run_job(spec, nullptr, &out, &err);
        const double latency = since(j0);
        if (!sent || !out.ok || !out.verify_ok) {
          run.fail(job_label(spec) + ": " +
                   (!sent ? err : !out.ok ? out.error : "RTL verification failed"));
          continue;
        }
        const std::string rep = strip_timing(out.report);
        std::lock_guard<std::mutex> lock(run.mu);
        run.jobs.push_back({i, round, latency, out.power, out.area});
        const auto [it, fresh] = run.report.emplace(i, rep);
        if (!fresh && it->second != rep) {
          run.failures.push_back(job_label(spec) +
                                 ": resubmission returned a different report");
        }
        if (traced) {
          run.layers.synth_s += out.synth_seconds;
          run.layers.synth_by_design[spec.benchmark] += out.synth_seconds;
          run.layers.waits.push_back(latency - out.synth_seconds);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const double wall = since(t0);
  if (traced) {
    add_delta(run.layers.delta, before, snapshot_counters());
    run.layers.candidates += ledger_candidates();
  }
  return wall;
}

/// After the rounds: run every distinct job once more in-process, on the
/// same shared caches, and check it against the daemon's reports; lint
/// each result. The traced run also probes the results here.
void serve_check(Run& run, bool traced) {
  std::vector<serve::JobOutcome> outs;
  for (std::size_t i = 0; i < run.wl.jobs.size(); ++i) {
    const serve::JobSpec& spec = run.wl.jobs[i];
    serve::JobOutcome out;
    {
      Span s(run.log, "rerun", i + 1);
      out = serve::run_job(spec, serve::JobHooks{});
    }
    if (!out.ok || !out.verify_ok || !out.result) {
      run.fail(job_label(spec) + ": in-process rerun failed: " + out.error);
      outs.emplace_back();
      continue;
    }
    const auto it = run.report.find(i);
    if (it != run.report.end() && it->second != strip_timing(out.report)) {
      run.fail(job_label(spec) + ": daemon report differs from in-process run");
    }
    check_fingerprint(run, i, structure_fingerprint(out.result->dp));
    lint_result(run, spec, *out.result, *out.lib, out.bench->design);
    if (traced) add_stats(run.layers, out.result->stats);
    outs.push_back(std::move(out));
  }
  if (!traced) return;
  for (std::size_t i = 0; i < outs.size(); ++i) {
    const serve::JobOutcome& out = outs[i];
    if (!out.result) continue;
    const SynthResult& r = *out.result;
    {
      Span s(run.log, "verify", i + 1);
      const auto v0 = Clock::now();
      const Trace vt = make_trace(r.dp.behaviors[0].dfg->num_inputs(),
                                  kVerifySamples, run.wl.jobs[i].seed + 1);
      if (!simulate_rtl(r.dp, 0, vt, *out.lib, r.pt).ok) {
        run.fail(job_label(run.wl.jobs[i]) + ": RTL verification failed");
      }
      run.layers.verify_s += since(v0);
    }
    Span s(run.log, "probe", i + 1);
    probe_result(run, run.wl.jobs[i], r, *out.lib);
  }
}

// ---- reporting ------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string selected_replay_isa() {
  for (const auto& [src, m] : obs::Registry::instance().poll_sources()) {
    if (src != "replay-isa") continue;
    for (const auto& [k, v] : m) {
      if (v != 0 && k.rfind("selected_", 0) == 0) return k.substr(9);
    }
  }
  return "unknown";
}

std::string env_stamp(const Run& run) {
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "{\"workload\":\"%s\",\"seed\":%llu,\"nproc\":%u,"
                "\"threads\":%d,\"build_type\":\"%s\",\"replay_isa\":\"%s\","
                "\"commit\":\"%s\"}",
                run.opt.workload.c_str(),
                static_cast<unsigned long long>(run.opt.seed),
                std::thread::hardware_concurrency(), runtime::threads(),
                run.opt.build_type.c_str(), selected_replay_isa().c_str(),
                run.opt.commit.c_str());
  return buf;
}

double ratio(std::uint64_t num, std::uint64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

/// Timings are interleaved best-of-N over the run's passes, which filters
/// the slow spells a shared machine goes through. A solo pass is timed as
/// the sum of each job's best time, and the latency percentiles are taken
/// over those best times (one per design, so p90 is the slowest design).
/// Both percentiles are nearest-rank: with a handful of designs, an
/// interpolated median would sit in the gap between two designs and move
/// with whichever of them the seed makes slower.
/// Serve-sweep jobs run concurrently, so a job has no time of its own to
/// take the best of: it reports its best round's wall time and that
/// round's latency percentiles.
std::vector<Metric> end_to_end_metrics(const Run& run) {
  std::vector<double> power, area, lat;
  for (const JobRecord& j : run.jobs) {
    power.push_back(j.power);
    area.push_back(j.area);
  }
  double wall = 0;
  if (run.wl.serve) {
    if (!run.pass_s.empty()) {
      const auto best = std::min_element(run.pass_s.begin(), run.pass_s.end());
      wall = *best;
      const int round = static_cast<int>(best - run.pass_s.begin());
      for (const JobRecord& j : run.jobs) {
        if (j.pass == round) lat.push_back(j.latency_s);
      }
    }
  } else {
    std::map<std::size_t, double> best;
    for (const JobRecord& j : run.jobs) {
      const auto [it, fresh] = best.emplace(j.spec, j.latency_s);
      if (!fresh) it->second = std::min(it->second, j.latency_s);
    }
    for (const auto& [spec, t] : best) {
      wall += t;
      lat.push_back(t);
    }
  }
  return {
      {"setup_s", median(run.setup_s), "s"},
      {"wall_s", wall, "s"},
      {"job_p50_s", percentile(lat, 0.5), "s"},
      {"job_p90_s", percentile(lat, 0.9), "s"},
      {"peak_rss_mb", run.peak_rss_mb, "MB"},
      {"qor_power", geomean(power), "capV2/ns"},
      {"qor_area", geomean(area), "area-units"},
  };
}

std::vector<Metric> per_layer_metrics(const Run& run) {
  const Layers& L = run.layers;
  const Counters& d = L.delta;
  std::vector<Metric> m = {
      {"benchmarks.make_s", median(run.make_s), "s"},
      {"sched.calls", static_cast<double>(get(d, "sched.makespan.count")),
       "count"},
      {"sched.probe_us", L.sched_us, "us"},
      {"synth.synthesize_s", L.synth_s, "s"},
  };
  for (const char* dsg : kAllDesigns) {
    const auto it = L.synth_by_design.find(dsg);
    m.push_back({std::string("synth.synthesize_s.") + dsg,
                 it == L.synth_by_design.end() ? 0.0 : it->second, "s"});
  }
  const std::uint64_t th = get(d, "template-cache.hits");
  const std::uint64_t tm = get(d, "template-cache.misses");
  m.insert(m.end(), {
      {"synth.moves_applied", static_cast<double>(L.moves_applied), "count"},
      {"synth.moves_kept", static_cast<double>(L.moves_kept), "count"},
      {"synth.passes", static_cast<double>(L.passes), "count"},
      {"synth.candidates", static_cast<double>(L.candidates), "count"},
      {"synth.candidates_per_s",
       L.synth_s > 0 ? static_cast<double>(L.candidates) / L.synth_s : 0.0,
       "1/s"},
      {"synth.template_cache.hit_ratio", ratio(th, th + tm), "ratio"},
      {"synth.template_cache.lookups", static_cast<double>(th + tm), "count"},
      {"rtl.copy_us", L.copy_us, "us"},
      {"rtl.area_us", L.area_us, "us"},
  });
  std::uint64_t cross = 0;
  for (const auto& [c, src] :
       std::vector<std::pair<std::string, std::string>>{
           {"energy", "eval-energy-cache"},
           {"area", "eval-area-cache"},
           {"conn", "eval-conn-cache"},
           {"edge_vals", "eval-edge-vals-cache"},
           {"program", "eval-program-cache"},
           {"facts", "eval-facts-cache"}}) {
    const std::uint64_t h = get(d, src + ".hits");
    const std::uint64_t mi = get(d, src + ".misses");
    cross += get(d, src + ".cross_thread_hits");
    m.push_back({"eval." + c + ".hit_ratio", ratio(h, h + mi), "ratio"});
    m.push_back({"eval." + c + ".lookups", static_cast<double>(h + mi), "count"});
    m.push_back({"eval." + c + ".evictions",
                 static_cast<double>(get(d, src + ".evictions")), "count"});
  }
  const std::uint64_t regions = get(d, "runtime.regions");
  const std::uint64_t inl = get(d, "runtime.inline_regions");
  m.insert(m.end(), {
      {"eval.cross_thread_hits", static_cast<double>(cross), "count"},
      {"power.verify_s", L.verify_s, "s"},
      {"power.energy_us", L.energy_us, "us"},
      {"power.replay_samples", static_cast<double>(get(d, "replay.samples")),
       "count"},
      {"power.replay_columns",
       static_cast<double>(get(d, "replay.columns_evaluated")), "count"},
      {"power.programs_compiled",
       static_cast<double>(get(d, "replay.programs_compiled")), "count"},
      {"check.lint_s", L.lint_s, "s"},
      {"runtime.parallel_ratio", ratio(regions, regions + inl), "ratio"},
      {"runtime.tasks", static_cast<double>(get(d, "runtime.tasks")), "count"},
      {"serve.wait_s", median(L.waits), "s"},
      {"obs.trace_overhead_pct",
       L.untraced_s > 0 ? 100.0 * (L.traced_s / L.untraced_s - 1.0) : 0.0, "%"},
  });
  // Self time of every span the benchmark records (zero when a workload
  // has no such span).
  std::map<std::string, double> self;
  for (const perfbench::LayerTime& lt : run.log.layer_times()) {
    self[lt.name] = lt.self_s;
  }
  for (const char* n : {"workload", "setup", "make_benchmark", "pass", "job",
                        "synthesize", "verify", "lint", "rerun", "probe",
                        "probe.copy", "probe.sched", "probe.area",
                        "probe.energy"}) {
    m.push_back({std::string("self.") + n + "_s", self[n], "s"});
  }
  return m;
}

void print_result(const Run& run, const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += run.failures.empty() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(run.attempted);
  out += ", \"failed\": " + std::to_string(run.failures.size());
  out += ", \"metrics\": {";
  char buf[256];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                  i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                  metrics[i].unit.c_str());
    out += buf;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

void print_layer_table(const Run& run) {
  std::printf("%-16s %8s %12s %12s\n", "span", "count", "inclusive_s",
              "self_s");
  for (const perfbench::LayerTime& lt : run.log.layer_times()) {
    std::printf("%-16s %8llu %12.6f %12.6f\n", lt.name.c_str(),
                static_cast<unsigned long long>(lt.count), lt.inclusive_s,
                lt.self_s);
  }
}

void write_fingerprints(const Run& run) {
  std::ofstream f(run.opt.fingerprints);
  std::map<std::size_t, std::pair<double, double>> qor;
  for (const JobRecord& j : run.jobs) qor.emplace(j.spec, std::make_pair(j.power, j.area));
  for (const auto& [i, fp] : run.fingerprint) {
    char buf[256];
    std::snprintf(buf, sizeof buf, "%s %016llx %.17g %.17g\n",
                  job_label(run.wl.jobs[i]).c_str(),
                  static_cast<unsigned long long>(fp), qor[i].first,
                  qor[i].second);
    f << buf;
  }
}

}  // namespace

int main(int argc, char** argv) {
  Run run;
  if (!parse_args(argc, argv, &run.opt) || !make_workload(run.opt, &run.wl)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload hier-power|flat-area|serve-sweep "
                 "--seed N --seconds S --trace 0|1 [--threads N] "
                 "[--designs a,b] [--passes N] [--fingerprints FILE] "
                 "[--work-dir DIR] [--commit ID] [--build-type NAME]\n");
    return 2;
  }
  const Options& opt = run.opt;
  const auto start = Clock::now();
  run.log.set_enabled(opt.trace);
  DesignSet set;
  ServeRig rig;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    if (!setup(run, &set, &rig, rep)) break;
  }

  CpuRotation rotation;
  const auto pass = [&](int index, bool traced) {
    Span s(run.log, "pass");
    if (run.wl.serve) return serve_round(run, rig, index, traced);
    if (run.wl.threads == 1) rotation.pin(index);
    const double t = solo_pass(run, set, index, traced);
    rotation.restore();
    return t;
  };
  if (run.failures.empty() && opt.trace) {
    // One untraced pass, then one traced pass with the move ledger on
    // and the probes; the difference of their job time is the tracing
    // overhead.
    run.log.set_enabled(false);
    run.layers.untraced_s = pass(0, false);
    run.log.set_enabled(true);
  }
  {
    // The traced part of the run: everything after set-up and the
    // untraced pass.
    Span workload(run.log, "workload");
    if (run.failures.empty() && opt.trace) {
      obs::MoveLedger::instance().reset();
      obs::MoveLedger::instance().set_enabled(true);
      run.layers.traced_s = pass(1, true);
      obs::MoveLedger::instance().set_enabled(false);
    } else if (run.failures.empty()) {
      // Whole passes while the next one (as long as the last) still fits.
      const int min_passes = opt.passes > 0 ? opt.passes : run.wl.min_passes;
      const auto t0 = Clock::now();
      for (int p = 0;; ++p) {
        run.pass_s.push_back(pass(p, false));
        if (p == 0) {
          struct rusage ru {};
          getrusage(RUSAGE_SELF, &ru);
          run.peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
        }
        const double last = run.pass_s.back();
        if (p + 1 >= min_passes &&
            (opt.passes > 0 || since(t0) + last > opt.seconds)) {
          break;
        }
        if (since(start) + last > kHardStopSeconds) break;
      }
    }
    if (run.wl.serve && run.failures.empty()) serve_check(run, opt.trace);
  }
  rig.stop();

  const std::string stamp = env_stamp(run);
  std::printf("env %s\n", stamp.c_str());
  for (const std::string& f : run.failures) std::printf("FAIL %s\n", f.c_str());
  if (!opt.fingerprints.empty()) write_fingerprints(run);
  if (opt.trace) {
    print_layer_table(run);
    const std::string path = opt.work_dir + "/trace-" + opt.workload + "-" +
                             std::to_string(opt.seed) + ".json";
    std::ofstream f(path);
    f << run.log.to_chrome_json(stamp);
    std::printf("trace written to %s\n", path.c_str());
    print_result(run, per_layer_metrics(run));
  } else {
    std::printf("passes %zu, jobs %zu\n", run.pass_s.size(), run.jobs.size());
    print_result(run, end_to_end_metrics(run));
  }
  std::fflush(stdout);
  return run.failures.empty() ? 0 : 1;
}
