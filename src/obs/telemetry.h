// Live telemetry: a low-overhead background sampler that periodically
// snapshots the metrics registry, runtime pool stats, eval-cache
// counters and per-job search progress into timestamped ring-buffered
// samples.
//
// Determinism contract. The sampler is strictly read-only with respect
// to synthesis: it polls relaxed atomics and mutex-guarded snapshots
// that already exist for the post-hoc exporters, and nothing it reads
// ever feeds back into a synthesis decision. The per-job progress
// atomics (JobSearchState) are *always* written by the search engine --
// turning the sampler on or off only changes who reads them -- so
// synthesis reports and move logs stay bit-identical at any thread
// count with telemetry on.
//
// Publication sites: SearchCore publishes pass/depth/accepted counts at
// the end of each improvement pass and the operating point (vdd, clock,
// best cost) per probe; the portfolio engine counts finished
// strategies; the eval caches and the replay kernel attribute hits,
// misses and samples to the current obs::job. All writes are relaxed
// single atomics on paths that already do comparable work.
//
// Consumers: the serve daemon's `stats`/`watch` protocol verbs, the
// optional Prometheus /metrics endpoint (--metrics-listen), and
// --telemetry-out JSONL export for solo runs (one sample_json() line
// per sample, analyzed offline by hsyn-report).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace hsyn::obs {

/// Move-class indices used by the per-class telemetry arrays. Matches
/// synth::MoveClass (obs cannot include synth headers; the search core
/// casts its enum to these indices).
inline constexpr int kTelemetryClassReplace = 0;
inline constexpr int kTelemetryClassShare = 1;
inline constexpr int kTelemetryClassSplit = 2;
inline constexpr int kTelemetryClasses = 3;

/// Per-job search progress, published by the engine as relaxed atomics
/// and read by the sampler. One instance per obs::job id, created on
/// first use and never destroyed (references stay valid forever).
/// Writers never read these values back into decisions.
struct JobSearchState {
  std::atomic<std::uint64_t> passes{0};          ///< improvement passes finished
  std::atomic<std::uint64_t> moves_applied{0};   ///< moves applied during passes
  std::atomic<std::uint64_t> moves_accepted{0};  ///< moves kept by prefix selection
  std::atomic<std::uint64_t> applied_by_class[kTelemetryClasses]{};
  std::atomic<std::uint64_t> accepted_by_class[kTelemetryClasses]{};
  /// Moves refused by the --verify-rewrites equivalence gate.
  std::atomic<std::uint64_t> rewrites_refuted{0};
  std::atomic<std::uint64_t> strategies_done{0};  ///< portfolio explorers finished
  std::atomic<std::uint64_t> cache_hits{0};       ///< eval-cache hits on this job's threads
  std::atomic<std::uint64_t> cache_misses{0};
  std::atomic<std::uint64_t> replay_samples{0};   ///< trace samples replayed
  /// Best objective cost seen so far (0 = nothing recorded yet; real
  /// costs are strictly positive in this cost model).
  std::atomic<double> best_cost{0};
  std::atomic<double> vdd{0};       ///< operating point under evaluation
  std::atomic<double> clock_ns{0};
  std::atomic<std::int32_t> pass{-1};   ///< last finished pass index
  std::atomic<std::int32_t> depth{-1};  ///< moves kept in that pass

  /// Keep-the-minimum update of best_cost (relaxed CAS loop).
  void note_best(double cost);
};

/// The progress slot for `job` (created on first use, process lifetime).
JobSearchState& job_state(std::uint64_t job);

/// The slot for the calling thread's current obs::job (0 = solo run).
/// TLS-memoized: a hot-path call is one thread-local compare plus a
/// pointer deref.
JobSearchState& current_job_state();

/// Every job id with a registered slot, ascending.
std::vector<std::uint64_t> job_state_ids();

/// Zero every slot (tests and benches; slots are never deallocated).
void reset_job_states();

/// Attribute one eval-cache lookup to the current job (hot path: one
/// relaxed add).
void note_job_cache(bool hit);

/// Attribute `n` replayed trace samples to the current job.
void note_job_replay_samples(std::uint64_t n);

/// Milliseconds since the process anchor (captured on the first call;
/// call early in main so "uptime" means what it says).
std::uint64_t process_uptime_ms();

/// One job's counters inside a sample (a plain copy of JobSearchState).
struct JobSample {
  std::uint64_t job = 0;
  std::uint64_t passes = 0;
  std::uint64_t moves_applied = 0;
  std::uint64_t moves_accepted = 0;
  std::uint64_t applied_by_class[kTelemetryClasses] = {0, 0, 0};
  std::uint64_t accepted_by_class[kTelemetryClasses] = {0, 0, 0};
  std::uint64_t rewrites_refuted = 0;
  std::uint64_t strategies_done = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t replay_samples = 0;
  double best_cost = 0;
  double vdd = 0;
  double clock_ns = 0;
  std::int32_t pass = -1;
  std::int32_t depth = -1;
};

/// One timestamped snapshot of the whole process.
struct TelemetrySample {
  std::uint64_t seq = 0;        ///< per-process sample sequence number
  std::uint64_t t_ms = 0;       ///< steady-clock milliseconds (monotonic)
  std::uint64_t uptime_ms = 0;  ///< process_uptime_ms() at sample time
  std::uint64_t pool_regions = 0;
  std::uint64_t pool_tasks = 0;
  std::uint64_t cache_hits = 0;   ///< summed over every eval-* cache
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_bytes = 0;
  std::uint64_t spans_dropped = 0;
  std::uint64_t ledger_dropped = 0;
  std::uint64_t rewrites_refuted = 0;
  std::vector<JobSample> jobs;  ///< ascending by job id
};

/// The background sampler. Process-wide, created on first use, never
/// destroyed; callers that start() it must stop() it before process
/// exit (the CLI paths do).
class Telemetry {
 public:
  static Telemetry& instance();

  Telemetry(const Telemetry&) = delete;
  Telemetry& operator=(const Telemetry&) = delete;

  /// Start the sampler thread. interval_ms <= 0 resolves to
  /// HSYN_TELEMETRY_MS (when set to a positive integer) else 250.
  /// Idempotent: a second start() while running is a no-op.
  void start(int interval_ms = 0);

  /// Stop and join the sampler thread (no-op when not running).
  void stop();

  bool running() const { return running_.load(std::memory_order_relaxed); }

  /// The interval the sampler is (or was last) running at.
  int interval_ms() const { return interval_ms_.load(std::memory_order_relaxed); }

  /// Take one snapshot now. With record=true the sample is appended to
  /// the ring and delivered to listeners (what the sampler thread
  /// does); record=false is a pure one-shot read (the `stats` verb).
  TelemetrySample sample_now(bool record = false);

  /// Copy of the sample ring, oldest first (bounded; oldest samples are
  /// discarded when full).
  std::vector<TelemetrySample> ring() const;

  /// Drop all ring samples and reset the sequence counter (tests).
  void clear();

  /// Write the ring as JSON lines (one sample_json() per line); false
  /// on failure.
  bool write_jsonl(const std::string& path) const;

  /// One sample as a JSON object (the JSONL/`telemetry`-frame shape,
  /// minus the daemon's per-job state strings).
  static std::string sample_json(const TelemetrySample& s);

  /// Subscribe to recorded samples; returns a token for
  /// remove_listener. Listeners are invoked from the sampler thread
  /// with the listener lock held, so remove_listener() never returns
  /// while the removed listener is mid-invocation.
  std::uint64_t add_listener(std::function<void(const TelemetrySample&)> fn);
  void remove_listener(std::uint64_t id);

 private:
  Telemetry() = default;
  void loop();
  TelemetrySample collect();

  mutable std::mutex mu_;  ///< ring + sequence counter
  std::deque<TelemetrySample> ring_;
  std::uint64_t next_seq_ = 0;

  mutable std::mutex lmu_;  ///< listeners; held across invocation
  std::map<std::uint64_t, std::function<void(const TelemetrySample&)>> listeners_;
  std::uint64_t next_listener_ = 1;

  std::thread thread_;
  std::atomic<bool> running_{false};
  std::atomic<int> interval_ms_{0};
  std::mutex cv_mu_;
  std::condition_variable cv_;
  bool stop_requested_ = false;
};

/// The metrics registry rendered as Prometheus text exposition format
/// (counters, gauges, histograms with cumulative le-buckets, and polled
/// sources as hsyn_src_<source>_<counter>). Names are sanitized to
/// [A-Za-z0-9_].
std::string prometheus_text();

}  // namespace hsyn::obs
