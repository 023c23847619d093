#include "obs/telemetry.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>

#include "obs/job.h"
#include "obs/ledger.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/json.h"

namespace hsyn::obs {

namespace {

constexpr std::size_t kRingCapacity = 2048;

struct JobStateMap {
  std::mutex mu;
  // std::map: stable addresses, deterministic export order.
  std::map<std::uint64_t, std::unique_ptr<JobSearchState>> slots;
};

JobStateMap& job_states() {
  static JobStateMap* m = new JobStateMap();
  return *m;
}

std::uint64_t steady_ms() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

void JobSearchState::note_best(double cost) {
  double cur = best_cost.load(std::memory_order_relaxed);
  while ((cur == 0.0 || cost < cur) &&
         !best_cost.compare_exchange_weak(cur, cost,
                                          std::memory_order_relaxed)) {
  }
}

JobSearchState& job_state(std::uint64_t job) {
  JobStateMap& m = job_states();
  std::lock_guard<std::mutex> lock(m.mu);
  std::unique_ptr<JobSearchState>& slot = m.slots[job];
  if (!slot) slot = std::make_unique<JobSearchState>();
  return *slot;
}

JobSearchState& current_job_state() {
  // TLS memoization (the eval caches call this per lookup): revalidated
  // against the thread's job tag, which the pool changes only between
  // parallel regions.
  struct Cached {
    std::uint64_t job = ~std::uint64_t{0};
    JobSearchState* st = nullptr;
  };
  thread_local Cached c;
  const std::uint64_t job = current_job();
  if (c.st == nullptr || c.job != job) {
    c.job = job;
    c.st = &job_state(job);
  }
  return *c.st;
}

std::vector<std::uint64_t> job_state_ids() {
  JobStateMap& m = job_states();
  std::lock_guard<std::mutex> lock(m.mu);
  std::vector<std::uint64_t> ids;
  ids.reserve(m.slots.size());
  for (const auto& [id, slot] : m.slots) ids.push_back(id);
  return ids;
}

void reset_job_states() {
  JobStateMap& m = job_states();
  std::lock_guard<std::mutex> lock(m.mu);
  for (auto& [id, slot] : m.slots) {
    JobSearchState& s = *slot;
    s.passes.store(0, std::memory_order_relaxed);
    s.moves_applied.store(0, std::memory_order_relaxed);
    s.moves_accepted.store(0, std::memory_order_relaxed);
    for (int k = 0; k < kTelemetryClasses; ++k) {
      s.applied_by_class[k].store(0, std::memory_order_relaxed);
      s.accepted_by_class[k].store(0, std::memory_order_relaxed);
    }
    s.rewrites_refuted.store(0, std::memory_order_relaxed);
    s.strategies_done.store(0, std::memory_order_relaxed);
    s.cache_hits.store(0, std::memory_order_relaxed);
    s.cache_misses.store(0, std::memory_order_relaxed);
    s.replay_samples.store(0, std::memory_order_relaxed);
    s.best_cost.store(0, std::memory_order_relaxed);
    s.vdd.store(0, std::memory_order_relaxed);
    s.clock_ns.store(0, std::memory_order_relaxed);
    s.pass.store(-1, std::memory_order_relaxed);
    s.depth.store(-1, std::memory_order_relaxed);
  }
}

void note_job_cache(bool hit) {
  JobSearchState& s = current_job_state();
  (hit ? s.cache_hits : s.cache_misses).fetch_add(1, std::memory_order_relaxed);
}

void note_job_replay_samples(std::uint64_t n) {
  current_job_state().replay_samples.fetch_add(n, std::memory_order_relaxed);
}

std::uint64_t process_uptime_ms() {
  static const std::uint64_t anchor = steady_ms();
  return steady_ms() - anchor;
}

Telemetry& Telemetry::instance() {
  static Telemetry* t = new Telemetry();
  return *t;
}

void Telemetry::start(int interval_ms) {
  std::lock_guard<std::mutex> lock(cv_mu_);
  if (running_.load(std::memory_order_relaxed)) return;
  if (interval_ms <= 0) {
    interval_ms = 250;
    if (const char* env = std::getenv("HSYN_TELEMETRY_MS")) {
      const int v = std::atoi(env);
      if (v > 0) interval_ms = v;
    }
  }
  interval_ms_.store(interval_ms, std::memory_order_relaxed);
  stop_requested_ = false;
  running_.store(true, std::memory_order_relaxed);
  thread_ = std::thread([this] { loop(); });
}

void Telemetry::stop() {
  {
    std::lock_guard<std::mutex> lock(cv_mu_);
    if (!running_.load(std::memory_order_relaxed)) return;
    stop_requested_ = true;
  }
  cv_.notify_all();
  thread_.join();
  running_.store(false, std::memory_order_relaxed);
}

void Telemetry::loop() {
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(cv_mu_);
      cv_.wait_for(lock,
                   std::chrono::milliseconds(
                       interval_ms_.load(std::memory_order_relaxed)),
                   [this] { return stop_requested_; });
      if (stop_requested_) return;
    }
    sample_now(/*record=*/true);
  }
}

TelemetrySample Telemetry::collect() {
  TelemetrySample s;
  s.t_ms = steady_ms();
  s.uptime_ms = process_uptime_ms();

  Registry& reg = Registry::instance();
  for (const auto& [src, counters] : reg.poll_sources()) {
    if (src == "runtime") {
      s.pool_regions = counters.at("regions");
      s.pool_tasks = counters.at("tasks");
      continue;
    }
    if (src.rfind("eval-", 0) != 0) continue;
    for (const auto& [name, value] : counters) {
      if (name == "hits") s.cache_hits += value;
      else if (name == "misses") s.cache_misses += value;
      else if (name == "bytes") s.cache_bytes += value;
    }
  }

  s.spans_dropped = Tracer::instance().dropped();
  s.ledger_dropped = MoveLedger::instance().dropped();

  s.rewrites_refuted = reg.counter("synth.rewrites_refuted").value();
  // Keep the dropped-record gauges current so a --metrics-out snapshot
  // carries the accounting even when nobody reads the ring.
  reg.gauge("obs.spans_dropped").set(static_cast<double>(s.spans_dropped));
  reg.gauge("obs.ledger_dropped").set(static_cast<double>(s.ledger_dropped));

  for (const std::uint64_t id : job_state_ids()) {
    const JobSearchState& js = job_state(id);
    JobSample j;
    j.job = id;
    j.passes = js.passes.load(std::memory_order_relaxed);
    j.moves_applied = js.moves_applied.load(std::memory_order_relaxed);
    j.moves_accepted = js.moves_accepted.load(std::memory_order_relaxed);
    for (int k = 0; k < kTelemetryClasses; ++k) {
      j.applied_by_class[k] =
          js.applied_by_class[k].load(std::memory_order_relaxed);
      j.accepted_by_class[k] =
          js.accepted_by_class[k].load(std::memory_order_relaxed);
    }
    j.rewrites_refuted = js.rewrites_refuted.load(std::memory_order_relaxed);
    j.strategies_done = js.strategies_done.load(std::memory_order_relaxed);
    j.cache_hits = js.cache_hits.load(std::memory_order_relaxed);
    j.cache_misses = js.cache_misses.load(std::memory_order_relaxed);
    j.replay_samples = js.replay_samples.load(std::memory_order_relaxed);
    j.best_cost = js.best_cost.load(std::memory_order_relaxed);
    j.vdd = js.vdd.load(std::memory_order_relaxed);
    j.clock_ns = js.clock_ns.load(std::memory_order_relaxed);
    j.pass = js.pass.load(std::memory_order_relaxed);
    j.depth = js.depth.load(std::memory_order_relaxed);
    s.jobs.push_back(j);
  }
  return s;
}

TelemetrySample Telemetry::sample_now(bool record) {
  TelemetrySample s = collect();
  {
    std::lock_guard<std::mutex> lock(mu_);
    s.seq = next_seq_++;
    if (record) {
      if (ring_.size() >= kRingCapacity) ring_.pop_front();
      ring_.push_back(s);
    }
  }
  if (record) {
    // Invoke under the listener lock: remove_listener() then cannot
    // return while its listener is mid-call (the serve sessions rely on
    // that to tear down watch subscriptions safely).
    std::lock_guard<std::mutex> lock(lmu_);
    for (const auto& [id, fn] : listeners_) fn(s);
  }
  return s;
}

std::vector<TelemetrySample> Telemetry::ring() const {
  std::lock_guard<std::mutex> lock(mu_);
  return std::vector<TelemetrySample>(ring_.begin(), ring_.end());
}

void Telemetry::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  ring_.clear();
  next_seq_ = 0;
}

bool Telemetry::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  for (const TelemetrySample& s : ring()) out << sample_json(s) << '\n';
  return static_cast<bool>(out);
}

std::string Telemetry::sample_json(const TelemetrySample& s) {
  JsonWriter w;
  w.begin_object();
  w.key("type").value("telemetry");
  w.key("seq").value(s.seq);
  w.key("t_ms").value(s.t_ms);
  w.key("uptime_ms").value(s.uptime_ms);
  w.key("regions").value(s.pool_regions);
  w.key("tasks").value(s.pool_tasks);
  w.key("cache_hits").value(s.cache_hits);
  w.key("cache_misses").value(s.cache_misses);
  w.key("cache_bytes").value(s.cache_bytes);
  w.key("spans_dropped").value(s.spans_dropped);
  w.key("ledger_dropped").value(s.ledger_dropped);
  w.key("rewrites_refuted").value(s.rewrites_refuted);
  w.key("jobs").begin_array();
  for (const JobSample& j : s.jobs) {
    w.begin_object();
    w.key("job").value(j.job);
    w.key("passes").value(j.passes);
    w.key("pass").value(static_cast<int>(j.pass));
    w.key("depth").value(static_cast<int>(j.depth));
    w.key("moves_applied").value(j.moves_applied);
    w.key("moves_accepted").value(j.moves_accepted);
    w.key("applied_replace").value(j.applied_by_class[kTelemetryClassReplace]);
    w.key("applied_share").value(j.applied_by_class[kTelemetryClassShare]);
    w.key("applied_split").value(j.applied_by_class[kTelemetryClassSplit]);
    w.key("accepted_replace").value(j.accepted_by_class[kTelemetryClassReplace]);
    w.key("accepted_share").value(j.accepted_by_class[kTelemetryClassShare]);
    w.key("accepted_split").value(j.accepted_by_class[kTelemetryClassSplit]);
    w.key("rewrites_refuted").value(j.rewrites_refuted);
    w.key("strategies_done").value(j.strategies_done);
    w.key("cache_hits").value(j.cache_hits);
    w.key("cache_misses").value(j.cache_misses);
    w.key("replay_samples").value(j.replay_samples);
    w.key("best_cost").value(j.best_cost);
    w.key("vdd").value(j.vdd);
    w.key("clock_ns").value(j.clock_ns);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

std::uint64_t Telemetry::add_listener(
    std::function<void(const TelemetrySample&)> fn) {
  std::lock_guard<std::mutex> lock(lmu_);
  const std::uint64_t id = next_listener_++;
  listeners_[id] = std::move(fn);
  return id;
}

void Telemetry::remove_listener(std::uint64_t id) {
  std::lock_guard<std::mutex> lock(lmu_);
  listeners_.erase(id);
}

namespace {

std::string prom_name(const std::string& raw) {
  std::string out = "hsyn_";
  for (const char c : raw) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    out += ok ? c : '_';
  }
  return out;
}

std::string prom_number(double v) {
  // Integral values (counters, bucket counts) print without a decimal
  // point; everything else round-trips through %.17g.
  if (v == static_cast<double>(static_cast<std::int64_t>(v)) &&
      v >= -9.0e15 && v <= 9.0e15) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%lld",
                  static_cast<long long>(static_cast<std::int64_t>(v)));
    return buf;
  }
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

std::string prometheus_text() {
  // Rendered from the registry's JSON snapshot: the registry does not
  // expose iteration, and this path is scrape-rate cold.
  JsonValue doc;
  if (!json_parse(Registry::instance().to_json(), &doc)) return {};

  std::string out;
  if (const JsonValue* counters = doc.get("counters")) {
    for (const auto& [name, v] : counters->members()) {
      const std::string n = prom_name(name);
      out += "# TYPE " + n + " counter\n";
      out += n + " " + prom_number(v.as_number()) + "\n";
    }
  }
  if (const JsonValue* gauges = doc.get("gauges")) {
    for (const auto& [name, v] : gauges->members()) {
      const std::string n = prom_name(name);
      out += "# TYPE " + n + " gauge\n";
      out += n + " " + prom_number(v.as_number()) + "\n";
    }
  }
  if (const JsonValue* hists = doc.get("histograms")) {
    for (const auto& [name, h] : hists->members()) {
      const std::string n = prom_name(name);
      out += "# TYPE " + n + " histogram\n";
      std::uint64_t cum = 0;
      if (const JsonValue* buckets = h.get("buckets")) {
        for (const JsonValue& b : buckets->items()) {
          if (b.items().size() != 2) continue;
          const std::uint64_t lo =
              static_cast<std::uint64_t>(b.items()[0].as_number());
          cum += static_cast<std::uint64_t>(b.items()[1].as_number());
          // Power-of-two buckets: lower bound lo covers [lo, 2*lo), so
          // the cumulative le bound is the bucket's (exclusive) top.
          const std::uint64_t le = lo == 0 ? 0 : lo * 2 - 1;
          out += n + "_bucket{le=\"" + std::to_string(le) + "\"} " +
                 std::to_string(cum) + "\n";
        }
      }
      out += n + "_bucket{le=\"+Inf\"} " +
             prom_number(h.num_or("count", 0)) + "\n";
      out += n + "_sum " + prom_number(h.num_or("sum", 0)) + "\n";
      out += n + "_count " + prom_number(h.num_or("count", 0)) + "\n";
    }
  }
  if (const JsonValue* sources = doc.get("sources")) {
    for (const auto& [src, group] : sources->members()) {
      for (const auto& [name, v] : group.members()) {
        const std::string n = prom_name("src_" + src + "_" + name);
        out += "# TYPE " + n + " counter\n";
        out += n + " " + prom_number(v.as_number()) + "\n";
      }
    }
  }
  return out;
}

}  // namespace hsyn::obs
