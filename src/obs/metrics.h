// Unified metrics registry: typed counters, gauges and histograms with
// one JSON snapshot exporter, shared by hsyn, hsyn-lint and the benches.
//
// Besides the typed instruments it holds polled counter sources: the
// evaluation caches, the template cache, the check engine, the parallel
// runtime ("runtime") and the span tracer's per-name totals ("spans")
// all register here, so one --metrics-out snapshot (and the Prometheus
// endpoint) carries every counter in the process.
//
// Instruments are process-wide, created on first lookup and never
// destroyed (references stay valid forever -- cache them at call sites
// on hot paths). Recording is a single relaxed atomic op; none of the
// recorded values ever feed back into synthesis decisions, so metrics
// are always on and results stay bit-identical at any thread count.
//
//   obs::Registry& reg = obs::Registry::instance();
//   static obs::Counter& c = reg.counter("synth.runs");
//   c.add();
//   static obs::Histogram& h = reg.histogram("sched.makespan");
//   h.observe(static_cast<std::uint64_t>(makespan));
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>

namespace hsyn::obs {

/// Monotonic counter.
class Counter {
 public:
  void add(std::uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Last-write-wins gauge (double-valued).
class Gauge {
 public:
  void set(double v) { v_.store(v, std::memory_order_relaxed); }
  double value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0};
};

/// Power-of-two-bucket histogram over unsigned values: bucket i counts
/// observations v with 2^(i-1) <= v < 2^i (bucket 0 counts v == 0).
/// Cheap enough for per-candidate hot paths: one atomic add per
/// observe, plus count/sum upkeep.
class Histogram {
 public:
  static constexpr int kBuckets = 64;

  void observe(std::uint64_t v);
  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  std::uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  std::uint64_t bucket(int i) const {
    return buckets_[static_cast<std::size_t>(i)].load(std::memory_order_relaxed);
  }
  void reset();

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
};

/// Polled producer of a named counter group: counter name -> value.
using CounterSourceFn = std::function<std::map<std::string, std::uint64_t>()>;

class Registry {
 public:
  static Registry& instance();

  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Lookup-or-create. Returned references are valid for the process
  /// lifetime. Names are dotted paths ("eval.move_us").
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  /// Register (or replace) a polled counter source. Sources own their
  /// counters; reset_instruments() does not touch them.
  void register_source(const std::string& name, CounterSourceFn fn);

  /// Poll every registered source (outside the registry lock, so a
  /// source may take its own locks).
  std::map<std::string, std::map<std::string, std::uint64_t>> poll_sources() const;

  /// Zero every typed instrument (sources are polled, not owned, and
  /// keep their values).
  void reset_instruments();

  /// One JSON object: {"counters":{...},"gauges":{...},
  /// "histograms":{name:{count,sum,buckets:[[lo,count],...]}},
  /// "sources":{source:{counter:value}}}.
  std::string to_json() const;

  /// Write to_json() to `path`; false on failure.
  bool write_json(const std::string& path) const;

 private:
  Registry() = default;

  mutable std::mutex mu_;
  // std::map: stable element addresses and deterministic export order.
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, Histogram> histograms_;
  std::map<std::string, CounterSourceFn> sources_;
};

}  // namespace hsyn::obs
