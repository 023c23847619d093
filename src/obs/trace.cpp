#include "obs/trace.h"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "obs/metrics.h"
#include "util/json.h"

namespace hsyn::obs {

namespace detail {
std::atomic<bool> g_trace_enabled{false};
}  // namespace detail

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

namespace {

/// Spans kept per thread before the ring wraps. 1<<16 spans x 32 bytes
/// = 2 MB per recording thread. Long runs (dct2d with templates) wrap;
/// the per-name totals still count every span.
constexpr std::size_t kRingCapacity = std::size_t{1} << 16;

/// Per-name accumulation of closed spans (see the header comment).
struct SpanTotals {
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t self_ns = 0;
};

struct ThreadRing {
  std::uint32_t tid = 0;
  /// Guards ring contents and totals against snapshot/reset; the owning
  /// thread's append takes it too, but it is per-thread and therefore
  /// uncontended on the hot path.
  mutable std::mutex mu;
  std::vector<SpanEvent> ring;
  std::size_t next = 0;      ///< wrap position
  std::uint64_t total = 0;   ///< spans ever recorded
  /// Keyed by name pointer (cheap to hash); merged by string on export.
  std::unordered_map<const char*, SpanTotals> totals;
};

struct RingRegistry {
  std::mutex mu;
  std::vector<std::shared_ptr<ThreadRing>> rings;
  std::uint32_t next_tid = 1;
};

RingRegistry& ring_registry() {
  static RingRegistry* r = new RingRegistry();
  return *r;
}

ThreadRing& local_ring() {
  // The shared_ptr keeps the ring alive in the registry after the
  // thread exits (the pool is rebuilt on set_threads; flushed traces
  // must still include the old workers' spans).
  thread_local std::shared_ptr<ThreadRing> tl = [] {
    auto ring = std::make_shared<ThreadRing>();
    RingRegistry& r = ring_registry();
    std::lock_guard<std::mutex> lock(r.mu);
    ring->tid = r.next_tid++;
    r.rings.push_back(ring);
    return ring;
  }();
  return *tl;
}

/// The innermost open span on this thread (owner thread only).
thread_local Span* tl_open = nullptr;

/// Every thread's totals merged by name, as the "spans" source's
/// "<name>.count" / ".total_us" / ".self_us" counters.
std::map<std::string, std::uint64_t> span_totals_source() {
  std::map<std::string, SpanTotals> merged;
  {
    RingRegistry& r = ring_registry();
    std::lock_guard<std::mutex> lock(r.mu);
    for (const auto& ring : r.rings) {
      std::lock_guard<std::mutex> rl(ring->mu);
      for (const auto& [name, t] : ring->totals) {
        SpanTotals& m = merged[name];
        m.count += t.count;
        m.total_ns += t.total_ns;
        m.self_ns += t.self_ns;
      }
    }
  }
  std::map<std::string, std::uint64_t> out;
  for (const auto& [name, t] : merged) {
    out[name + ".count"] = t.count;
    out[name + ".total_us"] = t.total_ns / 1000;
    out[name + ".self_us"] = t.self_ns / 1000;
  }
  return out;
}

}  // namespace

Tracer::Tracer() {
  Registry::instance().register_source("spans", span_totals_source);
}

Tracer& Tracer::instance() {
  static Tracer* t = new Tracer();
  return *t;
}

void Tracer::record(const char* name, std::uint64_t begin_ns,
                    std::uint64_t end_ns, std::uint32_t depth,
                    std::uint64_t self_ns) {
  ThreadRing& r = local_ring();
  std::lock_guard<std::mutex> lock(r.mu);
  const SpanEvent ev{name, begin_ns, end_ns, r.tid, depth};
  if (r.ring.size() < kRingCapacity) {
    r.ring.push_back(ev);
  } else {
    r.ring[r.next] = ev;
    r.next = (r.next + 1) % kRingCapacity;
  }
  ++r.total;
  SpanTotals& t = r.totals[name];
  ++t.count;
  t.total_ns += end_ns - begin_ns;
  t.self_ns += self_ns;
}

void Span::open(const char* name) {
  name_ = name;
  parent_ = tl_open;
  depth_ = parent_ != nullptr ? parent_->depth_ + 1 : 0;
  tl_open = this;
  begin_ns_ = now_ns();
}

void Span::close() {
  const std::uint64_t end = now_ns();
  const std::uint64_t dur = end - begin_ns_;
  tl_open = parent_;
  if (parent_ != nullptr) parent_->child_ns_ += dur;
  // Record even if tracing was toggled off mid-span: the span was
  // opened under an enabled tracer and is linked into its parent.
  Tracer::instance().record(name_, begin_ns_, end, depth_, dur - child_ns_);
}

void Tracer::reset() {
  RingRegistry& r = ring_registry();
  std::lock_guard<std::mutex> lock(r.mu);
  for (const auto& ring : r.rings) {
    std::lock_guard<std::mutex> rl(ring->mu);
    ring->ring.clear();
    ring->next = 0;
    ring->total = 0;
    ring->totals.clear();
  }
}

std::vector<SpanEvent> Tracer::events() const {
  std::vector<SpanEvent> out;
  RingRegistry& r = ring_registry();
  std::lock_guard<std::mutex> lock(r.mu);
  for (const auto& ring : r.rings) {
    std::lock_guard<std::mutex> rl(ring->mu);
    // Oldest-first: the segment after the wrap position precedes the
    // segment before it.
    for (std::size_t i = ring->next; i < ring->ring.size(); ++i) {
      out.push_back(ring->ring[i]);
    }
    for (std::size_t i = 0; i < ring->next; ++i) out.push_back(ring->ring[i]);
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const SpanEvent& a, const SpanEvent& b) {
                     return a.tid != b.tid ? a.tid < b.tid
                                           : a.begin_ns < b.begin_ns;
                   });
  return out;
}

std::uint64_t Tracer::dropped() const {
  std::uint64_t d = 0;
  RingRegistry& r = ring_registry();
  std::lock_guard<std::mutex> lock(r.mu);
  for (const auto& ring : r.rings) {
    std::lock_guard<std::mutex> rl(ring->mu);
    if (ring->total > ring->ring.size()) d += ring->total - ring->ring.size();
  }
  return d;
}

std::string Tracer::to_chrome_json() const {
  const std::vector<SpanEvent> evs = events();
  // Microsecond timestamps relative to the earliest span keep the
  // numbers small and the Perfetto timeline anchored at zero.
  std::uint64_t t0 = ~std::uint64_t{0};
  for (const SpanEvent& e : evs) t0 = std::min(t0, e.begin_ns);
  if (evs.empty()) t0 = 0;

  JsonWriter w;
  w.begin_object();
  w.key("traceEvents").begin_array();
  for (const SpanEvent& e : evs) {
    w.begin_object();
    w.key("name").value(e.name);
    w.key("ph").value("X");
    w.key("pid").value(1);
    w.key("tid").value(static_cast<std::uint64_t>(e.tid));
    w.key("ts").value(static_cast<double>(e.begin_ns - t0) * 1e-3);
    w.key("dur").value(static_cast<double>(e.end_ns - e.begin_ns) * 1e-3);
    w.end_object();
  }
  w.end_array();
  w.key("displayTimeUnit").value("ms");
  w.key("otherData").begin_object();
  w.key("dropped_spans").value(dropped());
  w.end_object();
  w.end_object();
  return w.str();
}

bool Tracer::write_chrome_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << to_chrome_json() << "\n";
  return static_cast<bool>(out);
}

}  // namespace hsyn::obs
