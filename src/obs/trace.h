// Low-overhead span tracer (Chrome trace-event JSON / Perfetto) and
// the process's only scope timer.
//
// Every instrumented scope -- synthesis phases, individual move
// evaluations, trace replays, cache fills, check passes -- opens an
// obs::Span. When tracing is disabled (the default) a Span costs one
// relaxed atomic load and nothing else; when enabled it costs two
// steady_clock reads plus one append into the calling thread's ring
// buffer under that thread's own (uncontended) mutex. Recorded
// timestamps never feed back into any decision, so synthesis results
// are bit-identical with tracing on or off at any thread count.
//
// Buffers are fixed-size rings: when a thread records more than the
// ring holds, the oldest spans of that thread are overwritten and
// counted as dropped (the tail of a long run is usually the
// interesting part). Flushing merges every thread's ring into one
// Chrome trace-event document:
//
//   {"traceEvents":[{"name":"improve","ph":"X","pid":1,"tid":2,
//                    "ts":12.3,"dur":4.5}, ...]}
//
// loadable directly in Perfetto (ui.perfetto.dev) or chrome://tracing.
//
// Per-name totals never drop: every span close also adds to a
// per-thread table keyed by span name -- closes, inclusive ns, and self
// ns (inclusive minus the spans nested inside it on the same thread).
// The merged table is the "spans" metrics source, with keys
// "<name>.count", "<name>.total_us" and "<name>.self_us", so it reaches
// --metrics-out and Prometheus like any other source. On one thread the
// self times of all spans add up to the wall time of the root spans.
//
// Enable via hsyn --trace-out=FILE, the HSYN_TRACE=FILE environment
// variable, or Tracer::instance().set_enabled(true) in tests.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace hsyn::obs {

namespace detail {
extern std::atomic<bool> g_trace_enabled;
}  // namespace detail

/// True when span recording is on (one relaxed load -- the entire cost
/// of a disabled Span).
inline bool tracing_enabled() {
  return detail::g_trace_enabled.load(std::memory_order_relaxed);
}

/// One completed span. `name` must point at storage that outlives the
/// tracer's use (string literals, or stable registry strings like the
/// check engine's per-pass phase names).
struct SpanEvent {
  const char* name = nullptr;
  std::uint64_t begin_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint32_t tid = 0;    ///< dense per-thread id (1-based)
  std::uint32_t depth = 0;  ///< nesting depth on its thread at begin
};

class Tracer {
 public:
  /// The process-wide tracer.
  static Tracer& instance();

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  void set_enabled(bool on) {
    detail::g_trace_enabled.store(on, std::memory_order_relaxed);
  }
  bool enabled() const { return tracing_enabled(); }

  /// Drop all recorded spans, the dropped-span count and the per-name
  /// totals.
  void reset();

  /// Merged snapshot of every thread's ring, ordered by (tid, begin).
  /// Must not race with active recording (call between runs).
  std::vector<SpanEvent> events() const;

  /// Spans lost to ring overflow since the last reset().
  std::uint64_t dropped() const;

  /// The Chrome trace-event document for the current contents.
  std::string to_chrome_json() const;

  /// Write to_chrome_json() to `path`; false (with errno intact) on
  /// failure.
  bool write_chrome_json(const std::string& path) const;

 private:
  friend class Span;
  Tracer();

  /// Append one completed span for the calling thread and add it to the
  /// thread's per-name totals.
  void record(const char* name, std::uint64_t begin_ns, std::uint64_t end_ns,
              std::uint32_t depth, std::uint64_t self_ns);
};

/// RAII span around an instrumented scope.
class Span {
 public:
  explicit Span(const char* name) {
    if (tracing_enabled()) open(name);
  }
  ~Span() {
    if (name_ != nullptr) close();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  void open(const char* name);
  void close();

  const char* name_ = nullptr;
  Span* parent_ = nullptr;        ///< enclosing open span on this thread
  std::uint64_t begin_ns_ = 0;
  std::uint64_t child_ns_ = 0;    ///< time of closed spans nested inside
  std::uint32_t depth_ = 0;
};

/// Monotonic nanoseconds (steady clock), shared by the tracer and the
/// ledger's eval timing.
std::uint64_t now_ns();

}  // namespace hsyn::obs
