// Span log of the benchmark's own calls into the library.
//
// The benchmark times each layer from outside: every call it makes into
// a module's public entry point (make_benchmark, synthesize,
// simulate_rtl, lint_datapath, the daemon round trip, the probes) opens
// a Span. Spans are kept in memory and written once, as Chrome
// trace-event JSON, when the run ends; nothing is ever dropped. The
// library's own tracer stays off.
//
// Parents follow the recording thread's open spans; a thread that
// starts work on behalf of another (a serve client thread) passes the
// parent explicitly. A span inherits its parent's job id unless it is
// given one.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord {
  const char* name = nullptr;  ///< string literal
  std::uint64_t begin_ns = 0;
  std::uint64_t end_ns = 0;
  int parent = -1;             ///< index of the enclosing span, -1 = root
  int tid = 0;                 ///< small id of the recording thread
  std::uint64_t job = 0;       ///< job id, 0 outside any job
};

/// Per-name totals over a span log.
struct LayerTime {
  std::string name;
  std::uint64_t count = 0;
  double inclusive_s = 0;
  double self_s = 0;  ///< inclusive minus the union of its children
};

class SpanLog {
 public:
  static constexpr int kInherit = -2;
  static constexpr std::uint64_t kInheritJob = ~std::uint64_t{0};

  void set_enabled(bool on);

  /// Open a span; -1 when the log is off.
  int open(const char* name, std::uint64_t job, int parent);
  void close(int id);

  /// Innermost span open on the calling thread (-1 when none).
  static int current();

  /// Totals per span name, in first-seen order.
  std::vector<LayerTime> layer_times() const;

  /// Chrome trace-event document; `other_data` is a JSON object placed
  /// under "otherData" (the run's environment stamp).
  std::string to_chrome_json(const std::string& other_data) const;

 private:
  std::vector<SpanRecord> spans() const;

  mutable std::mutex mu_;
  bool enabled_ = false;
  std::vector<SpanRecord> spans_;
};

/// RAII span.
class Span {
 public:
  Span(SpanLog& log, const char* name,
       std::uint64_t job = SpanLog::kInheritJob, int parent = SpanLog::kInherit)
      : log_(log), id_(log.open(name, job, parent)) {}
  ~Span() { log_.close(id_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  int id() const { return id_; }

 private:
  SpanLog& log_;
  int id_;
};

std::uint64_t now_ns();

}  // namespace perfbench
