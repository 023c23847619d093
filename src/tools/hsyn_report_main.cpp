// hsyn-report: offline analyzer joining a run's observability exports
// into one markdown report.
//
//   hsyn-report [--trace FILE] [--move-log FILE] [--metrics FILE]
//               [--telemetry FILE] [--out FILE]
//
// Inputs are the files a `hsyn` run writes with --trace-out (Chrome
// trace-event JSON), --move-log (ledger JSONL), --metrics-out (registry
// snapshot JSON) and --telemetry-out (sampler JSONL); at least one must
// be given, and each section degrades gracefully when its input is
// absent. The report goes to --out or stdout. Exit codes: 0 ok,
// 1 unreadable/unparseable input, 2 usage.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "util/json.h"

namespace {

using hsyn::JsonValue;
using hsyn::json_parse;

struct Args {
  std::string trace;
  std::string move_log;
  std::string metrics;
  std::string telemetry;
  std::string out;
  bool help = false;  ///< -h/--help: print usage and exit 0
};

/// Print the usage text to `out` (stderr on usage errors, stdout for
/// -h/--help).
void usage(std::FILE* out = stderr) {
  std::fprintf(out,
               "usage: hsyn-report [--trace FILE] [--move-log FILE] "
               "[--metrics FILE]\n"
               "                   [--telemetry FILE] [--out FILE]\n"
               "(at least one input file; each flag also accepts "
               "--flag=VALUE)\n");
}

std::optional<Args> parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
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
    const char* v = nullptr;
    if (arg == "-h" || arg == "--help") {
      a.help = true;
      return a;
    } else if (arg == "--trace") {
      if (!(v = next())) return std::nullopt;
      a.trace = v;
    } else if (arg == "--move-log") {
      if (!(v = next())) return std::nullopt;
      a.move_log = v;
    } else if (arg == "--metrics") {
      if (!(v = next())) return std::nullopt;
      a.metrics = v;
    } else if (arg == "--telemetry") {
      if (!(v = next())) return std::nullopt;
      a.telemetry = v;
    } else if (arg == "--out") {
      if (!(v = next())) return std::nullopt;
      a.out = v;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return std::nullopt;
    }
  }
  if (a.trace.empty() && a.move_log.empty() && a.metrics.empty() &&
      a.telemetry.empty()) {
    return std::nullopt;
  }
  return a;
}

bool read_file(const std::string& path, std::string* out) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "hsyn-report: cannot read %s\n", path.c_str());
    return false;
  }
  std::stringstream buf;
  buf << in.rdbuf();
  *out = buf.str();
  return true;
}

/// Parse one-JSON-object-per-line content (ledger JSONL, telemetry
/// JSONL). Blank lines are skipped; a malformed line is an input error.
bool parse_jsonl(const std::string& text, const std::string& path,
                 std::vector<JsonValue>* out) {
  std::size_t pos = 0;
  std::size_t lineno = 0;
  while (pos < text.size()) {
    std::size_t nl = text.find('\n', pos);
    if (nl == std::string::npos) nl = text.size();
    const std::string line = text.substr(pos, nl - pos);
    pos = nl + 1;
    ++lineno;
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    JsonValue v;
    std::string err;
    if (!json_parse(line, &v, &err)) {
      std::fprintf(stderr, "hsyn-report: %s:%zu: %s\n", path.c_str(), lineno,
                   err.c_str());
      return false;
    }
    out->push_back(std::move(v));
  }
  return true;
}

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

std::string pct(double num, double den) {
  if (den <= 0) return "-";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.1f%%", 100.0 * num / den);
  return buf;
}

/// Move class from the ledger `kind` string, mirroring the synthesizer's
/// taxonomy: module-selection rewrites ("A..."/"B...") vs sharing vs
/// splitting; anything else reports under its own first token.
std::string class_of(const std::string& kind) {
  if (kind.empty()) return "?";
  if (kind[0] == 'A' || kind[0] == 'B') return "replace";
  if (kind.find("share") != std::string::npos) return "share";
  if (kind.find("split") != std::string::npos) return "split";
  return kind.substr(0, kind.find_first_of(" :-"));
}

void section_convergence(const std::vector<JsonValue>& moves,
                         std::ostream& os) {
  // Accepted/applied records in file order trace the cost trajectory:
  // cost_after = cost_before - gain, with the running best alongside.
  struct Step {
    std::string kind;
    double gain = 0;
    double cost_after = 0;
  };
  std::vector<Step> steps;
  for (const JsonValue& r : moves) {
    const std::string status = r.str_or("status", "");
    if (status != "accepted" && status != "applied") continue;
    Step s;
    s.kind = r.str_or("kind", "?");
    s.gain = r.num_or("gain", 0);
    s.cost_after = r.num_or("cost_before", 0) - s.gain;
    steps.push_back(std::move(s));
  }
  os << "## Convergence\n\n";
  if (steps.empty()) {
    os << "No accepted moves in the move log.\n\n";
    return;
  }
  os << steps.size() << " accepted move(s).\n\n";
  os << "| step | kind | gain | cost after | best so far |\n";
  os << "|---:|---|---:|---:|---:|\n";
  // Bucket long runs down to ~20 rows so the table stays readable; the
  // last step of each bucket is shown (ends always included).
  const std::size_t n = steps.size();
  const std::size_t stride = n > 20 ? (n + 19) / 20 : 1;
  double best = steps.front().cost_after;
  for (std::size_t i = 0; i < n; ++i) {
    best = std::min(best, steps[i].cost_after);
    if (i % stride != stride - 1 && i != n - 1) continue;
    os << "| " << (i + 1) << " | " << steps[i].kind << " | "
       << fmt(steps[i].gain) << " | " << fmt(steps[i].cost_after) << " | "
       << fmt(best) << " |\n";
  }
  os << "\n";
}

void section_accept_rate(const std::vector<JsonValue>& moves,
                         std::ostream& os) {
  os << "## Accept rate by class over time\n\n";
  if (moves.empty()) {
    os << "Move log is empty.\n\n";
    return;
  }
  // 10 equal slices of the record stream; within each, attempts and
  // accepts per move class.
  const std::size_t buckets = std::min<std::size_t>(10, moves.size());
  std::vector<std::map<std::string, std::pair<std::uint64_t, std::uint64_t>>>
      by_bucket(buckets);
  std::map<std::string, std::pair<std::uint64_t, std::uint64_t>> total;
  for (std::size_t i = 0; i < moves.size(); ++i) {
    const std::size_t b = i * buckets / moves.size();
    const std::string cls = class_of(moves[i].str_or("kind", "?"));
    const std::string status = moves[i].str_or("status", "");
    const bool accepted = status == "accepted" || status == "applied";
    auto bump = [&](auto& m) {
      auto& e = m[cls];
      e.first += 1;
      if (accepted) e.second += 1;
    };
    bump(by_bucket[b]);
    bump(total);
  }
  os << "| slice |";
  for (const auto& [cls, _] : total) os << " " << cls << " |";
  os << "\n|---:|";
  for (std::size_t i = 0; i < total.size(); ++i) os << "---:|";
  os << "\n";
  for (std::size_t b = 0; b < buckets; ++b) {
    os << "| " << (b + 1) << "/" << buckets << " |";
    for (const auto& [cls, _] : total) {
      const auto it = by_bucket[b].find(cls);
      if (it == by_bucket[b].end()) {
        os << " - |";
      } else {
        os << " " << pct(static_cast<double>(it->second.second),
                         static_cast<double>(it->second.first))
           << " (" << it->second.second << "/" << it->second.first << ") |";
      }
    }
    os << "\n";
  }
  os << "| all |";
  for (const auto& [cls, e] : total) {
    os << " " << pct(static_cast<double>(e.second),
                     static_cast<double>(e.first))
       << " (" << e.second << "/" << e.first << ") |";
  }
  os << "\n\n";
}

/// Per-name span totals from the metrics snapshot's "spans" source
/// ("<name>.count", "<name>.total_us", "<name>.self_us"). They count
/// every span, including those the trace ring dropped. Rows rank by self
/// time and shares divide by the sum of self times, so nested spans are
/// not counted twice and the shares add up to 100%.
void section_phases(const JsonValue& metrics, std::ostream& os) {
  os << "## Wall-clock by phase\n\n";
  const JsonValue* sources = metrics.get("sources");
  const JsonValue* spans = sources ? sources->get("spans") : nullptr;
  struct Agg {
    std::uint64_t count = 0;
    double total_us = 0;
    double self_us = 0;
  };
  std::map<std::string, Agg> by_name;
  if (spans && spans->is_object()) {
    for (const auto& [key, v] : spans->members()) {
      const std::size_t dot = key.rfind('.');
      if (dot == std::string::npos) continue;
      Agg& a = by_name[key.substr(0, dot)];
      const std::string field = key.substr(dot + 1);
      if (field == "count") a.count = static_cast<std::uint64_t>(v.as_number());
      else if (field == "total_us") a.total_us = v.as_number();
      else if (field == "self_us") a.self_us = v.as_number();
    }
  }
  if (by_name.empty()) {
    os << "Metrics snapshot has no span totals (they are collected only "
          "when the run traces, e.g. with --trace-out).\n\n";
    return;
  }
  Agg all;
  for (const auto& [name, a] : by_name) {
    all.count += a.count;
    all.self_us += a.self_us;
  }
  std::vector<std::pair<std::string, Agg>> rows(by_name.begin(),
                                                by_name.end());
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    return a.second.self_us > b.second.self_us;
  });
  os << "| phase | spans | self ms | total ms | self share |\n";
  os << "|---|---:|---:|---:|---:|\n";
  const std::size_t top = std::min<std::size_t>(15, rows.size());
  for (std::size_t i = 0; i < top; ++i) {
    const Agg& a = rows[i].second;
    os << "| " << rows[i].first << " | " << a.count << " | "
       << fmt(a.self_us / 1000.0) << " | " << fmt(a.total_us / 1000.0)
       << " | " << pct(a.self_us, all.self_us) << " |\n";
  }
  if (rows.size() > top) {
    Agg rest;
    for (std::size_t i = top; i < rows.size(); ++i) {
      rest.count += rows[i].second.count;
      rest.self_us += rows[i].second.self_us;
    }
    os << "| (" << (rows.size() - top) << " more) | " << rest.count << " | "
       << fmt(rest.self_us / 1000.0) << " | | "
       << pct(rest.self_us, all.self_us) << " |\n";
  }
  os << "| **all spans** | " << all.count << " | "
     << fmt(all.self_us / 1000.0) << " | | 100.0% |\n\n";
}

void section_cache(const std::vector<JsonValue>& samples,
                   const JsonValue* metrics, std::ostream& os) {
  os << "## Eval-cache hit rate over time\n\n";
  if (samples.size() >= 2) {
    os << "| t (ms) | hits Δ | misses Δ | hit rate | cache MB |\n";
    os << "|---:|---:|---:|---:|---:|\n";
    // Per-sample deltas; long runs bucketed down to ~20 rows.
    const std::size_t n = samples.size();
    const std::size_t stride = n > 21 ? (n + 19) / 20 : 1;
    std::uint64_t ph = 0;
    std::uint64_t pm = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t h =
          static_cast<std::uint64_t>(samples[i].int_or("cache_hits", 0));
      const std::uint64_t m =
          static_cast<std::uint64_t>(samples[i].int_or("cache_misses", 0));
      if (i != 0 && (i % stride == 0 || i == n - 1)) {
        const std::uint64_t dh = h - ph;
        const std::uint64_t dm = m - pm;
        os << "| " << samples[i].int_or("uptime_ms", 0) << " | " << dh
           << " | " << dm << " | "
           << pct(static_cast<double>(dh), static_cast<double>(dh + dm))
           << " | "
           << fmt(samples[i].num_or("cache_bytes", 0) / (1024.0 * 1024.0))
           << " |\n";
        ph = h;
        pm = m;
      } else if (i == 0) {
        ph = h;
        pm = m;
      }
    }
    os << "\n";
    return;
  }
  // No telemetry timeline: fall back to the final totals in the metrics
  // snapshot's eval sources.
  if (metrics) {
    const JsonValue* sources = metrics->get("sources");
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    if (sources && sources->is_object()) {
      for (const auto& [name, src] : sources->members()) {
        if (name.rfind("eval-", 0) != 0) continue;
        hits += static_cast<std::uint64_t>(src.int_or("hits", 0));
        misses += static_cast<std::uint64_t>(src.int_or("misses", 0));
      }
    }
    if (hits + misses > 0) {
      os << "No telemetry timeline; final totals from the metrics "
            "snapshot:\n\n";
      os << "hits " << hits << ", misses " << misses << ", hit rate "
         << pct(static_cast<double>(hits),
                static_cast<double>(hits + misses))
         << "\n\n";
      return;
    }
  }
  os << "No cache data available.\n\n";
}

void section_dropped(const JsonValue* trace,
                     const std::vector<JsonValue>& samples,
                     const JsonValue* metrics, std::ostream& os) {
  os << "## Dropped-record accounting\n\n";
  bool any = false;
  std::uint64_t spans = 0;
  std::uint64_t ledger = 0;
  if (trace) {
    if (const JsonValue* od = trace->get("otherData")) {
      spans = std::max<std::uint64_t>(
          spans, static_cast<std::uint64_t>(od->int_or("dropped_spans", 0)));
      any = true;
    }
  }
  if (!samples.empty()) {
    const JsonValue& last = samples.back();
    spans = std::max<std::uint64_t>(
        spans, static_cast<std::uint64_t>(last.int_or("spans_dropped", 0)));
    ledger = std::max<std::uint64_t>(
        ledger, static_cast<std::uint64_t>(last.int_or("ledger_dropped", 0)));
    any = true;
  }
  if (metrics) {
    if (const JsonValue* gauges = metrics->get("gauges")) {
      spans = std::max<std::uint64_t>(
          spans,
          static_cast<std::uint64_t>(gauges->int_or("obs.spans_dropped", 0)));
      ledger = std::max<std::uint64_t>(
          ledger,
          static_cast<std::uint64_t>(gauges->int_or("obs.ledger_dropped", 0)));
      any = true;
    }
  }
  if (!any) {
    os << "No drop counters in the inputs.\n\n";
    return;
  }
  if (spans == 0 && ledger == 0) {
    os << "No spans or move records were dropped; the exports are "
          "complete.\n\n";
    return;
  }
  os << "**Warning: the observability buffers overflowed.** " << spans
     << " span(s) and " << ledger
     << " move record(s) were dropped; the trace/move-log files are "
        "incomplete.";
  if (spans != 0) {
    os << " The phase table reads the per-name span totals, which count "
          "every span.";
  }
  os << "\n\n";
}

/// The pool's lanes (runtime source): busy time per lane, and how many
/// regions ran pooled, inline, or inline because the pool was busy.
void section_lanes(const JsonValue& metrics, std::ostream& os) {
  const JsonValue* sources = metrics.get("sources");
  const JsonValue* rt = sources ? sources->get("runtime") : nullptr;
  if (!rt || !rt->is_object()) return;
  std::vector<std::pair<int, double>> lanes;  // (lane, busy ms)
  for (const auto& [key, v] : rt->members()) {
    int lane = 0;
    if (std::sscanf(key.c_str(), "lane%d_busy_ns", &lane) == 1) {
      lanes.emplace_back(lane, v.as_number() / 1e6);
    }
  }
  if (lanes.empty()) return;
  std::sort(lanes.begin(), lanes.end());
  double busiest = 0;
  for (const auto& [lane, ms] : lanes) busiest = std::max(busiest, ms);
  os << "### Pool lanes\n\n"
     << rt->int_or("regions", 0) << " pooled region(s), "
     << rt->int_or("inline_regions", 0) << " inline ("
     << rt->int_or("busy_inline_regions", 0)
     << " of them because another submitter held the pool).\n\n"
     << "| lane | busy ms | % of busiest |\n|---|---:|---:|\n";
  for (const auto& [lane, ms] : lanes) {
    char row[96];
    std::snprintf(row, sizeof row, "| %d%s | %.1f | %.1f |\n", lane,
                  lane == 0 ? " (submitter)" : "", ms,
                  busiest > 0 ? 100.0 * ms / busiest : 0.0);
    os << row;
  }
  os << "\nBusy time counts the chunks of pooled regions a lane ran; a "
        "lane short of the busiest one sat idle while others worked.\n\n";
}

void section_metrics(const JsonValue& metrics, std::ostream& os) {
  os << "## Metrics highlights\n\n";
  const JsonValue* counters = metrics.get("counters");
  const JsonValue* gauges = metrics.get("gauges");
  const bool have_counters =
      counters && counters->is_object() && !counters->members().empty();
  const bool have_gauges =
      gauges && gauges->is_object() && !gauges->members().empty();
  if (!have_counters && !have_gauges) {
    os << "Metrics snapshot has no counters or gauges.\n\n";
    return;
  }
  os << "| metric | value |\n|---|---:|\n";
  if (have_counters) {
    for (const auto& [name, v] : counters->members()) {
      os << "| " << name << " | " << fmt(v.as_number()) << " |\n";
    }
  }
  if (have_gauges) {
    for (const auto& [name, v] : gauges->members()) {
      os << "| " << name << " (gauge) | " << fmt(v.as_number()) << " |\n";
    }
  }
  os << "\n";
  section_lanes(metrics, os);
}

void section_jobs(const std::vector<JsonValue>& samples, std::ostream& os) {
  if (samples.empty()) return;
  // Final per-job counters from the last sample that mentions each job.
  std::map<std::uint64_t, const JsonValue*> last;
  for (const JsonValue& s : samples) {
    const JsonValue* jobs = s.get("jobs");
    if (!jobs || !jobs->is_array()) continue;
    for (const JsonValue& j : jobs->items()) {
      last[static_cast<std::uint64_t>(j.int_or("job", 0))] = &j;
    }
  }
  if (last.empty()) return;
  os << "## Per-job search state (final sample)\n\n";
  os << "| job | passes | applied | accepted | refuted | best cost | vdd | "
        "clock ns |\n";
  os << "|---:|---:|---:|---:|---:|---:|---:|---:|\n";
  for (const auto& [id, j] : last) {
    os << "| " << id << " | " << j->int_or("passes", 0) << " | "
       << j->int_or("moves_applied", 0) << " | "
       << j->int_or("moves_accepted", 0) << " | "
       << j->int_or("rewrites_refuted", 0) << " | "
       << fmt(j->num_or("best_cost", 0)) << " | " << fmt(j->num_or("vdd", 0))
       << " | " << fmt(j->num_or("clock_ns", 0)) << " |\n";
  }
  os << "\n";
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

  std::optional<JsonValue> trace;
  std::optional<JsonValue> metrics;
  std::vector<JsonValue> moves;
  std::vector<JsonValue> samples;

  if (!args->trace.empty()) {
    std::string text;
    std::string err;
    JsonValue v;
    if (!read_file(args->trace, &text)) return 1;
    if (!json_parse(text, &v, &err)) {
      std::fprintf(stderr, "hsyn-report: %s: %s\n", args->trace.c_str(),
                   err.c_str());
      return 1;
    }
    trace = std::move(v);
  }
  if (!args->metrics.empty()) {
    std::string text;
    std::string err;
    JsonValue v;
    if (!read_file(args->metrics, &text)) return 1;
    if (!json_parse(text, &v, &err)) {
      std::fprintf(stderr, "hsyn-report: %s: %s\n", args->metrics.c_str(),
                   err.c_str());
      return 1;
    }
    metrics = std::move(v);
  }
  if (!args->move_log.empty()) {
    std::string text;
    if (!read_file(args->move_log, &text)) return 1;
    if (!parse_jsonl(text, args->move_log, &moves)) return 1;
  }
  if (!args->telemetry.empty()) {
    std::string text;
    if (!read_file(args->telemetry, &text)) return 1;
    if (!parse_jsonl(text, args->telemetry, &samples)) return 1;
  }

  std::ostringstream os;
  os << "# hsyn run report\n\nInputs:\n\n";
  if (trace) os << "- trace: `" << args->trace << "`\n";
  if (!moves.empty() || !args->move_log.empty()) {
    os << "- move log: `" << args->move_log << "` (" << moves.size()
       << " record(s))\n";
  }
  if (metrics) os << "- metrics: `" << args->metrics << "`\n";
  if (!samples.empty() || !args->telemetry.empty()) {
    os << "- telemetry: `" << args->telemetry << "` (" << samples.size()
       << " sample(s))\n";
  }
  os << "\n";

  if (!args->move_log.empty()) {
    section_convergence(moves, os);
    section_accept_rate(moves, os);
  }
  if (metrics) section_phases(*metrics, os);
  if (!args->telemetry.empty() || metrics) {
    section_cache(samples, metrics ? &*metrics : nullptr, os);
  }
  section_jobs(samples, os);
  section_dropped(trace ? &*trace : nullptr, samples,
                  metrics ? &*metrics : nullptr, os);
  if (metrics) section_metrics(*metrics, os);

  const std::string report = os.str();
  if (args->out.empty()) {
    std::fputs(report.c_str(), stdout);
    return 0;
  }
  std::ofstream out(args->out);
  if (!out) {
    std::fprintf(stderr, "hsyn-report: cannot write %s\n", args->out.c_str());
    return 1;
  }
  out << report;
  return 0;
}
