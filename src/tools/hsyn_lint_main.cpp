// hsyn-lint: standalone static checker for the textual H-SYN formats.
//
//   hsyn-lint [--json] [--library FILE] [--trace FILE] [--benchmarks]
//             [--werror] [--min-severity LEVEL] [--metrics-out FILE]
//             [DESIGN.dfg ...]
//
// Each positional file is parsed as a hierarchical-DFG design and run
// through the full check-pass registry (parse failures surface as
// error[PARSE] diagnostics with the reader's line-numbered message).
// --library / --trace validate the other two textio formats the same
// way (a valid --trace additionally seeds the dataflow passes' input
// facts when linting designs); --benchmarks lints every built-in
// benchmark design. --werror fails (exit 1) on warnings, not just
// errors; --min-severity note|warning|error drops findings below the
// level from output and counts. --metrics-out snapshots the unified
// obs metrics registry (targets linted, diagnostics per severity) as
// JSON -- the same exporter the hsyn CLI uses. Exit status: 0 when no
// (counted) errors were found, 1 when any lint or parse error fired
// (or any warning under --werror), 2 on usage errors or unreadable
// files.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "benchmarks/benchmarks.h"
#include "check/check.h"
#include "dfg/textio.h"
#include "library/textio.h"
#include "obs/metrics.h"
#include "power/trace_io.h"
#include "util/json.h"

namespace {

struct Args {
  std::vector<std::string> design_files;
  std::string library_file;
  std::string trace_file;
  std::string metrics_out;
  bool benchmarks = false;
  bool json = false;
  bool werror = false;
  hsyn::lint::Severity min_severity = hsyn::lint::Severity::Note;
};

/// Print the usage text to `out` (stderr on usage errors, stdout for
/// -h/--help).
void usage(std::FILE* out = stderr) {
  std::fprintf(out,
               "usage: hsyn-lint [--json] [--library FILE] [--trace FILE]\n"
               "                 [--benchmarks] [--werror]\n"
               "                 [--min-severity note|warning|error]\n"
               "                 [--metrics-out FILE] [DESIGN.dfg ...]\n");
}

bool read_file(const std::string& path, std::string* out) {
  std::ifstream in(path);
  if (!in) return false;
  std::stringstream buf;
  buf << in.rdbuf();
  *out = buf.str();
  return true;
}

/// One lint target's outcome, printed in text or JSON form.
struct Outcome {
  std::string name;
  hsyn::lint::Report report;
  std::string parse_error;  ///< non-empty: parsing failed, no report ran
};

void print_text(const std::vector<Outcome>& outcomes) {
  for (const Outcome& o : outcomes) {
    std::printf("== %s\n", o.name.c_str());
    if (!o.parse_error.empty()) {
      std::printf("error[PARSE] %s: %s\n1 error(s), 0 warning(s)\n",
                  o.name.c_str(), o.parse_error.c_str());
    } else {
      std::fputs(o.report.to_text().c_str(), stdout);
    }
  }
}

void print_json(const std::vector<Outcome>& outcomes) {
  std::printf("[\n");
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const Outcome& o = outcomes[i];
    // Names are paths/identifiers; the shared escaper (util/json.h)
    // handles quotes, backslashes, and control bytes alike.
    std::printf("{\"target\": %s, ", hsyn::json_quote(o.name).c_str());
    if (!o.parse_error.empty()) {
      hsyn::lint::Report rep;
      rep.add("PARSE", hsyn::lint::Severity::Error, o.name, o.parse_error);
      std::printf("\"result\": %s}", rep.to_json().c_str());
    } else {
      std::printf("\"result\": %s}", o.report.to_json().c_str());
    }
    std::printf("%s\n", i + 1 < outcomes.size() ? "," : "");
  }
  std::printf("]\n");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hsyn;
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
      usage(stdout);
      return 0;
    } else if (arg == "--json") {
      a.json = true;
    } else if (arg == "--benchmarks") {
      a.benchmarks = true;
    } else if (arg == "--werror") {
      a.werror = true;
    } else if (arg == "--min-severity") {
      const char* v = next();
      if (!v) {
        usage();
        return 2;
      }
      if (std::strcmp(v, "note") == 0) {
        a.min_severity = lint::Severity::Note;
      } else if (std::strcmp(v, "warning") == 0) {
        a.min_severity = lint::Severity::Warning;
      } else if (std::strcmp(v, "error") == 0) {
        a.min_severity = lint::Severity::Error;
      } else {
        std::fprintf(stderr, "unknown severity: %s\n", v);
        usage();
        return 2;
      }
    } else if (arg == "--library") {
      const char* v = next();
      if (!v) {
        usage();
        return 2;
      }
      a.library_file = v;
    } else if (arg == "--trace") {
      const char* v = next();
      if (!v) {
        usage();
        return 2;
      }
      a.trace_file = v;
    } else if (arg == "--metrics-out") {
      const char* v = next();
      if (!v) {
        usage();
        return 2;
      }
      a.metrics_out = v;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      usage();
      return 2;
    } else {
      a.design_files.push_back(arg);
    }
  }
  if (a.design_files.empty() && a.library_file.empty() &&
      a.trace_file.empty() && !a.benchmarks) {
    usage();
    return 2;
  }

  std::vector<Outcome> outcomes;
  bool any_error = false;
  auto record = [&](Outcome o) {
    // --min-severity drops findings below the floor before they are
    // printed or counted; --werror promotes surviving warnings to a
    // failing exit status (the report itself is untouched, so
    // warnings still print as warnings).
    o.report = o.report.filtered(a.min_severity);
    any_error = any_error || !o.parse_error.empty() || !o.report.ok() ||
                (a.werror && o.report.warnings() > 0);
    outcomes.push_back(std::move(o));
  };

  // Parse --trace up front: a valid trace seeds the dataflow passes'
  // input facts for every design linted below.
  std::optional<Trace> trace;
  if (!a.trace_file.empty()) {
    std::string text;
    if (!read_file(a.trace_file, &text)) {
      std::fprintf(stderr, "cannot read %s\n", a.trace_file.c_str());
      return 2;
    }
    Outcome o;
    o.name = a.trace_file;
    try {
      const Trace t = trace_from_text(text);
      if (t.empty()) {
        o.report.add("TRACE001", lint::Severity::Warning, a.trace_file,
                     "trace holds no samples");
      } else {
        trace = t;
      }
    } catch (const std::exception& e) {
      o.parse_error = e.what();
    }
    record(std::move(o));
  }
  const Trace* seed = trace ? &*trace : nullptr;

  for (const std::string& file : a.design_files) {
    std::string text;
    if (!read_file(file, &text)) {
      std::fprintf(stderr, "cannot read %s\n", file.c_str());
      return 2;
    }
    Outcome o;
    o.name = file;
    try {
      const Design design = design_from_text(text);
      o.report = lint::lint_design(design, seed);
    } catch (const std::exception& e) {
      o.parse_error = e.what();
    }
    record(std::move(o));
  }

  if (!a.library_file.empty()) {
    std::string text;
    if (!read_file(a.library_file, &text)) {
      std::fprintf(stderr, "cannot read %s\n", a.library_file.c_str());
      return 2;
    }
    Outcome o;
    o.name = a.library_file;
    try {
      const Library lib = library_from_text(text);
      if (lib.num_fu_types() == 0) {
        o.report.add("LIB001", lint::Severity::Error, a.library_file,
                     "library declares no functional-unit types");
      }
    } catch (const std::exception& e) {
      o.parse_error = e.what();
    }
    record(std::move(o));
  }

  if (a.benchmarks) {
    const Library lib = default_library();
    for (const std::string& name : benchmark_names()) {
      Outcome o;
      o.name = "benchmark:" + name;
      try {
        const Benchmark b = make_benchmark(name, lib);
        o.report = lint::lint_design(b.design, seed);
      } catch (const std::exception& e) {
        o.parse_error = e.what();
      }
      record(std::move(o));
    }
  }

  if (a.json) {
    print_json(outcomes);
  } else {
    print_text(outcomes);
  }

  if (!a.metrics_out.empty()) {
    // Feed the lint totals into the unified metrics registry so the
    // snapshot format matches the one `hsyn --metrics-out` writes.
    obs::Registry& reg = obs::Registry::instance();
    for (const Outcome& o : outcomes) {
      reg.counter("lint.targets").add(1);
      if (!o.parse_error.empty()) {
        reg.counter("lint.parse_errors").add(1);
        reg.counter("lint.errors").add(1);
      } else {
        reg.counter("lint.errors").add(
            static_cast<std::uint64_t>(o.report.errors()));
        reg.counter("lint.warnings").add(
            static_cast<std::uint64_t>(o.report.warnings()));
      }
    }
    if (!reg.write_json(a.metrics_out)) {
      std::fprintf(stderr, "cannot write %s\n", a.metrics_out.c_str());
      return 2;
    }
  }
  return any_error ? 1 : 0;
}
