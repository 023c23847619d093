// Trace-replay kernel benchmark: compiled batched replay (power/replay.h)
// vs the per-time-step reference interpreter (tests/replay_oracle.h), on
// the hierarchical Paulin benchmark and the largest bundled design
// (dct2d).
//
// For each design x backend the harness evaluates the full edge matrix of
// the top behavior over fresh input traces (a new seed per rep, so the
// measured work is the evaluator itself). Replay runs as one block on
// the calling thread, so there is no thread-count axis:
//   * cold: evaluation caches cleared first, so the compiled backend pays
//     program compilation (the oracle has no compile step; cold ~ warm),
//   * warm: replay programs already memoized, traces still fresh.
//
// Microbenchmarks:
//   * toggle_kernel: the packed toggle_count against the scalar hamming16
//     loop it replaced,
//   * fused_toggle: toggle_count_gather against the buffered interleave
//     path the estimator ran before the fused rewrite.
//
// Emits BENCH_power.json (and the same object on stdout):
//   * per design/backend: cold and warm wall seconds and vectors/sec
//     (trace samples evaluated per second, warm),
//   * speedup_ok: warm compiled >= 3x warm oracle,
//   * equivalent: compiled and oracle matrices are bit-identical, and the
//     packed toggle counters equal their scalar references.
// The exit code gates equivalence; speedup vs the oracle is reported,
// not gated, so a loaded CI box cannot turn a correctness job red over
// absolute throughput.
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "benchmarks/benchmarks.h"
#include "eval/engine.h"
#include "power/replay.h"
#include "power/trace.h"
#include "replay_oracle.h"
#include "util/json.h"
#include "util/rng.h"

namespace {

using namespace hsyn;

constexpr int kTraceSamples = 512;
constexpr int kReps = 4;

double now_minus(const std::chrono::steady_clock::time_point& t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

BehaviorResolver design_resolver(const Design& d) {
  return [&d](const std::string& name) -> const Dfg* {
    return d.has_behavior(name) ? &d.behavior(name) : nullptr;
  };
}

struct Row {
  std::string backend;
  double cold_s = 0;
  double warm_s = 0;
  double vectors_per_s = 0;
};

// Scalar reference for the packed toggle kernel: the loop estimator.cpp
// and rtlsim.cpp ran before the popcount rewrite.
int scalar_toggles(const std::int32_t* v, std::size_t n) {
  int total = 0;
  for (std::size_t t = 1; t < n; ++t) total += hamming16(v[t - 1], v[t]);
  return total;
}

std::vector<std::int32_t> random_column(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::int32_t> v(n);
  for (auto& x : v) x = mask16(static_cast<std::int64_t>(rng.next()));
  return v;
}

}  // namespace

int main() {
  using namespace hsyn;
  const Library lib = default_library();

  JsonWriter w;
  w.begin_object();
  w.key("bench").value("trace_replay");
  w.key("trace_samples").value(kTraceSamples);
  w.key("reps").value(kReps);

  bool equivalent = true;
  bool speedup_ok = true;
  eval::EvalEngine& eng = eval::EvalEngine::instance();

  w.key("designs").begin_array();
  for (const std::string name : {"hier_paulin", "dct2d"}) {
    const Benchmark bench = make_benchmark(name, lib);
    const Dfg& top = bench.design.top();
    const BehaviorResolver res = design_resolver(bench.design);

    // Equivalence gate, independent of timing: both backends over one
    // trace, bitwise-compared.
    {
      const Trace tr = make_trace(top.num_inputs(), kTraceSamples, 999);
      equivalent = equivalent && replay_eval_matrix(top, res, tr) ==
                                     testing_support::oracle_eval_matrix(
                                         top, res, tr);
    }

    std::vector<Row> rows;
    for (const std::string backend : {"oracle", "compiled"}) {
      const auto eval = [&](const Trace& tr) {
        return backend == "oracle"
                   ? testing_support::oracle_eval_matrix(top, res, tr)
                   : replay_eval_matrix(top, res, tr);
      };
      Row row;
      row.backend = backend;
      for (int rep = 0; rep < kReps; ++rep) {
        // Fresh seeds per rep: nothing but the evaluator is measured.
        const Trace cold_tr =
            make_trace(top.num_inputs(), kTraceSamples,
                       static_cast<std::uint64_t>(1000 + rep));
        const Trace warm_tr =
            make_trace(top.num_inputs(), kTraceSamples,
                       static_cast<std::uint64_t>(2000 + rep));
        eng.clear();  // cold: compiled pays program compilation
        const auto t0 = std::chrono::steady_clock::now();
        (void)eval(cold_tr);
        row.cold_s += now_minus(t0);
        const auto t1 = std::chrono::steady_clock::now();
        (void)eval(warm_tr);
        row.warm_s += now_minus(t1);
      }
      row.vectors_per_s =
          row.warm_s > 0 ? kReps * kTraceSamples / row.warm_s : 0;
      rows.push_back(row);
    }

    w.begin_object();
    w.key("design").value(name);
    w.key("edges").value(static_cast<int>(top.edges().size()));
    w.key("backends").begin_array();
    for (const Row& r : rows) {
      w.begin_object();
      w.key("backend").value(r.backend);
      w.key("cold_s").value(r.cold_s);
      w.key("warm_s").value(r.warm_s);
      w.key("vectors_per_s").value(r.vectors_per_s);
      w.end_object();
    }
    w.end_array();
    // Warm compiled vs warm oracle (the oracle row comes first).
    const double speedup =
        rows[1].warm_s > 0 ? rows[0].warm_s / rows[1].warm_s : 0;
    speedup_ok = speedup_ok && speedup >= 3.0;
    w.key("compiled_vs_oracle").value(speedup);
    w.end_object();
  }
  w.end_array();

  // Packed popcount toggle kernel vs the scalar loop it replaced.
  {
    constexpr std::size_t kN = 1 << 16;
    constexpr int kToggleReps = 200;
    const std::vector<std::int32_t> col = random_column(kN, 42);
    long long sink = 0;
    const auto t0 = std::chrono::steady_clock::now();
    for (int r = 0; r < kToggleReps; ++r) {
      sink += toggle_count(col.data(), col.size());
    }
    const double packed_s = now_minus(t0);
    const auto t1 = std::chrono::steady_clock::now();
    for (int r = 0; r < kToggleReps; ++r) {
      sink -= scalar_toggles(col.data(), col.size());
    }
    const double scalar_s = now_minus(t1);
    equivalent = equivalent && sink == 0;  // packed == scalar, and a sink

    const double total = static_cast<double>(kN) * kToggleReps;
    w.key("toggle_kernel").begin_object();
    w.key("elements").value(static_cast<int>(kN));
    w.key("packed_ns_per_element").value(packed_s * 1e9 / total);
    w.key("scalar_ns_per_element").value(scalar_s * 1e9 / total);
    w.key("packed_speedup").value(packed_s > 0 ? scalar_s / packed_s : 0);
    w.end_object();
  }

  // Fused toggle gather vs the buffered interleave the estimator ran
  // before the rewrite (fill an interleave buffer, count it).
  {
    constexpr std::size_t kCols = 4;
    constexpr std::size_t kT = 1 << 14;
    constexpr int kGatherReps = 100;
    std::vector<std::vector<std::int32_t>> cols;
    std::vector<const std::int32_t*> ptrs;
    for (std::size_t c = 0; c < kCols; ++c) {
      cols.push_back(random_column(kT, 100 + c));
      ptrs.push_back(cols.back().data());
    }
    long long sink = 0;
    const auto t0 = std::chrono::steady_clock::now();
    for (int r = 0; r < kGatherReps; ++r) {
      sink += toggle_count_gather(ptrs.data(), kCols, kT);
    }
    const double fused_s = now_minus(t0);
    std::vector<std::int32_t> buf(kCols * kT);
    const auto t1 = std::chrono::steady_clock::now();
    for (int r = 0; r < kGatherReps; ++r) {
      std::size_t iw = 0;
      for (std::size_t t = 0; t < kT; ++t) {
        for (std::size_t c = 0; c < kCols; ++c) buf[iw++] = cols[c][t];
      }
      sink -= toggle_count(buf.data(), buf.size());
    }
    const double buffered_s = now_minus(t1);
    equivalent = equivalent && sink == 0;  // fused == buffered, and a sink

    const double total = static_cast<double>(kCols) * kT * kGatherReps;
    w.key("fused_toggle").begin_object();
    w.key("cols").value(static_cast<int>(kCols));
    w.key("samples").value(static_cast<int>(kT));
    w.key("fused_ns_per_element").value(fused_s * 1e9 / total);
    w.key("buffered_ns_per_element").value(buffered_s * 1e9 / total);
    w.key("fused_speedup").value(fused_s > 0 ? buffered_s / fused_s : 0);
    w.end_object();
  }

  w.key("speedup_ok").value(speedup_ok);
  w.key("equivalent").value(equivalent);
  w.end_object();
  const std::string json = w.str() + "\n";

  std::fputs(json.c_str(), stdout);
  if (std::FILE* f = std::fopen("BENCH_power.json", "w")) {
    std::fputs(json.c_str(), f);
    std::fclose(f);
  } else {
    std::fprintf(stderr, "cannot write BENCH_power.json\n");
    return 1;
  }
  return equivalent ? 0 : 1;
}
