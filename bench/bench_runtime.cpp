// Thread-count sweep of the parallel runtime over the largest bench
// design (a 12-stage biquad cascade, the top row of bench_scaling).
//
// Emits one JSON object on stdout so CI and plotting scripts can track
// wall time per thread count; synthesis results must be bit-identical
// across the sweep (the `deterministic` field), so only `wall_s` may
// vary between rows.
#include <chrono>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "benchmarks/benchmarks.h"
#include "benchmarks/dfg_build.h"
#include "obs/metrics.h"
#include "power/estimator.h"
#include "runtime/thread_pool.h"
#include "synth/synthesizer.h"

namespace {

using namespace hsyn;

/// Cascade of `stages` biquads (the `iir` topology, parameterized).
Design make_cascade(int stages) {
  using namespace dfg_build;
  Design design;
  design.add_behavior(make_biquad());
  Dfg d("cascade" + std::to_string(stages), 1 + 7 * stages, 1 + 2 * stages);
  int x = in(d, 0);
  for (int k = 0; k < stages; ++k) {
    const int base = 1 + 7 * k;
    std::vector<int> ins = {x};
    for (int p = 0; p < 7; ++p) ins.push_back(in(d, base + p));
    const auto outs = hier(d, "biquad", ins, 3, "bq" + std::to_string(k));
    x = outs[0];
    out(d, outs[1], 1 + 2 * k);
    out(d, outs[2], 2 + 2 * k);
  }
  out(d, x, 0);
  d.validate();
  design.add_behavior(std::move(d));
  design.set_top("cascade" + std::to_string(stages));
  design.validate();
  return design;
}

/// The parallel runtime's counters (the "runtime" metrics source).
std::map<std::string, std::uint64_t> runtime_counters() {
  return obs::Registry::instance().poll_sources().at("runtime");
}

struct Row {
  int threads = 0;
  double wall_s = 0;
  double area = 0;
  double energy = 0;
  std::uint64_t regions = 0;
  std::uint64_t tasks = 0;
};

}  // namespace

int main() {
  using namespace hsyn;
  const int kStages = 12;
  const Library lib = default_library();
  const Design design = make_cascade(kStages);
  const ComplexLibrary clib = default_complex_library(design, lib);
  const double ts = 2.2 * min_sample_period_ns(design, lib);
  SynthOptions opts;
  opts.max_passes = 6;
  opts.max_clocks = 2;

  std::vector<Row> rows;
  bool deterministic = true;
  for (const int threads : {1, 2, 4, 8}) {
    runtime::set_threads(threads);
    const auto before = runtime_counters();
    const auto t0 = std::chrono::steady_clock::now();
    const SynthResult r = synthesize(design, lib, &clib, ts, Objective::Power,
                                     Mode::Hierarchical, opts);
    const auto t1 = std::chrono::steady_clock::now();
    if (!r.ok) {
      std::fprintf(stderr, "synthesis failed at %d threads: %s\n", threads,
                   r.fail_reason.c_str());
      return 1;
    }
    const auto after = runtime_counters();
    const auto delta = [&](const char* k) { return after.at(k) - before.at(k); };
    Row row;
    row.threads = threads;
    row.wall_s = std::chrono::duration<double>(t1 - t0).count();
    row.area = r.area;
    row.energy = r.energy;
    row.regions = delta("regions") + delta("inline_regions");
    row.tasks = delta("tasks");
    if (!rows.empty() &&
        (rows[0].area != row.area || rows[0].energy != row.energy)) {
      deterministic = false;
    }
    rows.push_back(row);
  }

  std::printf("{\n");
  std::printf("  \"bench\": \"runtime_thread_sweep\",\n");
  std::printf("  \"design\": \"cascade%d\",\n", kStages);
  std::printf("  \"flat_ops\": %d,\n",
              design.flattened_size(design.top_name()));
  std::printf("  \"objective\": \"power\",\n");
  std::printf("  \"deterministic\": %s,\n", deterministic ? "true" : "false");
  std::printf("  \"sweep\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::printf("    {\"threads\": %d, \"wall_s\": %.3f, \"speedup\": %.2f, "
                "\"area\": %.3f, \"energy\": %.6f, \"regions\": %llu, "
                "\"tasks\": %llu}%s\n",
                r.threads, r.wall_s, rows[0].wall_s / r.wall_s, r.area,
                r.energy, static_cast<unsigned long long>(r.regions),
                static_cast<unsigned long long>(r.tasks),
                i + 1 < rows.size() ? "," : "");
  }
  std::printf("  ]\n}\n");
  return deterministic ? 0 : 1;
}
