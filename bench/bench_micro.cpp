// Microbenchmarks (google-benchmark) of the hot algorithmic kernels:
// scheduling, slack derivation, RTL embedding, power estimation and the
// cycle-accurate simulator. These support the paper's efficiency claims
// ("fast and efficient algorithm for mapping multiple behaviors",
// validity of every move "checked by scheduling").
#include <benchmark/benchmark.h>

#include "benchmarks/benchmarks.h"
#include "dfg/flatten.h"
#include "embed/embedder.h"
#include "power/estimator.h"
#include "power/rtlsim.h"
#include "sched/scheduler.h"
#include "sched/slack.h"
#include "synth/initial.h"

namespace {

using namespace hsyn;

const OpPoint kRef{5.0, 20.0};

struct Prepared {
  Library lib = default_library();
  Benchmark bench;
  Datapath dp;
  Trace trace;

  explicit Prepared(const std::string& name) : bench(make_benchmark(name, lib)) {
    SynthContext cx;
    cx.design = &bench.design;
    cx.lib = &lib;
    cx.clib = &bench.clib;
    cx.pt = kRef;
    dp = initial_solution(bench.design.top(), name, cx);
    schedule_datapath(dp, lib, kRef, kNoDeadline);
    trace = make_trace(bench.design.top().num_inputs(), 24, 7);
  }
};

void BM_ScheduleDatapath(benchmark::State& state) {
  static Prepared p("avenhaus_cascade");
  for (auto _ : state) {
    Datapath dp = p.dp;
    benchmark::DoNotOptimize(schedule_datapath(dp, p.lib, kRef, kNoDeadline));
  }
}
BENCHMARK(BM_ScheduleDatapath);

void BM_AlapStarts(benchmark::State& state) {
  static Prepared p("dct");
  const int deadline = p.dp.behaviors[0].makespan + 8;
  for (auto _ : state) {
    benchmark::DoNotOptimize(alap_starts(p.dp, 0, p.lib, kRef, deadline));
  }
}
BENCHMARK(BM_AlapStarts);

void BM_DeriveChildConstraint(benchmark::State& state) {
  static Prepared p("iir");
  const int deadline = p.dp.behaviors[0].makespan + 8;
  for (auto _ : state) {
    benchmark::DoNotOptimize(derive_child_constraint(
        p.dp, 0, 0, alap_starts(p.dp, 0, p.lib, kRef, deadline), p.lib, kRef,
        deadline));
  }
}
BENCHMARK(BM_DeriveChildConstraint);

void BM_EmbedModules(benchmark::State& state) {
  static Prepared p("test1");
  Datapath a = make_template_fast(p.bench.design.behavior("maddpair"), p.lib);
  Datapath b = make_template_fast(p.bench.design.behavior("seqmac"), p.lib);
  schedule_datapath(a, p.lib, kRef, kNoDeadline);
  schedule_datapath(b, p.lib, kRef, kNoDeadline);
  for (auto _ : state) {
    benchmark::DoNotOptimize(embed_modules(a, b, p.lib, kRef, nullptr));
  }
}
BENCHMARK(BM_EmbedModules);

void BM_EnergyEstimate(benchmark::State& state) {
  static Prepared p("dct");
  for (auto _ : state) {
    benchmark::DoNotOptimize(energy_of(p.dp, 0, p.trace, p.lib, kRef));
  }
}
BENCHMARK(BM_EnergyEstimate);

void BM_RtlSimulate(benchmark::State& state) {
  static Prepared p("iir");
  for (auto _ : state) {
    benchmark::DoNotOptimize(simulate_rtl(p.dp, 0, p.trace, p.lib, kRef));
  }
}
BENCHMARK(BM_RtlSimulate);

void BM_FlattenLarge(benchmark::State& state) {
  static Library lib = default_library();
  static Benchmark bench = make_benchmark("avenhaus_cascade", lib);
  for (auto _ : state) {
    benchmark::DoNotOptimize(flatten_top(bench.design));
  }
}
BENCHMARK(BM_FlattenLarge);

}  // namespace

BENCHMARK_MAIN();
