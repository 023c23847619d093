// Filter design-space explorer: sweeps laxity factor x objective on the
// `iir` biquad-cascade benchmark and prints the area/power/Vdd trade-off
// curve -- the workload class the paper's introduction motivates (DSP
// filters under a throughput constraint).
//
// Build & run:  ./build/examples/filter_explorer [benchmark]
#include <cstdio>
#include <string>

#include "benchmarks/benchmarks.h"
#include "obs/metrics.h"
#include "runtime/thread_pool.h"
#include "synth/synthesizer.h"
#include "util/fmt.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace hsyn;
  const std::string name = argc > 1 ? argv[1] : "iir";
  const Library lib = default_library();
  const Benchmark bench = make_benchmark(name, lib);
  const double min_ts = min_sample_period_ns(bench.design, lib);
  std::printf("%s: minimum sampling period %.1f ns\n\n", name.c_str(), min_ts);

  TextTable table;
  table.row({"L.F.", "objective", "Vdd (V)", "clk (ns)", "cycles", "area",
             "power", "synth (s)"});
  table.rule();
  SynthOptions opts;
  opts.max_passes = 4;
  for (const double lf : {1.2, 1.6, 2.2, 3.2}) {
    for (const Objective obj : {Objective::Area, Objective::Power}) {
      const SynthResult r = synthesize(bench.design, lib, &bench.clib,
                                       lf * min_ts, obj, Mode::Hierarchical,
                                       opts);
      if (!r.ok) {
        table.row({fixed(lf, 1), objective_name(obj), "-", "-", "-", "-",
                   "infeasible", "-"});
        continue;
      }
      table.row({fixed(lf, 1), objective_name(obj), fixed(r.pt.vdd, 1),
                 fixed(r.pt.clk_ns, 1), std::to_string(r.makespan),
                 fixed(r.area, 0), fixed(r.power, 4),
                 fixed(r.synth_seconds, 2)});
    }
    table.rule();
  }
  std::printf("%s", table.render().c_str());
  std::printf("\nReading the table: at higher laxity the power objective "
              "scales Vdd down\nand swaps in low-switched-capacitance "
              "modules; the area objective shares\naggressively instead.\n");
  const int threads = runtime::threads();
  const auto sources = obs::Registry::instance().poll_sources();
  std::printf("\nparallel runtime (%d thread(s)):", threads);
  for (const auto& [counter, value] : sources.at("runtime")) {
    std::printf(" %s=%llu", counter.c_str(),
                static_cast<unsigned long long>(value));
  }
  std::printf("\n");
  return 0;
}
