// Reproduces paper Example 2: moves of type A and B applied to the
// Fig. 1(b)-style solution of `test1`.
//
//  * constraint derivation finds the slack the environment offers each
//    complex instance (RTL2's profile relaxes from its current output
//    times toward the consumption deadlines),
//  * move A swaps a module for a better library element -- including a
//    functionally equivalent *different DFG* (C1 -> C2 style), and
//  * move B descends into a module and resynthesizes it, discovering the
//    mult1 -> mult2 swap that cuts power.
#include <cstdio>

#include "benchmarks/benchmarks.h"
#include "power/estimator.h"
#include "sched/scheduler.h"
#include "sched/slack.h"
#include "synth/initial.h"
#include "synth/moves.h"
#include "util/fmt.h"

int main() {
  using namespace hsyn;
  const Library lib = default_library();
  const Benchmark bench = make_benchmark("test1", lib);
  const OpPoint pt{5.0, 20.0};

  SynthContext cx;
  cx.design = &bench.design;
  cx.lib = &lib;
  cx.clib = &bench.clib;
  cx.pt = pt;
  cx.obj = Objective::Power;
  cx.trace = make_trace(bench.design.top().num_inputs(), 32, 42);

  Datapath dp = initial_solution(bench.design.top(), "test1", cx);
  const SchedResult sr = schedule_datapath(dp, lib, pt, kNoDeadline);
  // Like the paper's 12-cycle constraint on Fig. 1(a): modest slack.
  cx.deadline = sr.makespan + sr.makespan / 2;
  schedule_datapath(dp, lib, pt, cx.deadline);

  std::printf("=== Example 2: moves A and B on test1 ===\n");
  std::printf("sampling period: %d cycles (schedule %d)\n\n", cx.deadline,
              sr.makespan);

  std::printf("-- constraint derivation (Fig. 5 middle box) --\n");
  const std::vector<int> alap = alap_starts(dp, 0, lib, pt, cx.deadline);
  for (std::size_t c = 0; c < dp.children.size(); ++c) {
    const Profile p = dp.children[c].impl->profile(0, lib, pt);
    const auto mc = derive_child_constraint(dp, 0, static_cast<int>(c), alap, lib,
                                            pt, cx.deadline);
    if (!mc) continue;
    std::string cur, rel;
    for (const int o : p.out) cur += strf("%d ", o);
    for (const int o : mc->out_deadline) rel += strf("%d ", o);
    std::printf("  %-10s current output times {%s} -> relaxed deadlines {%s}\n",
                dp.children[c].name.c_str(), cur.c_str(), rel.c_str());
  }

  std::printf("\n-- iterated moves A/B (power objective) --\n");
  double energy = energy_of(dp, 0, cx.trace, lib, pt).total();
  std::printf("initial energy/sample: %.1f\n", energy);
  Datapath cur = dp;
  for (int step = 0; step < 8; ++step) {
    const Move m = best_replace_move(cur, cx);
    if (!m.valid || m.gain <= 0) break;
    cur = m.result;
    energy -= m.gain;
    std::printf("  step %d: %-14s %-55s gain %.1f\n", step, m.kind.c_str(),
                m.desc.c_str(), m.gain);
  }
  const double final_energy = energy_of(cur, 0, cx.trace, lib, pt).total();
  std::printf("final energy/sample: %.1f  (%.1fx reduction from moves A/B "
              "alone)\n\n",
              final_energy,
              energy_of(dp, 0, cx.trace, lib, pt).total() / final_energy);

  std::printf("-- resulting module selection --\n");
  for (const ChildUnit& c : cur.children) {
    int m1 = 0, m2 = 0;
    for (const FuUnit& fu : c.impl->fus) {
      m1 += lib.fu(fu.type).name == "mult1" ? 1 : 0;
      m2 += lib.fu(fu.type).name == "mult2" ? 1 : 0;
    }
    std::printf("  %-12s (%s): %d x mult1, %d x mult2\n", c.name.c_str(),
                c.impl->name.c_str(), m1, m2);
  }
  std::printf("\nThe paper's Example 2 behavior: with relaxed constraints the "
              "resynthesis\nprefers the slower, low-switched-capacitance "
              "mult2 (and equivalent-DFG swaps\nwhere the environment "
              "rewards a different factorization).\n");
  return 0;
}
