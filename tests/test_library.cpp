#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "library/library.h"

namespace hsyn {
namespace {

/// The paper's Table 1 cycle counts at the reference operating point
/// (5 V, 20 ns clock).
TEST(Library, Table1CycleCountsAtReferencePoint) {
  const Library lib = default_library();
  const OpPoint ref{5.0, 20.0};
  EXPECT_EQ(lib.cycles(lib.find_fu("add1"), ref), 1);
  EXPECT_EQ(lib.cycles(lib.find_fu("add2"), ref), 2);
  EXPECT_EQ(lib.cycles(lib.find_fu("chained_add2"), ref), 2);  // 22 ns
  EXPECT_EQ(lib.cycles(lib.find_fu("chained_add3"), ref), 2);  // 24 ns
  EXPECT_EQ(lib.cycles(lib.find_fu("mult1"), ref), 3);
  EXPECT_EQ(lib.cycles(lib.find_fu("mult2"), ref), 5);
}

TEST(Library, Table1Areas) {
  const Library lib = default_library();
  EXPECT_DOUBLE_EQ(lib.fu(lib.find_fu("add1")).area, 30);
  EXPECT_DOUBLE_EQ(lib.fu(lib.find_fu("add2")).area, 20);
  EXPECT_DOUBLE_EQ(lib.fu(lib.find_fu("chained_add2")).area, 60);
  EXPECT_DOUBLE_EQ(lib.fu(lib.find_fu("chained_add3")).area, 90);
  EXPECT_DOUBLE_EQ(lib.fu(lib.find_fu("mult1")).area, 150);
  EXPECT_DOUBLE_EQ(lib.fu(lib.find_fu("mult2")).area, 100);
  EXPECT_DOUBLE_EQ(lib.reg().area, 10);
}

TEST(Library, Mult2ConsumesLessThanMult1) {
  const Library lib = default_library();
  EXPECT_LT(lib.fu(lib.find_fu("mult2")).cap_sw,
            lib.fu(lib.find_fu("mult1")).cap_sw * 0.6);
}

TEST(Library, FastestForPicksMinimumCycles) {
  const Library lib = default_library();
  const OpPoint ref{5.0, 20.0};
  EXPECT_EQ(lib.fastest_for(Op::Mult, ref), lib.find_fu("mult1"));
  EXPECT_EQ(lib.fastest_for(Op::Add, ref), lib.find_fu("add1"));
  // ALU also does adds but is slower than add1 at 20 ns (24 ns -> 2 cyc).
  EXPECT_NE(lib.fastest_for(Op::Add, ref), lib.find_fu("alu1"));
}

TEST(Library, TypesForMultifunction) {
  const Library lib = default_library();
  const auto add_types = lib.types_for(Op::Add);
  EXPECT_GE(add_types.size(), 5u);  // add1, add2, chains, alu1
  const auto cmp_types = lib.types_for(Op::Cmp);
  EXPECT_GE(cmp_types.size(), 2u);  // cmp1, alu1
}

TEST(Library, DuplicateNameRejected) {
  Library lib = default_library();
  EXPECT_THROW(lib.add_fu({.name = "add1", .ops = {Op::Add}, .area = 1,
                           .delay_ns = 1, .cap_sw = 1}),
               std::logic_error);
}

TEST(Library, CyclesEqualCyclesAtAtEveryOperatingPoint) {
  // The per-thread latency table serves exactly what cycles_at computes,
  // for every type at every candidate supply and clock.
  const Library lib = default_library();
  int points = 0;
  for (const double vdd : default_vdds()) {
    for (const double clk : candidate_clocks(lib.fus(), vdd)) {
      const OpPoint pt{vdd, clk};
      for (int t = 0; t < lib.num_fu_types(); ++t) {
        EXPECT_EQ(lib.cycles(t, pt), cycles_at(lib.fu(t).delay_ns, vdd, clk))
            << lib.fu(t).name << " at " << vdd << " V, " << clk << " ns";
      }
      ++points;
    }
  }
  EXPECT_GT(points, 20);
}

TEST(Library, CyclesServesTypesAddedAfterUse) {
  Library lib = default_library();
  const OpPoint pt{3.3, 15.0};
  const int add1 = lib.find_fu("add1");
  const int before = lib.cycles(add1, pt);  // fills the table
  const int t = lib.add_fu({.name = "slowadd", .ops = {Op::Add}, .area = 5,
                            .delay_ns = 200, .cap_sw = 1});
  EXPECT_EQ(lib.cycles(t, pt), cycles_at(200, pt.vdd, pt.clk_ns));
  EXPECT_EQ(lib.cycles(add1, pt), before);
  EXPECT_THROW((void)lib.cycles(t + 1, pt), std::out_of_range);
  // A copy shares the uid and the content; both see every type.
  const Library copy = lib;
  EXPECT_EQ(copy.cycles(t, pt), lib.cycles(t, pt));
}

TEST(Library, CyclesRejectsInvalidOperatingPoints) {
  const Library lib = default_library();
  const OpPoint ok{5.0, 20.0};
  EXPECT_EQ(lib.cycles(0, ok), cycles_at(lib.fu(0).delay_ns, 5.0, 20.0));
  // Vdd at or below Vt, and non-positive clocks, throw every time -- a
  // failed fill leaves no entry behind.
  for (int rep = 0; rep < 2; ++rep) {
    EXPECT_THROW((void)lib.cycles(0, {kVt, 20.0}), std::logic_error);
    EXPECT_THROW((void)lib.cycles(0, {0.5, 20.0}), std::logic_error);
    EXPECT_THROW((void)lib.cycles(0, {5.0, 0.0}), std::logic_error);
    EXPECT_THROW((void)lib.cycles(0, {5.0, -1.0}), std::logic_error);
  }
  EXPECT_EQ(lib.cycles(0, ok), cycles_at(lib.fu(0).delay_ns, 5.0, 20.0));
}

TEST(Library, CyclesCorrectAcrossThreadsAndOperatingPoints) {
  // Two threads alternate between two operating points (and visit more
  // points than a thread's table holds); every value must stay exact.
  const Library lib = default_library();
  const std::vector<OpPoint> pts = {{5.0, 20.0}, {2.4, 9.5}, {3.3, 12.0},
                                    {1.5, 40.0}, {4.0, 7.0}, {2.9, 25.0}};
  std::vector<std::vector<int>> want(pts.size());
  for (std::size_t p = 0; p < pts.size(); ++p) {
    for (int t = 0; t < lib.num_fu_types(); ++t) {
      want[p].push_back(cycles_at(lib.fu(t).delay_ns, pts[p].vdd, pts[p].clk_ns));
    }
  }
  std::atomic<int> wrong{0};
  auto worker = [&](std::size_t first, std::size_t second, std::size_t npts) {
    for (int it = 0; it < 4000; ++it) {
      const std::size_t p = it % 7 == 6 ? static_cast<std::size_t>(it) % npts
                                        : (it % 2 == 0 ? first : second);
      const int t = it % lib.num_fu_types();
      if (lib.cycles(t, pts[p]) != want[p][static_cast<std::size_t>(t)]) ++wrong;
    }
  };
  std::thread a(worker, 0, 1, pts.size());
  std::thread b(worker, 1, 0, pts.size());
  a.join();
  b.join();
  EXPECT_EQ(wrong.load(), 0);
}

TEST(Vdd, DelayScaleIsOneAtReference) {
  EXPECT_NEAR(delay_scale(5.0), 1.0, 1e-12);
}

TEST(Vdd, DelayGrowsAsVddDrops) {
  // Alpha-power law with a = 1.4 (velocity saturation): moderate
  // slowdowns for large quadratic energy wins.
  EXPECT_GT(delay_scale(3.3), 1.25);
  EXPECT_LT(delay_scale(3.3), 1.5);
  EXPECT_GT(delay_scale(2.4), delay_scale(3.3));
  EXPECT_GT(delay_scale(1.5), delay_scale(2.4));
  EXPECT_GT(delay_scale(1.5), 3.0);
}

TEST(Vdd, EnergyQuadratic) {
  EXPECT_NEAR(energy_scale(5.0), 1.0, 1e-12);
  EXPECT_NEAR(energy_scale(2.5), 0.25, 1e-12);
}

TEST(Vdd, CyclesAtScalesWithVoltage) {
  // mult1 at 5 V / 20 ns = 3 cycles; at 3.3 V it takes ~75 ns -> 4.
  EXPECT_EQ(cycles_at(55, 5.0, 20), 3);
  EXPECT_EQ(cycles_at(55, 3.3, 20), 4);
  EXPECT_GE(cycles_at(55, 1.5, 20), 10);
}

TEST(Vdd, CyclesAtLeastOne) {
  EXPECT_EQ(cycles_at(1.0, 5.0, 100), 1);
}

TEST(Vdd, PruneDropsInfeasibleSupplies) {
  // Keeps exactly the supplies whose scaled critical path fits.
  const double crit = 100, ts = 250;
  const auto pruned = prune_vdds(default_vdds(), crit, ts);
  ASSERT_FALSE(pruned.empty());
  EXPECT_DOUBLE_EQ(pruned[0], 5.0);
  for (const double v : default_vdds()) {
    const bool fits = crit * delay_scale(v) <= ts;
    const bool kept =
        std::find(pruned.begin(), pruned.end(), v) != pruned.end();
    EXPECT_EQ(fits, kept) << "vdd " << v;
  }
  // 1.5 V (scale ~3.7) must be out.
  EXPECT_EQ(std::find(pruned.begin(), pruned.end(), 1.5), pruned.end());
}

TEST(Vdd, CandidateClocksDeduplicateBySignature) {
  const Library lib = default_library();
  const auto clocks = candidate_clocks(lib.fus(), 5.0);
  ASSERT_FALSE(clocks.empty());
  // Descending and unique.
  for (std::size_t i = 1; i < clocks.size(); ++i) {
    EXPECT_LT(clocks[i], clocks[i - 1]);
  }
  // Every clock produces a distinct cycle-count signature.
  std::set<std::vector<int>> sigs;
  for (const double c : clocks) {
    std::vector<int> sig;
    for (const FuType& fu : lib.fus()) sig.push_back(cycles_at(fu.delay_ns, 5.0, c));
    EXPECT_TRUE(sigs.insert(sig).second) << "duplicate signature at clk " << c;
  }
}

TEST(Vdd, CandidateClocksRespectBounds) {
  const Library lib = default_library();
  for (const double c : candidate_clocks(lib.fus(), 5.0, 10, 60)) {
    EXPECT_GE(c, 10.0);
    EXPECT_LE(c, 60.0);
  }
}

}  // namespace
}  // namespace hsyn
