#include "library/library.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <limits>

#include "util/fmt.h"

namespace hsyn {

void Library::refresh_uid() {
  static std::atomic<std::uint64_t> counter{1};
  uid_ = counter.fetch_add(1, std::memory_order_relaxed);
}

int Library::add_fu(FuType fu) {
  refresh_uid();
  check(!fu.name.empty(), "functional unit type must be named");
  check(find_fu(fu.name) == -1, "duplicate fu type " + fu.name);
  check(!fu.ops.empty() && fu.area > 0 && fu.delay_ns > 0,
        "fu type " + fu.name + " malformed");
  fus_.push_back(std::move(fu));
  return static_cast<int>(fus_.size()) - 1;
}

int Library::find_fu(const std::string& name) const {
  for (std::size_t i = 0; i < fus_.size(); ++i) {
    if (fus_[i].name == name) return static_cast<int>(i);
  }
  return -1;
}

std::vector<int> Library::types_for(Op op) const {
  std::vector<int> out;
  for (std::size_t i = 0; i < fus_.size(); ++i) {
    if (fus_[i].supports(op)) out.push_back(static_cast<int>(i));
  }
  return out;
}

int Library::cycles(int type_id, const OpPoint& pt) const {
  // The scheduler asks for latencies millions of times per search, and
  // cycles_at() costs two std::pow calls. Serve them from a small
  // per-thread table of whole-library latency vectors, keyed by library
  // uid and operating point (a mutated library has a fresh uid, so its
  // entries are never hit again). Entries are filled with cycles_at()
  // itself, so the values -- and its Vdd/clock checks -- are unchanged.
  struct Entry {
    std::uint64_t uid = 0;
    double vdd = 0;
    double clk_ns = 0;
    std::vector<int> cycles;  ///< per type id
  };
  static constexpr std::size_t kEntries = 4;
  thread_local std::array<Entry, kEntries> table;
  thread_local std::size_t next = 0;  // round-robin victim
  for (const Entry& e : table) {
    if (e.uid == uid_ && e.vdd == pt.vdd && e.clk_ns == pt.clk_ns &&
        e.cycles.size() == fus_.size()) {
      return e.cycles.at(static_cast<std::size_t>(type_id));
    }
  }
  Entry& e = table[next];
  next = (next + 1) % kEntries;
  e.uid = 0;  // invalid until fully filled (cycles_at may throw)
  e.cycles.resize(fus_.size());
  for (std::size_t i = 0; i < fus_.size(); ++i) {
    e.cycles[i] = cycles_at(fus_[i].delay_ns, pt.vdd, pt.clk_ns);
  }
  e.uid = uid_;
  e.vdd = pt.vdd;
  e.clk_ns = pt.clk_ns;
  return e.cycles.at(static_cast<std::size_t>(type_id));
}

int Library::fastest_for(Op op, const OpPoint& pt, bool allow_chained) const {
  int best = -1;
  int best_cyc = std::numeric_limits<int>::max();
  double best_area = std::numeric_limits<double>::max();
  for (std::size_t i = 0; i < fus_.size(); ++i) {
    const FuType& fu = fus_[i];
    if (!fu.supports(op)) continue;
    if (fu.chain_depth > 1 && !allow_chained) continue;
    const int c = cycles(static_cast<int>(i), pt);
    if (c < best_cyc || (c == best_cyc && fu.area < best_area)) {
      best = static_cast<int>(i);
      best_cyc = c;
      best_area = fu.area;
    }
  }
  return best;
}

double Library::min_delay_ns(Op op) const {
  double best = std::numeric_limits<double>::max();
  for (const FuType& fu : fus_) {
    if (!fu.supports(op)) continue;
    best = std::min(best, fu.delay_ns / fu.chain_depth);
  }
  check(best < std::numeric_limits<double>::max(),
        strf("no library type supports op %s", op_name(op)));
  return best;
}

Library default_library() {
  Library lib;
  // Paper Table 1 at 5 V / 20 ns clock. Delays chosen so cycles match:
  // ceil(20/20)=1, ceil(38/20)=2, ceil(55/20)=3, ceil(95/20)=5.
  lib.add_fu({.name = "add1", .ops = {Op::Add}, .chain_depth = 1, .area = 30,
              .delay_ns = 20, .cap_sw = 9});
  lib.add_fu({.name = "add2", .ops = {Op::Add}, .chain_depth = 1, .area = 20,
              .delay_ns = 38, .cap_sw = 5.5});
  lib.add_fu({.name = "chained_add2", .ops = {Op::Add}, .chain_depth = 2,
              .area = 60, .delay_ns = 22, .cap_sw = 17});
  lib.add_fu({.name = "chained_add3", .ops = {Op::Add}, .chain_depth = 3,
              .area = 90, .delay_ns = 24, .cap_sw = 25});
  lib.add_fu({.name = "mult1", .ops = {Op::Mult}, .chain_depth = 1, .area = 150,
              .delay_ns = 55, .cap_sw = 130});
  lib.add_fu({.name = "mult2", .ops = {Op::Mult}, .chain_depth = 1, .area = 100,
              .delay_ns = 95, .cap_sw = 62});
  // Pipelined multiplier: same latency as mult1 but accepts new operands
  // every cycle (initiation interval 1). Larger and hotter than mult1, so
  // it only wins where one multiplier serves many closely packed
  // multiplications.
  lib.add_fu({.name = "mult1p", .ops = {Op::Mult}, .chain_depth = 1,
              .area = 180, .delay_ns = 55, .cap_sw = 145, .pipelined = true});
  // Companion types beyond Table 1 needed by the filter/DCT benchmarks.
  lib.add_fu({.name = "sub1", .ops = {Op::Sub}, .chain_depth = 1, .area = 32,
              .delay_ns = 20, .cap_sw = 9.5});
  lib.add_fu({.name = "sub2", .ops = {Op::Sub}, .chain_depth = 1, .area = 22,
              .delay_ns = 38, .cap_sw = 6});
  lib.add_fu({.name = "alu1", .ops = {Op::Add, Op::Sub, Op::Cmp, Op::And, Op::Or,
                                       Op::Xor, Op::Neg},
              .chain_depth = 1, .area = 44, .delay_ns = 24, .cap_sw = 13});
  lib.add_fu({.name = "cmp1", .ops = {Op::Cmp}, .chain_depth = 1, .area = 14,
              .delay_ns = 14, .cap_sw = 3.5});
  lib.add_fu({.name = "shift1", .ops = {Op::ShiftL, Op::ShiftR}, .chain_depth = 1,
              .area = 12, .delay_ns = 10, .cap_sw = 2.5});
  lib.add_fu({.name = "logic1", .ops = {Op::And, Op::Or, Op::Xor, Op::Neg},
              .chain_depth = 1, .area = 10, .delay_ns = 8, .cap_sw = 2});
  lib.set_reg(RegType{.name = "reg1", .area = 10, .cap_sw = 2});
  return lib;
}

}  // namespace hsyn
