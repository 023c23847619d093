#include "power/estimator.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <numeric>
#include <span>

#include "eval/engine.h"
#include "obs/trace.h"
#include "power/replay.h"
#include "rtl/cost.h"
#include "rtl/fingerprint.h"
#include "runtime/parallel.h"
#include "util/fmt.h"
#include "util/hash.h"

namespace hsyn {
namespace {

constexpr std::uint64_t kEnergyTag = 0xE4E26FE4E26F0004ull;

}  // namespace

BehaviorResolver resolver_of(const Datapath& dp) {
  // The flat sorted table is cached inside the datapath per structural
  // fingerprint (rtl/datapath.h), so repeated resolver_of calls -- one
  // per energy_of/simulate_rtl -- cost an atomic load, not a recursive
  // std::map rebuild.
  std::shared_ptr<const BehaviorTable> table = dp.behavior_table();
  return [table = std::move(table)](const std::string& name) -> const Dfg* {
    return table->find(name);
  };
}

EnergyBreakdown energy_of(const Datapath& dp, int b, const Trace& trace,
                          const Library& lib, const OpPoint& pt, bool top_level) {
  EnergyBreakdown eb;
  if (trace.empty()) return eb;
  const BehaviorImpl& bi = dp.behaviors.at(static_cast<std::size_t>(b));
  check(bi.scheduled, "energy_of: behavior not scheduled");

  // Move evaluation calls energy_of thousands of times per pass, usually
  // on candidates whose children are untouched; memoizing on the
  // structural fingerprint makes hierarchical power synthesis as cheap
  // per candidate as flattened synthesis. The cache is shared across the
  // runtime's workers, so a candidate evaluated by one thread is a hit
  // for every other thread.
  eval::EvalEngine& eng = eval::EvalEngine::instance();
  std::uint64_t ctx = hash_mix(kEnergyTag, static_cast<std::uint64_t>(b));
  ctx = hash_double(ctx, pt.vdd);       // exact bits: operating points
  ctx = hash_double(ctx, pt.clk_ns);    // must never alias in the key
  ctx = hash_mix(ctx, top_level ? 1 : 2);
  ctx = hash_mix(ctx, lib.uid());
  const eval::Key key{structure_fingerprint(dp), trace_fingerprint(trace),
                      hash_final(ctx)};
  const auto cached = eng.energy_cache().get(key);
  if (cached && !eng.verify()) return *cached;
  // Only the miss path (the actual estimation) gets a span; hits return
  // above in sub-microsecond time.
  obs::Span span("energy-of");

  const Dfg& dfg = *bi.dfg;
  const StructureCosts& sc = lib.costs();
  const double escale = energy_scale(pt.vdd);
  const double wire_scale = wire_scale_of(dp, lib, top_level);
  const double wire_cap =
      (top_level ? sc.wire_cap_global : sc.wire_cap_local) * wire_scale;
  const double mux_cap = sc.mux_cap_per_input * wire_scale;
  const std::size_t T = trace.size();

  const auto mat_ptr = eval_dfg_edges_shared(dfg, resolver_of(dp), trace);
  const EdgeMatrix& mat = *mat_ptr;
  const auto conn_ptr = eng.connectivity(dp);
  const Connectivity& conn = *conn_ptr;

  // Invocation order within a sample: by start cycle then index.
  const std::size_t ninv = bi.invs.size();
  std::vector<int> order(ninv);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](int a, int c) {
    const int sa = bi.inv_start[static_cast<std::size_t>(a)];
    const int sb = bi.inv_start[static_cast<std::size_t>(c)];
    return sa != sb ? sa < sb : a < c;
  });

  // Input-edge lists per invocation, back to back (invocation i's are
  // ins[ins_begin[i] .. ins_begin[i + 1])), and chained-op signatures.
  std::vector<int> ins;
  std::vector<int> ins_begin(ninv + 1, 0);
  std::vector<int> inv_opbits(ninv, 0);
  for (std::size_t i = 0; i < ninv; ++i) {
    dp.append_inv_input_edges(b, static_cast<int>(i), ins);
    ins_begin[i + 1] = static_cast<int>(ins.size());
    if (bi.invs[i].unit.kind == UnitRef::Kind::Fu) {
      int opbits = 0;
      for (const int nid : bi.invs[i].nodes) {
        opbits = opbits * 16 + static_cast<int>(dfg.node(nid).op);
      }
      inv_opbits[i] = opbits;
    }
  }
  const auto inv_ins = [&](int i) {
    const std::size_t k = static_cast<std::size_t>(i);
    return std::span<const int>(ins.data() + ins_begin[k],
                                ins.data() + ins_begin[k + 1]);
  };

  // Invocations grouped per physical unit (fus first, then children), in
  // schedule order: every activity stream below (functional-unit tuples,
  // port deliveries, child traces) is a per-unit sequence over (sample,
  // schedule slot).
  const std::size_t nfus = dp.fus.size();
  const auto unit_key = [&](int i) {
    const UnitRef& u = bi.invs[static_cast<std::size_t>(i)].unit;
    return static_cast<std::size_t>(u.idx) +
           (u.kind == UnitRef::Kind::Fu ? 0 : nfus);
  };
  std::vector<int> unit_begin(nfus + dp.children.size() + 1, 0);
  for (std::size_t i = 0; i < ninv; ++i) {
    ++unit_begin[unit_key(static_cast<int>(i)) + 1];
  }
  std::partial_sum(unit_begin.begin(), unit_begin.end(), unit_begin.begin());
  std::vector<int> unit_invs(ninv);
  {
    std::vector<int> pos(unit_begin.begin(), unit_begin.end() - 1);
    for (const int i : order) {
      unit_invs[static_cast<std::size_t>(pos[unit_key(i)]++)] = i;
    }
  }
  const auto invs_of = [&](std::size_t key) {
    return std::span<const int>(unit_invs.data() + unit_begin[key],
                                unit_invs.data() + unit_begin[key + 1]);
  };

  // ---- Functional-unit activity streams. ---------------------------------
  // One pass down the unit's invocation stream: consecutive operand
  // tuples on the same unit toggle its inputs; an op change (chained
  // signature) adds a fixed control flip. The whole stream reads edge
  // columns of the matrix -- no per-event vector allocation.
  std::vector<const std::int32_t*> cols;  // per stream slot j: its operand columns
  std::vector<std::size_t> col_begin;
  std::vector<std::int32_t> prev, cur;
  for (std::size_t u = 0; u < nfus; ++u) {
    const std::span<const int> invs = invs_of(u);
    if (invs.empty()) continue;
    const FuType& ft = lib.fu(dp.fus[u].type);
    std::size_t max_arity = 1;
    cols.clear();
    col_begin.assign(1, 0);
    for (const int i : invs) {
      const std::span<const int> in = inv_ins(i);
      max_arity = std::max(max_arity, in.size());
      for (const int e : in) cols.push_back(mat.col(e));
      col_begin.push_back(cols.size());
    }
    prev.assign(max_arity, 0);
    cur.assign(max_arity, 0);
    std::size_t prev_n = 0;
    int prev_opbits = 0;
    bool has_prev = false;
    double act = 0;
    for (std::size_t t = 0; t < T; ++t) {
      for (std::size_t j = 0; j < invs.size(); ++j) {
        const std::size_t n = col_begin[j + 1] - col_begin[j];
        for (std::size_t p = 0; p < n; ++p) cur[p] = cols[col_begin[j] + p][t];
        const int opbits = inv_opbits[static_cast<std::size_t>(invs[j])];
        if (has_prev) {
          const int ham = hamming_tuple(prev.data(), prev_n, cur.data(), n);
          const int bits = static_cast<int>(std::max(prev_n, n)) * 16;
          const double opflip = prev_opbits == opbits ? 0.0 : 4.0;
          act += (ham + opflip) / (bits + 4);
        } else {
          // First evaluation of this unit: half-activity startup.
          act += 0.5;
        }
        std::swap(prev, cur);
        prev_n = n;
        prev_opbits = opbits;
        has_prev = true;
      }
    }
    eb.fu += ft.cap_sw * act * escale;
  }

  // ---- Mux and wire delivery streams. ------------------------------------
  // Per (unit, input port): the delivered-value stream is the port's
  // operand across the unit's invocations, sample-major. The fused
  // gather counts the interleaved stream's toggles directly from the
  // edge columns -- no arena buffer fill per stream -- and the first
  // delivery primes the port and never toggles (toggle_count's
  // convention, which the gather preserves).
  std::vector<const std::int32_t*> src;
  const auto port_streams =
      [&](std::size_t first_key,
          const std::vector<std::vector<std::vector<int>>>& port_srcs) {
        for (std::size_t u = 0; u < port_srcs.size(); ++u) {
          const std::span<const int> invs = invs_of(first_key + u);
          if (invs.empty()) continue;
          const auto& ports = port_srcs[u];
          std::size_t max_ports = 0;
          for (const int i : invs) {
            max_ports = std::max(max_ports, inv_ins(i).size());
          }
          for (std::size_t p = 0; p < max_ports; ++p) {
            src.clear();
            for (const int i : invs) {
              const std::span<const int> in = inv_ins(i);
              if (p < in.size()) src.push_back(mat.col(in[p]));
            }
            const int toggles = toggle_count_gather(src.data(), src.size(), T);
            const double act = toggles / 16.0;
            const bool muxed = p < ports.size() && ports[p].size() > 1;
            eb.wire += wire_cap * act * escale;
            if (muxed) eb.mux += mux_cap * act * escale;
          }
        }
      };
  port_streams(0, conn.fu_port_srcs);
  port_streams(nfus, conn.child_port_srcs);

  // ---- Child traces: per (child idx, behavior name). ---------------------
  std::map<std::pair<int, std::string>, Trace> child_traces;
  for (std::size_t c = 0; c < dp.children.size(); ++c) {
    const std::span<const int> invs = invs_of(nfus + c);
    if (invs.empty()) continue;
    for (std::size_t t = 0; t < T; ++t) {
      for (const int i : invs) {
        const std::span<const int> in = inv_ins(i);
        const Node& n =
            dfg.node(bi.invs[static_cast<std::size_t>(i)].nodes.front());
        Sample s(in.size());
        for (std::size_t p = 0; p < in.size(); ++p) s[p] = mat.at(in[p], t);
        child_traces[{static_cast<int>(c), n.behavior}].push_back(std::move(s));
      }
    }
  }

  // ---- Register write streams. ------------------------------------------
  // Writes per register ordered by ready time within a sample; registers
  // in ascending order, so the sum is the same in every run.
  const std::size_t nregs = dp.regs.size();
  std::vector<int> reg_begin(nregs + 1, 0);
  for (const int r : bi.edge_reg) {
    if (r >= 0) ++reg_begin[static_cast<std::size_t>(r) + 1];
  }
  std::partial_sum(reg_begin.begin(), reg_begin.end(), reg_begin.begin());
  // (ready cycle, edge id) per register write, bucketed by register.
  std::vector<std::pair<int, int>> writes(
      static_cast<std::size_t>(reg_begin.back()));
  {
    std::vector<int> pos(reg_begin.begin(), reg_begin.end() - 1);
    for (const Edge& e : dfg.edges()) {
      const int r = bi.edge_reg[static_cast<std::size_t>(e.id)];
      if (r < 0) continue;
      writes[static_cast<std::size_t>(pos[static_cast<std::size_t>(r)]++)] = {
          dp.edge_ready_time(b, e.id, lib, pt), e.id};
    }
  }
  for (std::size_t r = 0; r < nregs; ++r) {
    const auto first = writes.begin() + reg_begin[r];
    const auto last = writes.begin() + reg_begin[r + 1];
    if (first == last) continue;
    std::sort(first, last);
    cols.clear();
    for (auto it = first; it != last; ++it) cols.push_back(mat.col(it->second));
    const int toggles = toggle_count_gather(cols.data(), cols.size(), T);
    // First write is a half-activity startup; every later write toggles.
    eb.reg += lib.reg().cap_sw * (0.5 + toggles / 16.0) * escale;
  }

  // ---- Controller and register clock tree. -------------------------------
  // This level's registers are clocked for the behavior's active window
  // (modules are clock-gated, so a child's registers burn clock power
  // only during its invocations -- accounted in the recursive call).
  eb.ctrl += sc.ctrl_cap_per_cycle * (bi.makespan + 1) * escale *
             static_cast<double>(T);
  eb.reg += sc.clock_cap_per_reg * static_cast<double>(dp.regs.size()) *
            (bi.makespan + 1) * escale * static_cast<double>(T);

  // ---- Children (recursive). ---------------------------------------------
  // Each child's estimation is independent; fan the recursion out over
  // the runtime and accumulate the per-child totals in map-key order so
  // the floating-point sum is identical for any thread count.
  {
    std::vector<const std::pair<const std::pair<int, std::string>, Trace>*>
        entries;
    entries.reserve(child_traces.size());
    for (const auto& entry : child_traces) entries.push_back(&entry);
    const std::vector<double> child_totals = runtime::parallel_map(
        static_cast<int>(entries.size()), [&](int i) {
          const auto& [ckey, ctrace] = *entries[static_cast<std::size_t>(i)];
          const Datapath& child =
              *dp.children[static_cast<std::size_t>(ckey.first)].impl;
          const int cb = child.find_behavior(ckey.second);
          if (cb < 0) check_failed("energy_of: child lacks behavior " + ckey.second);
          const EnergyBreakdown ce =
              energy_of(child, cb, ctrace, lib, pt, /*top_level=*/false);
          // ce.total() is average per child invocation; ctrace has
          // T x (invocations per sample) entries.
          return ce.total() * (static_cast<double>(ctrace.size()) / T);
        });
    for (const double c : child_totals) eb.children += c;
  }

  // Normalize to energy per sample (except children, already normalized).
  const double inv_T = 1.0 / static_cast<double>(T);
  eb.fu *= inv_T;
  eb.reg *= inv_T;
  eb.mux *= inv_T;
  eb.wire *= inv_T;
  eb.ctrl *= inv_T;
  if (cached) {
    check(cached->fu == eb.fu && cached->reg == eb.reg &&
              cached->mux == eb.mux && cached->wire == eb.wire &&
              cached->ctrl == eb.ctrl && cached->children == eb.children,
          "eval verify: cached energy diverges from recompute");
    return *cached;
  }
  eng.energy_cache().put(key, eb, sizeof(EnergyBreakdown));
  return eb;
}

double power_of(const Datapath& dp, int b, const Trace& trace, const Library& lib,
                const OpPoint& pt, double sample_period_ns) {
  check(sample_period_ns > 0, "power_of: sample period must be positive");
  return energy_of(dp, b, trace, lib, pt).total() / sample_period_ns;
}

}  // namespace hsyn
