#include "power/estimator.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <numeric>

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
  std::vector<int> order(bi.invs.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](int a, int c) {
    const int sa = bi.inv_start[static_cast<std::size_t>(a)];
    const int sb = bi.inv_start[static_cast<std::size_t>(c)];
    return sa != sb ? sa < sb : a < c;
  });

  // Cached input-edge lists and chained-op signatures per invocation.
  std::vector<std::vector<int>> inv_ins(bi.invs.size());
  std::vector<int> inv_opbits(bi.invs.size(), 0);
  for (std::size_t i = 0; i < bi.invs.size(); ++i) {
    inv_ins[i] = dp.inv_input_edges(b, static_cast<int>(i));
    if (bi.invs[i].unit.kind == UnitRef::Kind::Fu) {
      int opbits = 0;
      for (const int nid : bi.invs[i].nodes) {
        opbits = opbits * 16 + static_cast<int>(dfg.node(nid).op);
      }
      inv_opbits[i] = opbits;
    }
  }

  // Invocations grouped per physical unit, in schedule order: every
  // activity stream below (functional-unit tuples, port deliveries,
  // child traces) is a per-unit sequence over (sample, schedule slot).
  std::vector<std::vector<int>> fu_invs(dp.fus.size());
  std::vector<std::vector<int>> child_invs(dp.children.size());
  for (const int i : order) {
    const Invocation& inv = bi.invs[static_cast<std::size_t>(i)];
    auto& bucket = inv.unit.kind == UnitRef::Kind::Fu
                       ? fu_invs[static_cast<std::size_t>(inv.unit.idx)]
                       : child_invs[static_cast<std::size_t>(inv.unit.idx)];
    bucket.push_back(i);
  }

  // ---- Functional-unit activity streams. ---------------------------------
  // One pass down the unit's invocation stream: consecutive operand
  // tuples on the same unit toggle its inputs; an op change (chained
  // signature) adds a fixed control flip. The whole stream reads edge
  // columns of the matrix -- no per-event vector allocation.
  for (std::size_t u = 0; u < dp.fus.size(); ++u) {
    const std::vector<int>& invs = fu_invs[u];
    if (invs.empty()) continue;
    const FuType& ft = lib.fu(dp.fus[u].type);
    std::size_t max_arity = 1;
    std::vector<std::vector<const std::int32_t*>> cols(invs.size());
    for (std::size_t j = 0; j < invs.size(); ++j) {
      const std::vector<int>& ins = inv_ins[static_cast<std::size_t>(invs[j])];
      max_arity = std::max(max_arity, ins.size());
      cols[j].reserve(ins.size());
      for (const int e : ins) cols[j].push_back(mat.col(e));
    }
    std::vector<std::int32_t> prev(max_arity), cur(max_arity);
    std::size_t prev_n = 0;
    int prev_opbits = 0;
    bool has_prev = false;
    double act = 0;
    for (std::size_t t = 0; t < T; ++t) {
      for (std::size_t j = 0; j < invs.size(); ++j) {
        const std::size_t n = cols[j].size();
        for (std::size_t p = 0; p < n; ++p) cur[p] = cols[j][p][t];
        if (has_prev) {
          const int ham = hamming_tuple(prev.data(), prev_n, cur.data(), n);
          const int bits = static_cast<int>(std::max(prev_n, n)) * 16;
          const double opflip =
              prev_opbits == inv_opbits[static_cast<std::size_t>(invs[j])] ? 0.0
                                                                           : 4.0;
          act += (ham + opflip) / (bits + 4);
        } else {
          // First evaluation of this unit: half-activity startup.
          act += 0.5;
        }
        std::swap(prev, cur);
        prev_n = n;
        prev_opbits = inv_opbits[static_cast<std::size_t>(invs[j])];
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
  const auto port_streams =
      [&](const std::vector<std::vector<int>>& unit_invs,
          const std::vector<std::vector<std::set<int>>>& port_srcs) {
        for (std::size_t u = 0; u < unit_invs.size(); ++u) {
          const std::vector<int>& invs = unit_invs[u];
          if (invs.empty()) continue;
          const auto& ports = port_srcs[u];
          std::size_t max_ports = 0;
          for (const int i : invs) {
            max_ports =
                std::max(max_ports, inv_ins[static_cast<std::size_t>(i)].size());
          }
          for (std::size_t p = 0; p < max_ports; ++p) {
            std::vector<const std::int32_t*> src;
            src.reserve(invs.size());
            for (const int i : invs) {
              const std::vector<int>& ins = inv_ins[static_cast<std::size_t>(i)];
              if (p < ins.size()) src.push_back(mat.col(ins[p]));
            }
            const int toggles = toggle_count_gather(src.data(), src.size(), T);
            const double act = toggles / 16.0;
            const bool muxed = p < ports.size() && ports[p].size() > 1;
            eb.wire += wire_cap * act * escale;
            if (muxed) eb.mux += mux_cap * act * escale;
          }
        }
      };
  port_streams(fu_invs, conn.fu_port_srcs);
  port_streams(child_invs, conn.child_port_srcs);

  // ---- Child traces: per (child idx, behavior name). ---------------------
  std::map<std::pair<int, std::string>, Trace> child_traces;
  for (std::size_t c = 0; c < dp.children.size(); ++c) {
    const std::vector<int>& invs = child_invs[c];
    if (invs.empty()) continue;
    for (std::size_t t = 0; t < T; ++t) {
      for (const int i : invs) {
        const std::vector<int>& ins = inv_ins[static_cast<std::size_t>(i)];
        const Node& n =
            dfg.node(bi.invs[static_cast<std::size_t>(i)].nodes.front());
        Sample s(ins.size());
        for (std::size_t p = 0; p < ins.size(); ++p) s[p] = mat.at(ins[p], t);
        child_traces[{static_cast<int>(c), n.behavior}].push_back(std::move(s));
      }
    }
  }

  // ---- Register write streams. ------------------------------------------
  // Writes per register ordered by ready time within a sample.
  std::map<int, std::vector<int>> reg_edges;  // reg -> edge ids
  for (const Edge& e : dfg.edges()) {
    const int r = bi.edge_reg[static_cast<std::size_t>(e.id)];
    if (r >= 0) reg_edges[r].push_back(e.id);
  }
  for (auto& [r, eids] : reg_edges) {
    std::sort(eids.begin(), eids.end(), [&](int a, int c) {
      const int ta = dp.edge_ready_time(b, a, lib, pt);
      const int tc = dp.edge_ready_time(b, c, lib, pt);
      return ta != tc ? ta < tc : a < c;
    });
    std::vector<const std::int32_t*> cols;
    cols.reserve(eids.size());
    for (const int e : eids) cols.push_back(mat.col(e));
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
