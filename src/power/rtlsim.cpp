// Event-driven per-sample simulation: inherently serial within a sample
// (register states thread through the event list), so nothing here is
// batchable across the trace the way the replay kernel's columns are.
// It still consumes the shared replay-evaluated edge matrix and
// per-event hamming16/hamming_tuple sums.
#include "power/rtlsim.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <numeric>
#include <optional>

#include "eval/engine.h"
#include "obs/trace.h"
#include "power/replay.h"
#include "rtl/cost.h"
#include "runtime/parallel.h"
#include "util/fmt.h"

namespace hsyn {
namespace {

struct RegState {
  std::int32_t value = 0;
  int tag = -1;  ///< edge id whose value is currently stored, -1 = undefined
  bool has_value = false;
};

struct PendingWrite {
  int time = 0;
  int reg = -1;
  std::int32_t value = 0;
  int tag = -1;
};

/// One operand read: a child with a staggered profile reads each port at
/// start + profile.in[port]; simple units read everything at start.
struct ReadEvent {
  int time = 0;
  int inv = -1;
  int port = -1;  ///< index into inv_input_edges order
  int edge = -1;
};

}  // namespace

RtlSimResult simulate_rtl(const Datapath& dp, int b, const Trace& trace,
                          const Library& lib, const OpPoint& pt, bool top_level) {
  // Time top-level verification (children run nested).
  std::optional<obs::Span> phase;
  if (top_level) phase.emplace("rtl-verify");
  RtlSimResult res;
  const BehaviorImpl& bi = dp.behaviors.at(static_cast<std::size_t>(b));
  check(bi.scheduled, "simulate_rtl: behavior not scheduled");
  const Dfg& dfg = *bi.dfg;
  const StructureCosts& sc = lib.costs();
  const double escale = energy_scale(pt.vdd);
  // Wire/mux pricing shares the estimator's layout-derived scale, served
  // from the eval engine's area cache (rtl/cost.h).
  const double wire_scale = wire_scale_of(dp, lib, top_level);
  const double wire_cap =
      (top_level ? sc.wire_cap_global : sc.wire_cap_local) * wire_scale;
  const double mux_cap = sc.mux_cap_per_input * wire_scale;
  const std::size_t T = trace.size();
  if (T == 0) {
    res.ok = true;
    return res;
  }

  // Reference values for checking reads and outputs (shared edge matrix,
  // one evaluation also serving eval_dfg below).
  const BehaviorResolver resolver = resolver_of(dp);
  const auto ref_vals_ptr = eval_dfg_edges_shared(dfg, resolver, trace);
  const EdgeMatrix& ref_vals = *ref_vals_ptr;
  const auto ref_outs = eval_dfg(dfg, resolver, trace);
  const auto conn_ptr = eval::EvalEngine::instance().connectivity(dp);
  const Connectivity& conn = *conn_ptr;

  // Static per-invocation info: input edges, per-port read offsets,
  // output schedule.
  const std::size_t ninv = bi.invs.size();
  std::vector<std::vector<int>> inv_ins(ninv);
  std::vector<std::vector<int>> inv_read_off(ninv);
  std::vector<const Datapath*> inv_child(ninv, nullptr);
  std::vector<int> inv_child_beh(ninv, -1);
  std::vector<BehaviorResolver> inv_child_res(ninv);
  for (std::size_t i = 0; i < ninv; ++i) {
    const Invocation& inv = bi.invs[i];
    inv_ins[i] = dp.inv_input_edges(b, static_cast<int>(i));
    inv_read_off[i].assign(inv_ins[i].size(), 0);
    if (inv.unit.kind == UnitRef::Kind::Child) {
      const Node& n = dfg.node(inv.nodes.front());
      const Datapath& child =
          *dp.children[static_cast<std::size_t>(inv.unit.idx)].impl;
      const int cb = child.find_behavior(n.behavior);
      if (cb < 0) check_failed("simulate_rtl: child lacks behavior " + n.behavior);
      inv_child[i] = &child;
      inv_child_beh[i] = cb;
      // Resolver hoisted out of the per-sample completion path.
      inv_child_res[i] = resolver_of(child);
      const Profile& p = child.profile(cb, lib, pt);
      // inv_input_edges order for a single hier node is its port order.
      for (std::size_t k = 0; k < inv_ins[i].size(); ++k) {
        inv_read_off[i][k] = p.in[k];
      }
    }
  }

  std::vector<RegState> regs(dp.regs.size());
  struct FuState {
    bool has_prev = false;
    std::vector<std::int32_t> prev;
  };
  std::vector<FuState> fu_state(dp.fus.size());
  std::map<std::tuple<int, int, int>, std::int32_t> port_prev;
  std::map<std::pair<int, std::string>, Trace> child_traces;

  auto violation = [&res](std::string msg) {
    if (res.violations.size() < 32) res.violations.push_back(std::move(msg));
  };

  res.outputs.resize(T);
  for (std::size_t t = 0; t < T; ++t) {
    std::vector<PendingWrite> writes;
    // Primary inputs are written into their registers at their arrival
    // cycles by the environment.
    for (int i = 0; i < dfg.num_inputs(); ++i) {
      const int eid = dfg.primary_input_edge(i);
      if (eid < 0) continue;
      const int r = bi.edge_reg[static_cast<std::size_t>(eid)];
      check(r >= 0, "primary input edge without register");
      writes.push_back({bi.input_arrival[static_cast<std::size_t>(i)], r,
                        trace[t][static_cast<std::size_t>(i)], eid});
    }
    std::sort(writes.begin(), writes.end(),
              [](const PendingWrite& a, const PendingWrite& b) {
                return a.time < b.time;
              });
    std::size_t wi = 0;
    std::vector<PendingWrite> dynamic_writes;
    auto flush_writes = [&](int now) {
      // Writes with time <= now are visible to reads at `now` (the
      // scheduler guarantees write >= read + 1 for WAR pairs, so
      // equality only occurs producer -> consumer).
      auto apply = [&](const PendingWrite& w) {
        RegState& r = regs[static_cast<std::size_t>(w.reg)];
        const double ham =
            r.has_value ? hamming16(r.value, w.value) / 16.0 : 0.5;
        res.energy.reg += lib.reg().cap_sw * ham * escale;
        r.value = w.value;
        r.tag = w.tag;
        r.has_value = true;
      };
      while (wi < writes.size() && writes[wi].time <= now) {
        apply(writes[wi]);
        ++wi;
      }
      std::vector<PendingWrite> rest;
      for (const PendingWrite& w : dynamic_writes) {
        if (w.time <= now) {
          apply(w);
        } else {
          rest.push_back(w);
        }
      }
      dynamic_writes = std::move(rest);
    };

    // Per-operand read events (stable order: time, inv, port).
    std::vector<ReadEvent> reads;
    for (std::size_t i = 0; i < ninv; ++i) {
      const int start = bi.inv_start[i];
      for (std::size_t p = 0; p < inv_ins[i].size(); ++p) {
        reads.push_back({start + inv_read_off[i][p], static_cast<int>(i),
                         static_cast<int>(p), inv_ins[i][p]});
      }
    }
    std::stable_sort(reads.begin(), reads.end(),
                     [](const ReadEvent& a, const ReadEvent& b) {
                       if (a.time != b.time) return a.time < b.time;
                       if (a.inv != b.inv) return a.inv < b.inv;
                       return a.port < b.port;
                     });

    std::vector<std::vector<std::int32_t>> operands(ninv);
    std::vector<std::size_t> reads_left(ninv);
    for (std::size_t i = 0; i < ninv; ++i) {
      operands[i].assign(inv_ins[i].size(), 0);
      reads_left[i] = inv_ins[i].size();
    }

    auto complete_invocation = [&](std::size_t i) {
      const Invocation& inv = bi.invs[i];
      const int start = bi.inv_start[i];
      if (inv.unit.kind == UnitRef::Kind::Fu) {
        FuState& st = fu_state[static_cast<std::size_t>(inv.unit.idx)];
        const FuType& ft =
            lib.fu(dp.fus[static_cast<std::size_t>(inv.unit.idx)].type);
        if (st.has_prev) {
          const std::size_t n = std::max(st.prev.size(), operands[i].size());
          const int ham = hamming_tuple(st.prev.data(), st.prev.size(),
                                        operands[i].data(), operands[i].size());
          res.energy.fu +=
              ft.cap_sw * (static_cast<double>(ham) / (16.0 * n)) * escale;
        } else {
          res.energy.fu += ft.cap_sw * 0.5 * escale;
        }
        st.prev = operands[i];
        st.has_prev = true;
        // Evaluate the (possibly chained) operation combinationally.
        std::map<int, std::int32_t> local;  // edge -> value within chain
        std::size_t op_idx = 0;
        std::int32_t out_val = 0;
        for (const int nid : inv.nodes) {
          const Node& n = dfg.node(nid);
          std::int32_t a = 0, bv = 0;
          for (int p = 0; p < n.num_inputs; ++p) {
            const int e = dfg.input_edge(nid, p);
            auto lit = local.find(e);
            if (lit != local.end()) {
              (p == 0 ? a : bv) = lit->second;
            } else {
              (p == 0 ? a : bv) = operands[i][op_idx++];
            }
          }
          out_val = eval_op(n.op, a, bv);
          const int oe = dfg.output_edge(nid, 0);
          if (oe >= 0) local[oe] = out_val;
        }
        const int ready =
            start +
            lib.cycles(dp.fus[static_cast<std::size_t>(inv.unit.idx)].type, pt);
        for (const int e : dp.inv_output_edges(b, static_cast<int>(i))) {
          const int r = bi.edge_reg[static_cast<std::size_t>(e)];
          if (r >= 0) dynamic_writes.push_back({ready, r, out_val, e});
        }
      } else {
        const Node& n = dfg.node(inv.nodes.front());
        const Datapath& child = *inv_child[i];
        Trace one(1);
        one[0] = operands[i];
        const std::vector<Sample> outs = eval_dfg(
            *child.behaviors[static_cast<std::size_t>(inv_child_beh[i])].dfg,
            inv_child_res[i], one);
        const Profile& prof = child.profile(inv_child_beh[i], lib, pt);
        for (int port = 0; port < n.num_outputs; ++port) {
          const int e = dfg.output_edge(inv.nodes.front(), port);
          if (e < 0) continue;
          const int r = bi.edge_reg[static_cast<std::size_t>(e)];
          if (r >= 0) {
            dynamic_writes.push_back(
                {start + prof.out[static_cast<std::size_t>(port)], r,
                 outs[0][static_cast<std::size_t>(port)], e});
          }
        }
        child_traces[{inv.unit.idx, n.behavior}].push_back(operands[i]);
      }
    };

    for (const ReadEvent& rd : reads) {
      flush_writes(rd.time);
      const std::size_t i = static_cast<std::size_t>(rd.inv);
      const Invocation& inv = bi.invs[i];
      const int e = rd.edge;
      const int r = bi.edge_reg[static_cast<std::size_t>(e)];
      std::int32_t v = 0;
      if (r < 0) {
        violation(strf("inv %d reads unregistered edge %d", rd.inv, e));
      } else {
        const RegState& st = regs[static_cast<std::size_t>(r)];
        if (!st.has_value) {
          violation(strf("inv %d reads uninitialized register %d at cycle %d",
                         rd.inv, r, rd.time));
        } else if (st.tag != e) {
          violation(strf("inv %d expected edge %d in register %d but found "
                         "edge %d at cycle %d (hazard)",
                         rd.inv, e, r, st.tag, rd.time));
        }
        v = st.value;
        if (st.has_value && st.tag == e && v != ref_vals.at(e, t)) {
          violation(strf("inv %d edge %d: register value %d != reference %d",
                         rd.inv, e, v, ref_vals.at(e, t)));
        }
      }
      operands[i][static_cast<std::size_t>(rd.port)] = v;

      // Mux + wire energy per operand delivery.
      const int ukind = static_cast<int>(inv.unit.kind);
      const auto& ports =
          inv.unit.kind == UnitRef::Kind::Fu
              ? conn.fu_port_srcs[static_cast<std::size_t>(inv.unit.idx)]
              : conn.child_port_srcs[static_cast<std::size_t>(inv.unit.idx)];
      auto key = std::make_tuple(ukind, inv.unit.idx, rd.port);
      auto it = port_prev.find(key);
      if (it != port_prev.end()) {
        const double act = hamming16(it->second, v) / 16.0;
        const bool muxed = static_cast<std::size_t>(rd.port) < ports.size() &&
                           ports[static_cast<std::size_t>(rd.port)].size() > 1;
        res.energy.wire += wire_cap * act * escale;
        if (muxed) res.energy.mux += mux_cap * act * escale;
        it->second = v;
      } else {
        port_prev.emplace(key, v);
      }

      if (--reads_left[i] == 0) complete_invocation(i);
    }
    flush_writes(1 << 29);  // end of sample: apply all remaining writes

    // Sample the primary outputs.
    res.outputs[t].resize(static_cast<std::size_t>(dfg.num_outputs()));
    for (int o = 0; o < dfg.num_outputs(); ++o) {
      const int e = dfg.primary_output_edge(o);
      const int r = bi.edge_reg[static_cast<std::size_t>(e)];
      std::int32_t v = 0;
      if (r >= 0) {
        const RegState& st = regs[static_cast<std::size_t>(r)];
        if (!st.has_value || st.tag != e) {
          violation(strf("primary output %d not present in register %d at "
                         "sample end",
                         o, r));
        }
        v = st.value;
      }
      res.outputs[t][static_cast<std::size_t>(o)] = v;
      if (v != ref_outs[t][static_cast<std::size_t>(o)]) {
        violation(strf("sample %zu output %d: rtl %d != behavior %d", t, o, v,
                       ref_outs[t][static_cast<std::size_t>(o)]));
      }
    }
    res.energy.ctrl += sc.ctrl_cap_per_cycle * (bi.makespan + 1) * escale;
    res.energy.reg += sc.clock_cap_per_reg *
                      static_cast<double>(dp.regs.size()) *
                      (bi.makespan + 1) * escale;
  }

  // Recursively verify children on their observed input streams. The
  // per-child simulations are independent, so they fan out over the
  // runtime; violations and energies are folded back in map-key order
  // so the report and the floating-point sum are thread-count
  // independent.
  {
    std::vector<const std::pair<const std::pair<int, std::string>, Trace>*>
        entries;
    entries.reserve(child_traces.size());
    for (const auto& entry : child_traces) entries.push_back(&entry);
    const std::vector<RtlSimResult> child_results = runtime::parallel_map(
        static_cast<int>(entries.size()), [&](int i) {
          const auto& [key, ctrace] = *entries[static_cast<std::size_t>(i)];
          const Datapath& child =
              *dp.children[static_cast<std::size_t>(key.first)].impl;
          const int cb = child.find_behavior(key.second);
          return simulate_rtl(child, cb, ctrace, lib, pt,
                              /*top_level=*/false);
        });
    for (std::size_t i = 0; i < entries.size(); ++i) {
      const auto& [key, ctrace] = *entries[i];
      const RtlSimResult& cr = child_results[i];
      for (const std::string& v : cr.violations) {
        violation("child " +
                  dp.children[static_cast<std::size_t>(key.first)].name +
                  ": " + v);
      }
      res.energy.children +=
          cr.energy.total() * (static_cast<double>(ctrace.size()) / T);
    }
  }

  const double inv_T = 1.0 / static_cast<double>(T);
  res.energy.fu *= inv_T;
  res.energy.reg *= inv_T;
  res.energy.mux *= inv_T;
  res.energy.wire *= inv_T;
  res.energy.ctrl *= inv_T;
  res.ok = res.violations.empty();
  return res;
}

}  // namespace hsyn
