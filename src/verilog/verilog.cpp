#include "verilog/verilog.h"

#include <cctype>
#include <map>
#include <set>
#include <sstream>

#include "rtl/cost.h"
#include "util/fmt.h"

namespace hsyn {
namespace {

constexpr int kWidth = 16;

// Timing conventions of the emitted RTL (all registers use nonblocking
// assignment; `state` counts cycles from the start pulse):
//  * A guard `state == k` executes at the clock edge *entering* cycle
//    k+1, and therefore samples values as they stood during cycle k.
//  * Single-cycle results load under `state == start`, multicycle
//    results capture operands into shadow registers under
//    `state == start` and load the result under `state == ready-1`.
//  * An operand read at cycle t resolves to: the input port when it is a
//    primary input arriving exactly at t; the child output wire when it
//    is produced by a child completing exactly at t; the holding
//    register otherwise. This reproduces the scheduler's same-cycle
//    producer->consumer handoff without read-after-write races.
//  * Module outputs are continuous assigns of their holding registers.

std::string sanitize(const std::string& name) {
  std::string out;
  for (const char c : name) {
    out += (std::isalnum(static_cast<unsigned char>(c)) != 0) ? c : '_';
  }
  if (out.empty() || std::isdigit(static_cast<unsigned char>(out[0])) != 0) {
    out = "m_" + out;
  }
  return out;
}

const char* verilog_op(Op op) {
  switch (op) {
    case Op::Add: return "+";
    case Op::Sub: return "-";
    case Op::Mult: return "*";
    case Op::And: return "&";
    case Op::Or: return "|";
    case Op::Xor: return "^";
    default: return "?";
  }
}

int state_bits(const Datapath& dp) {
  int maxspan = 1;
  for (const BehaviorImpl& bi : dp.behaviors) {
    maxspan = std::max(maxspan, bi.makespan + 1);
  }
  int bits = 1;
  while ((1 << bits) <= maxspan + 1) ++bits;
  return bits;
}

class Emitter {
 public:
  Emitter(const Library& lib, const OpPoint& pt) : lib_(lib), pt_(pt) {}

  std::string emit(const Datapath& dp, const std::string& name_hint) {
    const std::string name = unique_name(sanitize(
        name_hint.empty() ? (dp.name.empty() ? "datapath" : dp.name)
                          : name_hint));
    std::vector<std::string> child_names;
    for (std::size_t c = 0; c < dp.children.size(); ++c) {
      child_names.push_back(
          emit(*dp.children[c].impl, name + "_c" + std::to_string(c)));
    }
    emit_module(dp, name, child_names);
    return name;
  }

  std::string str() const { return out_.str(); }

 private:
  std::string unique_name(std::string base) {
    if (used_.insert(base).second) return base;
    for (int k = 2;; ++k) {
      const std::string cand = base + "_" + std::to_string(k);
      if (used_.insert(cand).second) return cand;
    }
  }

  /// Source expression for the value on edge `e` of behavior `b`, as
  /// observed during cycle `t` (see timing conventions above).
  std::string edge_source(const Datapath& dp, int b, int e, int t) {
    const BehaviorImpl& bi = dp.behaviors[static_cast<std::size_t>(b)];
    const Edge& edge = bi.dfg->edge(e);
    if (edge.src.node == kPrimaryIn &&
        bi.input_arrival[static_cast<std::size_t>(edge.src.port)] == t) {
      return strf("in_%d", edge.src.port);
    }
    if (edge.src.node >= 0) {
      const int pi = bi.inv_of(edge.src.node);
      const Invocation& pinv = bi.invs[static_cast<std::size_t>(pi)];
      if (pinv.unit.kind == UnitRef::Kind::Child &&
          dp.edge_ready_time(b, e, lib_, pt_) == t) {
        return strf("c%d_out%d", pinv.unit.idx, edge.src.port);
      }
    }
    return strf("r%d", bi.edge_reg[static_cast<std::size_t>(e)]);
  }

  /// Expression computing invocation `i`'s result from the given operand
  /// terms (chains inlined; `term` maps external edge -> Verilog term).
  std::string inv_expr(const Datapath& dp, int b, int i,
                       const std::map<int, std::string>& term) {
    const BehaviorImpl& bi = dp.behaviors[static_cast<std::size_t>(b)];
    const Dfg& dfg = *bi.dfg;
    const Invocation& inv = bi.invs[static_cast<std::size_t>(i)];
    std::map<int, std::string> local;
    std::string expr;
    for (const int nid : inv.nodes) {
      const Node& n = dfg.node(nid);
      auto operand = [&](int port) -> std::string {
        const int e = dfg.input_edge(nid, port);
        auto it = local.find(e);
        if (it != local.end()) return it->second;
        return term.at(e);
      };
      if (n.op == Op::Cmp) {
        expr = strf("(($signed(%s) < $signed(%s)) ? %d'd1 : %d'd0)",
                    operand(0).c_str(), operand(1).c_str(), kWidth, kWidth);
      } else if (n.op == Op::Neg) {
        expr = strf("(-%s)", operand(0).c_str());
      } else if (n.op == Op::ShiftR) {
        expr = strf("($signed(%s) >>> %s[3:0])", operand(0).c_str(),
                    operand(1).c_str());
      } else if (n.op == Op::ShiftL) {
        expr = strf("(%s << %s[3:0])", operand(0).c_str(), operand(1).c_str());
      } else {
        expr = strf("(%s %s %s)", operand(0).c_str(), verilog_op(n.op),
                    operand(1).c_str());
      }
      const int oe = dfg.output_edge(nid, 0);
      if (oe >= 0) local[oe] = expr;
    }
    return expr;
  }

  void emit_module(const Datapath& dp, const std::string& name,
                   const std::vector<std::string>& child_names) {
    const std::size_t nbeh = dp.behaviors.size();
    int max_in = 0, max_out = 0;
    for (const BehaviorImpl& bi : dp.behaviors) {
      max_in = std::max(max_in, bi.dfg->num_inputs());
      max_out = std::max(max_out, bi.dfg->num_outputs());
    }
    const int sbits = state_bits(dp);

    out_ << "// " << name << ": " << dp.fus.size() << " functional unit(s), "
         << dp.regs.size() << " register(s), " << dp.children.size()
         << " submodule(s), " << nbeh << " behavior(s)\n";
    out_ << "module " << name << "(\n  input wire clk,\n  input wire start";
    if (nbeh > 1) out_ << ",\n  input wire [3:0] sel";
    for (int i = 0; i < max_in; ++i) {
      out_ << strf(",\n  input wire [%d:0] in_%d", kWidth - 1, i);
    }
    for (int o = 0; o < max_out; ++o) {
      out_ << strf(",\n  output wire [%d:0] out_%d", kWidth - 1, o);
    }
    out_ << ",\n  output reg done\n);\n";

    for (std::size_t r = 0; r < dp.regs.size(); ++r) {
      out_ << strf("  reg [%d:0] r%zu;\n", kWidth - 1, r);
    }
    out_ << strf("  reg [%d:0] state;\n  reg running;\n", sbits - 1);

    // Child instances.
    struct Use {
      int beh;
      int start;
      int node;
      int child_beh;
    };
    std::vector<std::vector<Use>> child_uses(dp.children.size());
    for (std::size_t b = 0; b < nbeh; ++b) {
      const BehaviorImpl& bi = dp.behaviors[b];
      for (std::size_t i = 0; i < bi.invs.size(); ++i) {
        const Invocation& inv = bi.invs[i];
        if (inv.unit.kind != UnitRef::Kind::Child) continue;
        const Datapath& child =
            *dp.children[static_cast<std::size_t>(inv.unit.idx)].impl;
        const Node& n = bi.dfg->node(inv.nodes.front());
        child_uses[static_cast<std::size_t>(inv.unit.idx)].push_back(
            {static_cast<int>(b), bi.inv_start[i], inv.nodes.front(),
             child.find_behavior(n.behavior)});
      }
    }
    for (std::size_t c = 0; c < dp.children.size(); ++c) {
      const Datapath& child = *dp.children[c].impl;
      const std::vector<Use>& uses = child_uses[c];
      int cin = 0, cout = 0;
      for (const BehaviorImpl& cbi : child.behaviors) {
        cin = std::max(cin, cbi.dfg->num_inputs());
        cout = std::max(cout, cbi.dfg->num_outputs());
      }
      auto guard = [&](const Use& u) {
        return nbeh > 1 ? strf("(sel == 4'd%d && state == %d)", u.beh, u.start)
                        : strf("(state == %d)", u.start);
      };
      out_ << strf("  wire c%zu_start = running && (", c);
      for (std::size_t k = 0; k < uses.size(); ++k) {
        out_ << (k ? " || " : "") << guard(uses[k]);
      }
      if (uses.empty()) out_ << "1'b0";
      out_ << ");\n";
      for (int p = 0; p < cin; ++p) {
        out_ << strf("  wire [%d:0] c%zu_in%d = ", kWidth - 1, c, p);
        std::string fallback = strf("%d'd0", kWidth);
        bool first = true;
        for (const Use& u : uses) {
          const BehaviorImpl& bi = dp.behaviors[static_cast<std::size_t>(u.beh)];
          const Node& n = bi.dfg->node(u.node);
          if (p >= n.num_inputs) continue;
          const int e = bi.dfg->input_edge(u.node, p);
          const std::string src =
              strf("r%d", bi.edge_reg[static_cast<std::size_t>(e)]);
          if (first) {
            fallback = src;
            first = false;
          } else if (nbeh > 1) {
            out_ << strf("(sel == 4'd%d) ? %s : ", u.beh, src.c_str());
            continue;
          } else {
            out_ << strf("(state >= %d) ? %s : ", u.start, src.c_str());
            continue;
          }
        }
        out_ << fallback << ";\n";
      }
      for (int o = 0; o < cout; ++o) {
        out_ << strf("  wire [%d:0] c%zu_out%d;\n", kWidth - 1, c, o);
      }
      out_ << strf("  %s c%zu(.clk(clk), .start(c%zu_start)",
                   child_names[c].c_str(), c, c);
      if (child.behaviors.size() > 1) {
        out_ << ", .sel(";
        if (uses.empty()) {
          out_ << "4'd0";
        } else if (uses.size() == 1 || nbeh == 1) {
          out_ << strf("4'd%d", uses[0].child_beh);
        } else {
          for (std::size_t k = 0; k + 1 < uses.size(); ++k) {
            out_ << strf("(sel == 4'd%d) ? 4'd%d : ", uses[k].beh,
                         uses[k].child_beh);
          }
          out_ << strf("4'd%d", uses.back().child_beh);
        }
        out_ << ")";
      }
      for (int p = 0; p < cin; ++p) {
        out_ << strf(", .in_%d(c%zu_in%d)", p, c, p);
      }
      for (int o = 0; o < cout; ++o) {
        out_ << strf(", .out_%d(c%zu_out%d)", o, c, o);
      }
      out_ << ", .done());\n";
    }

    // Operand shadow registers of multicycle invocations.
    for (std::size_t b = 0; b < nbeh; ++b) {
      const BehaviorImpl& bi = dp.behaviors[b];
      for (std::size_t i = 0; i < bi.invs.size(); ++i) {
        const Invocation& inv = bi.invs[i];
        if (inv.unit.kind != UnitRef::Kind::Fu) continue;
        const int lat =
            lib_.cycles(dp.fus[static_cast<std::size_t>(inv.unit.idx)].type, pt_);
        if (lat < 2) continue;
        const auto ins = dp.inv_input_edges(static_cast<int>(b),
                                            static_cast<int>(i));
        for (std::size_t p = 0; p < ins.size(); ++p) {
          out_ << strf("  reg [%d:0] t_b%zu_i%zu_%zu;\n", kWidth - 1, b, i, p);
        }
      }
    }

    // Module outputs: continuous assigns of the holding registers. For
    // merged modules, select by behavior.
    for (int o = 0; o < max_out; ++o) {
      out_ << strf("  assign out_%d = ", o);
      std::string fallback = strf("%d'd0", kWidth);
      std::vector<std::pair<std::size_t, int>> srcs;  // (behavior, reg)
      for (std::size_t b = 0; b < nbeh; ++b) {
        const BehaviorImpl& bi = dp.behaviors[b];
        if (o >= bi.dfg->num_outputs()) continue;
        const int e = bi.dfg->primary_output_edge(o);
        srcs.push_back({b, bi.edge_reg[static_cast<std::size_t>(e)]});
      }
      if (srcs.empty()) {
        out_ << fallback << ";\n";
      } else if (srcs.size() == 1 || nbeh == 1) {
        out_ << strf("r%d;\n", srcs[0].second);
      } else {
        for (std::size_t k = 0; k + 1 < srcs.size(); ++k) {
          out_ << strf("(sel == 4'd%zu) ? r%d : ", srcs[k].first,
                       srcs[k].second);
        }
        out_ << strf("r%d;\n", srcs.back().second);
      }
    }

    // The FSM and register transfers.
    out_ << "\n  always @(posedge clk) begin\n    done <= 1'b0;\n";
    out_ << "    if (start) begin\n      state <= 0;\n      running <= 1'b1;\n";
    for (std::size_t b = 0; b < nbeh; ++b) {
      const BehaviorImpl& bi = dp.behaviors[b];
      const std::string g = nbeh > 1 ? strf("if (sel == 4'd%zu) ", b) : "";
      for (int i = 0; i < bi.dfg->num_inputs(); ++i) {
        const int e = bi.dfg->primary_input_edge(i);
        if (e < 0) continue;
        const int r = bi.edge_reg[static_cast<std::size_t>(e)];
        if (r >= 0 && bi.input_arrival[static_cast<std::size_t>(i)] == 0) {
          out_ << strf("      %sr%d <= in_%d;\n", g.c_str(), r, i);
        }
      }
    }
    out_ << "    end else if (running) begin\n";
    out_ << "      state <= state + 1'b1;\n";

    for (std::size_t b = 0; b < nbeh; ++b) {
      const BehaviorImpl& bi = dp.behaviors[b];
      const std::string g =
          nbeh > 1 ? strf(" && sel == 4'd%zu", b) : std::string();
      // Late-arriving primary inputs latch from their ports at arrival.
      for (int i = 0; i < bi.dfg->num_inputs(); ++i) {
        const int arr = bi.input_arrival[static_cast<std::size_t>(i)];
        if (arr == 0) continue;
        const int e = bi.dfg->primary_input_edge(i);
        if (e < 0) continue;
        const int r = bi.edge_reg[static_cast<std::size_t>(e)];
        if (r >= 0) {
          out_ << strf("      if (state == %d%s) r%d <= in_%d;\n", arr,
                       g.c_str(), r, i);
        }
      }
      for (std::size_t i = 0; i < bi.invs.size(); ++i) {
        const Invocation& inv = bi.invs[i];
        const int start = bi.inv_start[i];
        if (inv.unit.kind == UnitRef::Kind::Fu) {
          const int lat = lib_.cycles(
              dp.fus[static_cast<std::size_t>(inv.unit.idx)].type, pt_);
          const auto ins =
              dp.inv_input_edges(static_cast<int>(b), static_cast<int>(i));
          std::map<int, std::string> term;
          if (lat < 2) {
            for (const int e : ins) {
              term[e] = edge_source(dp, static_cast<int>(b), e, start);
            }
          } else {
            // Capture operands at the start cycle, compute from shadows.
            for (std::size_t p = 0; p < ins.size(); ++p) {
              out_ << strf("      if (state == %d%s) t_b%zu_i%zu_%zu <= %s;\n",
                           start, g.c_str(), b, i, p,
                           edge_source(dp, static_cast<int>(b), ins[p], start)
                               .c_str());
              term[ins[p]] = strf("t_b%zu_i%zu_%zu", b, i, p);
            }
          }
          const int ready = start + lat;
          for (const int e : dp.inv_output_edges(static_cast<int>(b),
                                                 static_cast<int>(i))) {
            const int r = bi.edge_reg[static_cast<std::size_t>(e)];
            if (r < 0) continue;
            out_ << strf(
                "      if (state == %d%s) r%d <= %s;\n", ready - 1, g.c_str(),
                r,
                inv_expr(dp, static_cast<int>(b), static_cast<int>(i), term)
                    .c_str());
          }
        } else {
          const Datapath& child =
              *dp.children[static_cast<std::size_t>(inv.unit.idx)].impl;
          const Node& n = bi.dfg->node(inv.nodes.front());
          const Profile& p =
              child.profile(child.find_behavior(n.behavior), lib_, pt_);
          for (int port = 0; port < n.num_outputs; ++port) {
            const int e = bi.dfg->output_edge(inv.nodes.front(), port);
            if (e < 0) continue;
            const int r = bi.edge_reg[static_cast<std::size_t>(e)];
            if (r < 0) continue;
            // The child's out_ wire is valid during local cycle
            // p.out[port]; latch it at the edge leaving that cycle.
            out_ << strf("      if (state == %d%s) r%d <= c%d_out%d;\n",
                         start + p.out[static_cast<std::size_t>(port)],
                         g.c_str(), r, inv.unit.idx, port);
          }
        }
      }
      out_ << strf("      if (state == %d%s) begin\n", bi.makespan, g.c_str());
      out_ << "        done <= 1'b1;\n        running <= 1'b0;\n      end\n";
    }
    out_ << "    end\n  end\nendmodule\n\n";
  }

  const Library& lib_;
  const OpPoint& pt_;
  std::ostringstream out_;
  std::set<std::string> used_;
};

}  // namespace

std::string to_verilog(const Datapath& dp, const Library& lib, const OpPoint& pt) {
  check(!dp.behaviors.empty(), "to_verilog: empty datapath");
  for (const BehaviorImpl& bi : dp.behaviors) {
    check(bi.scheduled, "to_verilog: datapath must be scheduled");
  }
  std::ostringstream head;
  head << "// Generated by H-SYN (hierarchical high-level synthesis).\n";
  head << strf("// Operating point: Vdd %.1f V, clock %.1f ns. Datapath "
               "width %d bits.\n",
               pt.vdd, pt.clk_ns, kWidth);
  head << "// Multicycle functional units are emitted as operand-captured\n";
  head << "// combinational expressions sampled at their scheduled\n";
  head << "// completion states; apply multicycle path constraints.\n\n";
  Emitter em(lib, pt);
  em.emit(dp, "");
  return head.str() + em.str();
}

}  // namespace hsyn
