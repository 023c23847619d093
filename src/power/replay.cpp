#include "power/replay.h"

#include <algorithm>
#include <cstring>

#include "eval/engine.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "power/trace.h"
#include "runtime/arena.h"
#include "util/fmt.h"

namespace hsyn {
namespace {

constexpr std::uint64_t kProgramContext = 0x9E91A79E91A70005ull;

}  // namespace

std::vector<std::vector<std::int32_t>> EdgeMatrix::rows() const {
  std::vector<std::vector<std::int32_t>> out(
      samples_, std::vector<std::int32_t>(static_cast<std::size_t>(num_edges_)));
  // Blocked transpose: 64x64 tiles keep one stripe of destination rows
  // cache-resident while a stripe of source columns streams through --
  // the element-by-element sweep re-touched every row once per column,
  // which is quadratic cache traffic on wide matrices.
  constexpr std::size_t kTile = 64;
  const std::size_t E = static_cast<std::size_t>(num_edges_);
  for (std::size_t t0 = 0; t0 < samples_; t0 += kTile) {
    const std::size_t t1 = std::min(t0 + kTile, samples_);
    for (std::size_t e0 = 0; e0 < E; e0 += kTile) {
      const std::size_t e1 = std::min(e0 + kTile, E);
      for (std::size_t e = e0; e < e1; ++e) {
        const std::int32_t* c = col(static_cast<int>(e));
        for (std::size_t t = t0; t < t1; ++t) out[t][e] = c[t];
      }
    }
  }
  return out;
}

std::size_t ReplayProgram::bytes() const {
  std::size_t b = sizeof(ReplayProgram);
  b += (input_slots.size() + output_slots.size() + consts.size()) *
       sizeof(std::int32_t);
  b += steps.size() * sizeof(ReplayStep);
  for (const ReplayHierCall& h : hier_calls) {
    b += sizeof(ReplayHierCall) + h.behavior.size() +
         (h.in_slots.size() + h.out_slots.size()) * sizeof(std::int32_t);
  }
  return b;
}

ReplayProgram compile_replay(const Dfg& dfg) {
  check(dfg.validated(), "compile_replay: dfg must be validated");
  ReplayProgram p;
  p.dfg_hash = dfg.content_hash();
  p.num_inputs = dfg.num_inputs();
  p.num_outputs = dfg.num_outputs();
  p.num_edges = static_cast<int>(dfg.edges().size());
  p.input_slots.reserve(static_cast<std::size_t>(p.num_inputs));
  for (int i = 0; i < p.num_inputs; ++i) {
    p.input_slots.push_back(dfg.primary_input_edge(i));
  }
  p.output_slots.reserve(static_cast<std::size_t>(p.num_outputs));
  for (int o = 0; o < p.num_outputs; ++o) {
    p.output_slots.push_back(dfg.primary_output_edge(o));
  }
  const auto const_slot = [&p](std::int32_t v) -> std::int32_t {
    for (std::size_t j = 0; j < p.consts.size(); ++j) {
      if (p.consts[j] == v) return p.num_edges + static_cast<std::int32_t>(j);
    }
    p.consts.push_back(v);
    return p.num_edges + static_cast<std::int32_t>(p.consts.size()) - 1;
  };
  for (const int nid : dfg.topo_order()) {
    const Node& n = dfg.node(nid);
    if (n.is_hier()) {
      ReplayHierCall h;
      h.behavior = n.behavior;
      h.in_slots.reserve(static_cast<std::size_t>(n.num_inputs));
      for (int q = 0; q < n.num_inputs; ++q) {
        h.in_slots.push_back(dfg.input_edge(nid, q));
      }
      h.out_slots.reserve(static_cast<std::size_t>(n.num_outputs));
      for (int q = 0; q < n.num_outputs; ++q) {
        h.out_slots.push_back(dfg.output_edge(nid, q));
      }
      p.steps.push_back({Op::Hier,
                         static_cast<std::int32_t>(p.hier_calls.size()), 0, 0});
      p.hier_calls.push_back(std::move(h));
      continue;
    }
    const int out = dfg.output_edge(nid, 0);
    // A dead operation (unconsumed result) has no effect on any column.
    if (out < 0) continue;
    const std::int32_t a = dfg.input_edge(nid, 0);
    // Unary ops read the constant 0 as their second operand, matching
    // eval_op's calling convention.
    const std::int32_t b =
        n.num_inputs > 1 ? dfg.input_edge(nid, 1) : const_slot(0);
    p.steps.push_back({n.op, a, b, out});
  }
  return p;
}

std::shared_ptr<const ReplayProgram> replay_program_of(const Dfg& dfg) {
  check(dfg.validated(), "replay_program_of: dfg must be validated");
  eval::EvalEngine& eng = eval::EvalEngine::instance();
  const eval::Key key{dfg.content_hash(), 0, kProgramContext};
  if (auto hit = eng.program_cache().get(key)) {
    if (!eng.verify()) return *hit;
    check(**hit == compile_replay(dfg),
          "eval verify: cached replay program diverges from recompile");
    return *hit;
  }
  auto prog = std::make_shared<const ReplayProgram>(compile_replay(dfg));
  static obs::Counter& compiled =
      obs::Registry::instance().counter("replay.programs_compiled");
  compiled.add();
  eng.program_cache().put(key, prog, prog->bytes());
  return prog;
}

namespace {

/// One opcode down a column: o[t] = eval_op(op, a[t], b[t]) for t in
/// [0, len). One plain loop per opcode, so the switch is decided once
/// per step, never per element, and each loop body is branch-free.
void exec_op(Op op, const std::int32_t* a, const std::int32_t* b,
             std::int32_t* o, std::size_t len) {
  switch (op) {
    case Op::Add:
      for (std::size_t t = 0; t < len; ++t) {
        o[t] = mask16(static_cast<std::int64_t>(a[t]) + b[t]);
      }
      return;
    case Op::Sub:
      for (std::size_t t = 0; t < len; ++t) {
        o[t] = mask16(static_cast<std::int64_t>(a[t]) - b[t]);
      }
      return;
    case Op::Mult:
      for (std::size_t t = 0; t < len; ++t) {
        o[t] = mask16(static_cast<std::int64_t>(a[t]) * b[t]);
      }
      return;
    case Op::ShiftL:
      for (std::size_t t = 0; t < len; ++t) {
        o[t] = mask16(static_cast<std::int64_t>(a[t]) << (b[t] & 15));
      }
      return;
    case Op::ShiftR:
      for (std::size_t t = 0; t < len; ++t) o[t] = mask16(a[t] >> (b[t] & 15));
      return;
    case Op::Cmp:
      for (std::size_t t = 0; t < len; ++t) o[t] = a[t] < b[t] ? 1 : 0;
      return;
    case Op::And:
      for (std::size_t t = 0; t < len; ++t) o[t] = mask16(a[t] & b[t]);
      return;
    case Op::Or:
      for (std::size_t t = 0; t < len; ++t) o[t] = mask16(a[t] | b[t]);
      return;
    case Op::Xor:
      for (std::size_t t = 0; t < len; ++t) o[t] = mask16(a[t] ^ b[t]);
      return;
    case Op::Neg:
      // Unary: the compiled step wires the pooled constant 0 into b.
      for (std::size_t t = 0; t < len; ++t) {
        o[t] = mask16(-static_cast<std::int64_t>(a[t]));
      }
      return;
    case Op::Hier:
      break;
  }
  check(false, "replay: hierarchical step is not a column op");
}

/// Run `p` over `len` consecutive samples. `cols[s]` is the column for
/// slot s (edges first, then the constant pool); input-edge columns are
/// pre-filled by the caller, every other edge column starts zeroed.
/// Hierarchical calls carve the child's columns out of `arena` and
/// recurse over the same batch.
void exec_program(const ReplayProgram& p, const BehaviorResolver& res,
                  std::int32_t** cols, std::size_t len,
                  runtime::Arena& arena) {
  for (const ReplayStep& s : p.steps) {
    if (s.op != Op::Hier) {
      exec_op(s.op, cols[s.a], cols[s.b], cols[s.out], len);
      continue;
    }
    const ReplayHierCall& h = p.hier_calls[static_cast<std::size_t>(s.a)];
    const Dfg* child = res(h.behavior);
    if (child == nullptr) check_failed("unresolved behavior " + h.behavior);
    const auto cp = replay_program_of(*child);
    check(static_cast<int>(h.in_slots.size()) == cp->num_inputs,
          "eval_dfg_edges: input arity mismatch");
    check(static_cast<int>(h.out_slots.size()) == cp->num_outputs,
          "eval_dfg_edges: output arity mismatch");
    runtime::Arena::Frame frame(arena);
    const std::size_t nedges = static_cast<std::size_t>(cp->num_edges);
    std::int32_t* block = arena.alloc_i32(nedges * len);
    std::memset(block, 0, nedges * len * sizeof(std::int32_t));
    std::int32_t** ccols =
        arena.alloc_ptrs<std::int32_t>(nedges + cp->consts.size());
    for (std::size_t e = 0; e < nedges; ++e) ccols[e] = block + e * len;
    for (std::size_t j = 0; j < cp->consts.size(); ++j) {
      std::int32_t* c = arena.alloc_i32(len);
      for (std::size_t t = 0; t < len; ++t) c[t] = cp->consts[j];
      ccols[nedges + j] = c;
    }
    for (int i = 0; i < cp->num_inputs; ++i) {
      const std::int32_t slot = cp->input_slots[static_cast<std::size_t>(i)];
      if (slot >= 0) {
        std::memcpy(ccols[slot], cols[h.in_slots[static_cast<std::size_t>(i)]],
                    len * sizeof(std::int32_t));
      }
    }
    exec_program(*cp, res, ccols, len, arena);
    for (std::size_t o = 0; o < h.out_slots.size(); ++o) {
      if (h.out_slots[o] < 0) continue;
      const std::int32_t ce = cp->output_slots[o];
      check(ce >= 0, "replay: hier output without child output edge");
      std::memcpy(cols[h.out_slots[o]], ccols[ce], len * sizeof(std::int32_t));
    }
  }
}

}  // namespace

EdgeMatrix replay_eval_matrix(const Dfg& dfg, const BehaviorResolver& res,
                              const Trace& inputs) {
  obs::Span span("trace-replay");
  const auto prog = replay_program_of(dfg);
  const std::size_t T = inputs.size();
  EdgeMatrix mat(prog->num_edges, T);
  if (T == 0) return mat;
  runtime::Arena& arena = runtime::Arena::local();
  runtime::Arena::Frame frame(arena);
  std::int32_t** cols = arena.alloc_ptrs<std::int32_t>(
      static_cast<std::size_t>(prog->num_edges) + prog->consts.size());
  for (int e = 0; e < prog->num_edges; ++e) cols[e] = mat.col_mut(e);
  for (std::size_t j = 0; j < prog->consts.size(); ++j) {
    std::int32_t* col = arena.alloc_i32(T);
    for (std::size_t t = 0; t < T; ++t) col[t] = prog->consts[j];
    cols[static_cast<std::size_t>(prog->num_edges) + j] = col;
  }
  // Transpose the samples into the primary-input columns.
  for (std::size_t t = 0; t < T; ++t) {
    const Sample& in = inputs[t];
    check(static_cast<int>(in.size()) == prog->num_inputs,
          "eval_dfg_edges: input arity mismatch");
    for (int i = 0; i < prog->num_inputs; ++i) {
      const std::int32_t slot = prog->input_slots[static_cast<std::size_t>(i)];
      if (slot >= 0) cols[slot][t] = in[static_cast<std::size_t>(i)];
    }
  }
  exec_program(*prog, res, cols, T, arena);
  {
    obs::Registry& reg = obs::Registry::instance();
    static obs::Counter& matrices = reg.counter("replay.matrices");
    static obs::Counter& columns = reg.counter("replay.columns_evaluated");
    static obs::Counter& samples = reg.counter("replay.samples");
    static obs::Gauge& arena_bytes = reg.gauge("replay.arena_bytes");
    matrices.add();
    columns.add(static_cast<std::uint64_t>(prog->num_edges));
    samples.add(T);
    obs::note_job_replay_samples(T);
    arena_bytes.set(static_cast<double>(runtime::Arena::total_reserved()));
  }
  return mat;
}

}  // namespace hsyn
