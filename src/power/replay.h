// Compiled batched trace replay: the evaluator behind eval_dfg_edges and
// every power estimate.
//
//   1. Each Dfg is *compiled once* into a ReplayProgram -- a flat,
//      topologically ordered list of (opcode, operand slot, operand slot,
//      output slot) steps over dense edge slots plus a constant pool and
//      a table of hierarchical calls. Programs contain no Dfg pointers and
//      are memoized process-wide under Dfg::content_hash in the eval
//      engine (eval/engine.h), so recompilation is as rare as structural
//      novelty.
//
//   2. Programs execute over a structure-of-arrays EdgeMatrix: one dense
//      int32 column per edge spanning the whole trace. The executor runs
//      one plain per-opcode loop per step down each column -- no per-step
//      control flow, no per-step allocation. Hierarchical calls expand the
//      child program over the same batch with child columns carved out
//      of the calling thread's scratch Arena (runtime/arena.h).
//
//   3. The whole trace batch runs as one block on the calling thread.
//      Every value is an exact 16-bit integer function of one sample's
//      inputs. The per-time-step interpreter the kernel is tested
//      against lives in the test tree (tests/replay_oracle.h).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "dfg/dfg.h"
#include "power/trace.h"

namespace hsyn {

/// Edge-major values of every DFG edge over a trace: column e holds edge
/// e's value at each sample. This is the shape both the executor (one
/// opcode loop per column) and the power estimator (one toggle count per
/// stream) want; sample-major rows are available via rows() for tests
/// and APIs that iterate per sample.
class EdgeMatrix {
 public:
  EdgeMatrix() = default;
  EdgeMatrix(int num_edges, std::size_t samples)
      : num_edges_(num_edges),
        samples_(samples),
        data_(static_cast<std::size_t>(num_edges) * samples, 0) {}

  [[nodiscard]] int num_edges() const { return num_edges_; }
  [[nodiscard]] std::size_t samples() const { return samples_; }

  [[nodiscard]] const std::int32_t* col(int e) const {
    return data_.data() + static_cast<std::size_t>(e) * samples_;
  }
  [[nodiscard]] std::int32_t* col_mut(int e) {
    return data_.data() + static_cast<std::size_t>(e) * samples_;
  }
  [[nodiscard]] std::int32_t at(int e, std::size_t t) const { return col(e)[t]; }

  /// Sample-major copy: rows()[t][e] == at(e, t).
  [[nodiscard]] std::vector<std::vector<std::int32_t>> rows() const;

  [[nodiscard]] std::size_t bytes() const {
    return sizeof(EdgeMatrix) + data_.size() * sizeof(std::int32_t);
  }

  friend bool operator==(const EdgeMatrix&, const EdgeMatrix&) = default;

 private:
  int num_edges_ = 0;
  std::size_t samples_ = 0;
  std::vector<std::int32_t> data_;  ///< column-contiguous: [e * samples + t]
};

/// One compiled step: out <- op(slots[a], slots[b]). Slots [0, num_edges)
/// are edge columns; slots >= num_edges index the constant pool (unary
/// ops take the constant 0 as their second operand, matching eval_op's
/// calling convention). A Hier step instead holds the hier_calls index
/// in `a`.
struct ReplayStep {
  Op op = Op::Add;
  std::int32_t a = 0;
  std::int32_t b = 0;
  std::int32_t out = 0;

  friend bool operator==(const ReplayStep&, const ReplayStep&) = default;
};

/// A hierarchical call site: resolve `behavior` at execution time (the
/// BehaviorResolver contract guarantees any equivalent variant computes
/// the same values), run its program over the batch, and wire parent
/// slots to the child's primary inputs/outputs.
struct ReplayHierCall {
  std::string behavior;
  std::vector<std::int32_t> in_slots;   ///< parent slot per child input
  std::vector<std::int32_t> out_slots;  ///< parent edge per child output, -1 = unused

  friend bool operator==(const ReplayHierCall&, const ReplayHierCall&) = default;
};

/// A Dfg compiled for batched replay. Pure data -- no pointers into the
/// Dfg -- so it is safely shared process-wide under the source DFG's
/// content hash.
struct ReplayProgram {
  std::uint64_t dfg_hash = 0;  ///< Dfg::content_hash it was compiled from
  int num_inputs = 0;
  int num_outputs = 0;
  int num_edges = 0;
  std::vector<std::int32_t> input_slots;   ///< primary input -> edge slot (-1 unused)
  std::vector<std::int32_t> output_slots;  ///< primary output -> edge slot
  std::vector<std::int32_t> consts;        ///< constant pool (slot num_edges + i)
  std::vector<ReplayStep> steps;           ///< topological order
  std::vector<ReplayHierCall> hier_calls;

  [[nodiscard]] std::size_t bytes() const;

  friend bool operator==(const ReplayProgram&,
                         const ReplayProgram&) = default;
};

/// Compile `dfg` (validated) into a replay program.
ReplayProgram compile_replay(const Dfg& dfg);

/// The memoized program for `dfg`, compiled at most once per content hash
/// across the process (eval engine program cache).
std::shared_ptr<const ReplayProgram> replay_program_of(const Dfg& dfg);

/// Evaluate every edge of `dfg` over `inputs` with the compiled kernel.
/// This is the uncached backend;
/// eval_dfg_edges_shared (power/trace.h) adds the process-wide
/// memoization.
EdgeMatrix replay_eval_matrix(const Dfg& dfg, const BehaviorResolver& res,
                              const Trace& inputs);

}  // namespace hsyn
