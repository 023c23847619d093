// Typical input traces and functional DFG evaluation.
//
// Power estimation in the paper is driven by "typical input traces". We
// generate correlated 16-bit streams (random-walk per input, the standard
// DSP-signal model used by the switched-capacitance literature [8,10]):
// consecutive samples differ by a bounded step, so resource *sharing*
// interleaves weakly correlated streams and visibly raises switching
// activity -- the effect Example 2 discusses.
//
// All arithmetic is 16-bit two's complement (wrap-around), the datapath
// width of the synthesized circuits.
//
// Evaluation is served by the compiled batched replay kernel
// (power/replay.h), bit-identical at any thread count.
#pragma once

#include <bit>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "dfg/dfg.h"
#include "util/fmt.h"

namespace hsyn {

class EdgeMatrix;  // power/replay.h

using Sample = std::vector<std::int32_t>;  ///< one value per primary input
using Trace = std::vector<Sample>;

/// Sign-extend the low 16 bits (datapath width) of x.
inline std::int32_t mask16(std::int64_t x) {
  const std::uint32_t u = static_cast<std::uint32_t>(x) & 0xFFFFu;
  return (u & 0x8000u) ? static_cast<std::int32_t>(u) - 0x10000 :
                         static_cast<std::int32_t>(u);
}

/// Hamming distance between the low 16 bits of a and b.
inline int hamming16(std::int32_t a, std::int32_t b) {
  const std::uint32_t d = (static_cast<std::uint32_t>(a) ^
                           static_cast<std::uint32_t>(b)) & 0xFFFFu;
  return std::popcount(d);
}

/// Evaluate one operation on 16-bit operands.
inline std::int32_t eval_op(Op op, std::int32_t a, std::int32_t b) {
  switch (op) {
    case Op::Add: return mask16(static_cast<std::int64_t>(a) + b);
    case Op::Sub: return mask16(static_cast<std::int64_t>(a) - b);
    case Op::Mult: return mask16(static_cast<std::int64_t>(a) * b);
    case Op::ShiftL: return mask16(static_cast<std::int64_t>(a) << (b & 15));
    case Op::ShiftR: return mask16(a >> (b & 15));
    case Op::Cmp: return a < b ? 1 : 0;
    case Op::And: return mask16(a & b);
    case Op::Or: return mask16(a | b);
    case Op::Xor: return mask16(a ^ b);
    case Op::Neg: return mask16(-static_cast<std::int64_t>(a));
    case Op::Hier: break;
  }
  check(false, "eval_op on hierarchical node");
  return 0;
}

// ---- Packed toggle counting ----------------------------------------------
// XOR + popcount over whole streams, four 16-bit XOR lanes per uint64_t
// popcount. Integer sums in any grouping are equal, so the count is
// bit-for-bit the per-pair hamming16 sum.

/// Total toggles between consecutive elements of `v`:
/// sum over i in [1, n) of hamming16(v[i-1], v[i]). Zero when n < 2
/// (the first event of a stream primes it, it never toggles).
int toggle_count(const std::int32_t* v, std::size_t n);

/// Sum over i in [0, n) of hamming16(a[i], b[i]) -- the elementwise
/// Hamming distance between two equal-length columns.
int hamming_pair(const std::int32_t* a, const std::int32_t* b, std::size_t n);

/// Total toggles of the *interleaved* stream
///   cols[0][0], cols[1][0], ..., cols[n_cols-1][0], cols[0][1], ...
/// without materializing it: equals toggle_count of the sample-major
/// interleave buffer the estimator used to fill per stream. Decomposes
/// into one hamming_pair per adjacent column pair plus the
/// wraparound pair (cols[n_cols-1][t] vs cols[0][t+1]).
int toggle_count_gather(const std::int32_t* const* cols, std::size_t n_cols,
                        std::size_t T);

/// Hamming distance between two operand tuples in bits, padding the
/// shorter tuple with zeros (the estimator's tuple activity measure).
int hamming_tuple(const std::int32_t* a, std::size_t na,
                  const std::int32_t* b, std::size_t nb);

/// Correlated random-walk trace: `num_samples` samples of `num_inputs`
/// channels; each channel steps by roughly `step_fraction` of full scale.
Trace make_trace(int num_inputs, int num_samples, std::uint64_t seed,
                 double step_fraction = 0.05);

/// Deterministic content fingerprint of a trace -- the stimulus half of
/// every evaluation-cache key (eval/cache.h).
std::uint64_t trace_fingerprint(const Trace& t);

/// Resolves a hierarchical behavior name to a DFG implementing it
/// (any functionally equivalent variant produces the same values).
using BehaviorResolver = std::function<const Dfg*(const std::string&)>;

/// Per-sample value of every edge of `dfg` under `inputs`, sample-major:
/// result[sample][edge_id]. Copies out of the shared edge matrix; hot
/// paths should use eval_dfg_edges_shared and read columns directly.
std::vector<std::vector<std::int32_t>> eval_dfg_edges(const Dfg& dfg,
                                                      const BehaviorResolver& res,
                                                      const Trace& inputs);

/// Edge-major values of every edge (EdgeMatrix, power/replay.h), shared:
/// the result is memoized in the process-wide evaluation cache under
/// (Dfg::content_hash, trace_fingerprint) -- a content key, so a recycled
/// allocation can never alias a stale entry -- and handed out by
/// shared_ptr so repeated evaluation of one (dfg, trace) pair costs no
/// copies. Functionally equivalent resolver variants share entries by the
/// BehaviorResolver contract above.
std::shared_ptr<const EdgeMatrix>
eval_dfg_edges_shared(const Dfg& dfg, const BehaviorResolver& res,
                      const Trace& inputs);

/// Primary-output values per sample.
std::vector<Sample> eval_dfg(const Dfg& dfg, const BehaviorResolver& res,
                             const Trace& inputs);

}  // namespace hsyn
