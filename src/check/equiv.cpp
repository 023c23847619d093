#include "check/equiv.h"

#include "check/dataflow.h"
#include "obs/trace.h"
#include "util/fmt.h"

namespace hsyn::lint {
namespace {

/// Deterministic fallback stimulus when the caller has no trace (e.g. a
/// child unit the schedule never invokes).
constexpr int kFallbackSamples = 64;
constexpr std::uint64_t kFallbackSeed = 0x5EEDFACE5EEDFACEull;

/// A provable disagreement between two facts for the same output, or
/// empty. Both facts over-approximate the feasible value set of their
/// graph's output over the same stimulus, so empty intersection means
/// the concrete outputs differ everywhere.
std::string facts_conflict(const EdgeFact& fa, const EdgeFact& fb) {
  if (fa.is_constant() && fb.is_constant() && fa.constant() != fb.constant()) {
    return strf("constant %d vs %d", fa.constant(), fb.constant());
  }
  if (fa.range.lo > fb.range.hi || fb.range.lo > fa.range.hi) {
    return strf("disjoint ranges [%d, %d] vs [%d, %d]", fa.range.lo,
                fa.range.hi, fb.range.lo, fb.range.hi);
  }
  const auto clash = static_cast<std::uint16_t>(
      (fa.bits.ones & fb.bits.zeros) | (fa.bits.zeros & fb.bits.ones));
  if (clash != 0) {
    return strf("known bits conflict (mask 0x%04x)", clash);
  }
  return {};
}

}  // namespace

EquivResult verify_equivalent(const Dfg& a, const Dfg& b, const Trace& trace,
                              const BehaviorResolver& res_a,
                              const BehaviorResolver& res_b) {
  obs::Span phase("verify-equivalent");
  check(a.validated() && b.validated(),
        "verify_equivalent requires validated DFGs");
  EquivResult r;

  // Interface agreement is a precondition for everything below.
  if (a.num_inputs() != b.num_inputs() || a.num_outputs() != b.num_outputs()) {
    r.method = "io-signature";
    r.detail = strf("%d-in/%d-out vs %d-in/%d-out", a.num_inputs(),
                    a.num_outputs(), b.num_inputs(), b.num_outputs());
    return r;
  }

  // Stage 1: same canonical DAG -- the rewrite only renumbered nodes.
  if (a.canonical_hash() == b.canonical_hash()) {
    r.equivalent = true;
    r.method = "canonical-hash";
    r.detail = "graphs are identical up to renumbering";
    return r;
  }

  Trace generated;
  const Trace* use = &trace;
  if (trace.empty()) {
    generated = make_trace(a.num_inputs(), kFallbackSamples, kFallbackSeed);
    use = &generated;
  }

  // Stage 2: trace-seeded dataflow facts must agree on every output.
  const auto fa = analyze_dfg(a, res_a, *use);
  const auto fb = analyze_dfg(b, res_b, *use);
  for (int o = 0; o < a.num_outputs(); ++o) {
    const int ea = a.primary_output_edge(o);
    const int eb = b.primary_output_edge(o);
    if (ea < 0 || eb < 0) continue;  // DFG004's finding, not ours
    const std::string conflict =
        facts_conflict(fa->edges[static_cast<std::size_t>(ea)],
                       fb->edges[static_cast<std::size_t>(eb)]);
    if (!conflict.empty()) {
      r.method = "dataflow-facts";
      r.detail = strf("output %d: %s", o, conflict.c_str());
      return r;
    }
  }

  // Stage 3: bitwise differential replay over the stimulus.
  const std::vector<Sample> oa = eval_dfg(a, res_a, *use);
  const std::vector<Sample> ob = eval_dfg(b, res_b, *use);
  r.method = "differential-replay";
  for (std::size_t t = 0; t < oa.size(); ++t) {
    for (std::size_t o = 0; o < oa[t].size(); ++o) {
      if (oa[t][o] != ob[t][o]) {
        r.detail = strf("output %zu differs at sample %zu: %d vs %d", o, t,
                        oa[t][o], ob[t][o]);
        return r;
      }
    }
  }
  r.equivalent = true;
  r.detail = strf("%zu samples x %d outputs bit-identical",
                  oa.size(), a.num_outputs());
  return r;
}

}  // namespace hsyn::lint
