#include "power/trace.h"

#include <algorithm>
#include <bit>

#include "eval/engine.h"
#include "power/replay.h"
#include "util/fmt.h"
#include "util/hash.h"
#include "util/rng.h"

namespace hsyn {

namespace {

constexpr std::uint64_t kEdgeValsContext = 0xEDEA15EDEA150003ull;

/// Sums 16-bit Hamming distances four to a uint64_t popcount: each XOR
/// word takes one 16-bit lane, and a full word costs one popcount
/// instead of four.
class PackedHamming {
 public:
  void add(std::uint32_t a, std::uint32_t b) {
    packed_ |= static_cast<std::uint64_t>((a ^ b) & 0xFFFFu) << (16 * lanes_);
    if (++lanes_ == 4) {
      total_ += std::popcount(packed_);
      packed_ = 0;
      lanes_ = 0;
    }
  }
  [[nodiscard]] int total() const { return total_ + std::popcount(packed_); }

 private:
  int total_ = 0;
  std::uint64_t packed_ = 0;
  int lanes_ = 0;
};

}  // namespace

int toggle_count(const std::int32_t* v, std::size_t n) {
  PackedHamming acc;
  for (std::size_t i = 1; i < n; ++i) {
    acc.add(static_cast<std::uint32_t>(v[i - 1]), static_cast<std::uint32_t>(v[i]));
  }
  return acc.total();
}

int hamming_pair(const std::int32_t* a, const std::int32_t* b, std::size_t n) {
  PackedHamming acc;
  for (std::size_t i = 0; i < n; ++i) {
    acc.add(static_cast<std::uint32_t>(a[i]), static_cast<std::uint32_t>(b[i]));
  }
  return acc.total();
}

int toggle_count_gather(const std::int32_t* const* cols, std::size_t n_cols,
                        std::size_t T) {
  if (n_cols == 0 || T == 0) return 0;
  if (n_cols == 1) return toggle_count(cols[0], T);
  // The interleaved stream's consecutive pairs split into n_cols groups:
  // within one sample, (cols[c-1][t], cols[c][t]) for each adjacent
  // column pair; across the sample boundary, (cols[n_cols-1][t],
  // cols[0][t+1]). Each group is one dense hamming_pair sweep; integer
  // addition in any grouping matches the buffered toggle_count
  // bit-for-bit.
  int total = 0;
  for (std::size_t c = 1; c < n_cols; ++c) {
    total += hamming_pair(cols[c - 1], cols[c], T);
  }
  total += hamming_pair(cols[n_cols - 1], cols[0] + 1, T - 1);
  return total;
}

int hamming_tuple(const std::int32_t* a, std::size_t na,
                  const std::int32_t* b, std::size_t nb) {
  const std::size_t n = std::max(na, nb);
  PackedHamming acc;
  for (std::size_t i = 0; i < n; ++i) {
    acc.add(i < na ? static_cast<std::uint32_t>(a[i]) : 0,
            i < nb ? static_cast<std::uint32_t>(b[i]) : 0);
  }
  return acc.total();
}

Trace make_trace(int num_inputs, int num_samples, std::uint64_t seed,
                 double step_fraction) {
  Rng rng(seed);
  Trace trace(static_cast<std::size_t>(num_samples));
  Sample cur(static_cast<std::size_t>(num_inputs));
  for (auto& v : cur) v = mask16(rng.range(-32768, 32767));
  const int max_step = std::max(1, static_cast<int>(65536 * step_fraction / 2));
  for (int t = 0; t < num_samples; ++t) {
    for (auto& v : cur) {
      v = mask16(v + static_cast<std::int32_t>(rng.range(-max_step, max_step)));
    }
    trace[static_cast<std::size_t>(t)] = cur;
  }
  return trace;
}

std::uint64_t trace_fingerprint(const Trace& t) {
  std::uint64_t h = kFnvOffset;
  h = hash_mix(h, t.size());
  for (const Sample& s : t) {
    h = hash_mix(h, s.size());
    for (const std::int32_t v : s) {
      h = hash_mix(h, static_cast<std::uint32_t>(v));
    }
  }
  return hash_final(h);
}

std::shared_ptr<const EdgeMatrix>
eval_dfg_edges_shared(const Dfg& dfg, const BehaviorResolver& res,
                      const Trace& inputs) {
  check(dfg.validated(), "eval_dfg_edges: dfg must be validated");
  eval::EvalEngine& eng = eval::EvalEngine::instance();
  const eval::Key key{dfg.content_hash(), trace_fingerprint(inputs),
                      kEdgeValsContext};
  // Single-sample evaluations (per-vector probes) would only churn the
  // cache, so only multi-sample evaluations -- the move engine's hot
  // path -- are memoized.
  const bool cacheable = inputs.size() > 1;
  std::shared_ptr<const EdgeMatrix> cached;
  if (cacheable) {
    if (auto hit = eng.edge_values_cache().get(key)) {
      if (!eng.verify()) return *hit;
      cached = *hit;
    }
  }
  auto vals =
      std::make_shared<const EdgeMatrix>(replay_eval_matrix(dfg, res, inputs));
  if (cached != nullptr) {
    check(*cached == *vals,
          "eval verify: cached edge values diverge from recompute");
    return cached;
  }
  if (cacheable) eng.edge_values_cache().put(key, vals, vals->bytes());
  return vals;
}

std::vector<std::vector<std::int32_t>> eval_dfg_edges(const Dfg& dfg,
                                                      const BehaviorResolver& res,
                                                      const Trace& inputs) {
  return eval_dfg_edges_shared(dfg, res, inputs)->rows();
}

std::vector<Sample> eval_dfg(const Dfg& dfg, const BehaviorResolver& res,
                             const Trace& inputs) {
  const auto mat_ptr = eval_dfg_edges_shared(dfg, res, inputs);
  const EdgeMatrix& mat = *mat_ptr;
  std::vector<Sample> out(inputs.size(),
                          Sample(static_cast<std::size_t>(dfg.num_outputs())));
  for (int o = 0; o < dfg.num_outputs(); ++o) {
    const std::int32_t* col = mat.col(dfg.primary_output_edge(o));
    for (std::size_t t = 0; t < inputs.size(); ++t) {
      out[t][static_cast<std::size_t>(o)] = col[t];
    }
  }
  return out;
}

}  // namespace hsyn
