#include "synth/moves.h"

#include <atomic>
#include <cstring>

#include "eval/engine.h"
#include "obs/ledger.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "power/estimator.h"
#include "power/replay.h"
#include "rtl/cost.h"
#include "sched/scheduler.h"

namespace hsyn {
namespace {

// Aggregate TemplateCache counters across every instance (a synthesis
// run creates one per SynthContext chain), polled as a metrics source.
std::atomic<std::uint64_t> g_tmpl_hits{0};
std::atomic<std::uint64_t> g_tmpl_misses{0};
std::atomic<std::uint64_t> g_tmpl_insertions{0};
std::atomic<std::uint64_t> g_tmpl_evictions{0};
std::atomic<std::uint64_t> g_tmpl_entries{0};

void register_template_cache_stats() {
  static const bool once = [] {
    obs::Registry::instance().register_source("template-cache", [] {
      return std::map<std::string, std::uint64_t>{
          {"hits", g_tmpl_hits.load(std::memory_order_relaxed)},
          {"misses", g_tmpl_misses.load(std::memory_order_relaxed)},
          {"insertions", g_tmpl_insertions.load(std::memory_order_relaxed)},
          {"evictions", g_tmpl_evictions.load(std::memory_order_relaxed)},
          {"entries", g_tmpl_entries.load(std::memory_order_relaxed)}};
    });
    return true;
  }();
  (void)once;
}

}  // namespace

TemplateKey::TemplateKey(std::string tmpl, std::string behavior,
                         const OpPoint& pt)
    : tmpl(std::move(tmpl)), behavior(std::move(behavior)) {
  std::memcpy(&vdd_bits, &pt.vdd, sizeof vdd_bits);
  std::memcpy(&clk_bits, &pt.clk_ns, sizeof clk_bits);
}

TemplateCache::TemplateCache() { register_template_cache_stats(); }

std::shared_ptr<const Datapath> TemplateCache::get(const TemplateKey& key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it == index_.end()) {
    g_tmpl_misses.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  lru_.splice(lru_.begin(), lru_, it->second);
  g_tmpl_hits.fetch_add(1, std::memory_order_relaxed);
  return it->second->dp;
}

void TemplateCache::put(const TemplateKey& key,
                        std::shared_ptr<const Datapath> dp) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it != index_.end()) {
    it->second->dp = std::move(dp);
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.push_front(Entry{key, std::move(dp)});
  index_.emplace(key, lru_.begin());
  g_tmpl_insertions.fetch_add(1, std::memory_order_relaxed);
  g_tmpl_entries.fetch_add(1, std::memory_order_relaxed);
  while (lru_.size() > kMaxEntries) {
    index_.erase(lru_.back().key);
    lru_.pop_back();
    g_tmpl_evictions.fetch_add(1, std::memory_order_relaxed);
    g_tmpl_entries.fetch_sub(1, std::memory_order_relaxed);
  }
}

std::size_t TemplateCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lru_.size();
}

std::shared_ptr<const Datapath> instantiate_scheduled(
    const ComplexLibrary::Template& t, const std::string& behavior,
    const SynthContext& cx) {
  const TemplateKey key(t.name, behavior, cx.pt);
  if (auto hit = cx.template_cache->get(key)) return hit;
  // Instantiate and schedule outside the lock -- several workers may
  // build the same template concurrently, but the result is a pure
  // function of the key, so whichever insert wins the race is correct.
  Datapath inst = ComplexLibrary::instantiate(t, behavior);
  schedule_datapath(inst, *cx.lib, cx.pt, kNoDeadline);
  auto shared = std::make_shared<const Datapath>(std::move(inst));
  cx.template_cache->put(key, shared);
  return shared;
}

double cost_of(const Datapath& dp, const SynthContext& cx) {
  if (cx.obj == Objective::Area) {
    return area_of(dp, *cx.lib).total();
  }
  return energy_of(dp, 0, cx.trace, *cx.lib, cx.pt).total();
}

Move finish_move(Datapath cand, const SynthContext& cx, double cost_before,
                 std::string kind, std::string desc, const Datapath* base,
                 const DirtyRegion* dirty) {
  obs::Span span("eval-move");
  // Ledger bookkeeping only when recording AND this evaluation runs
  // under a tagged candidate scope; off means zero extra clock reads.
  obs::MoveLedger& ledger = obs::MoveLedger::instance();
  const bool rec = ledger.enabled() && obs::CandidateScope::active();
  const std::uint64_t t0 = rec ? obs::now_ns() : 0;
  const std::uint64_t hits0 = rec ? eval::thread_cache_hits() : 0;
  const std::uint64_t misses0 = rec ? eval::thread_cache_misses() : 0;

  Move m;
  m.kind = std::move(kind);
  m.desc = std::move(desc);
  const bool pruned = cand.prune_unused();
  const SchedResult sr = schedule_datapath(cand, *cx.lib, cx.pt, cx.deadline);
  if (sr.ok) {
    if (base != nullptr && dirty != nullptr && !pruned) {
      // Seed the evaluation cache with the candidate's connectivity,
      // derived incrementally from the base level's. Must happen after
      // scheduling (the cache key is the post-schedule fingerprint) and
      // only when pruning kept indices stable. Priming never changes what
      // cost_of returns -- a complete hint yields exactly
      // connectivity_of(cand) -- it only skips the recompute.
      eval::EvalEngine& eng = eval::EvalEngine::instance();
      eng.prime_connectivity(cand, eng.connectivity(*base), *dirty);
    }
    m.gain = cost_before - cost_of(cand, cx);
    m.result = std::move(cand);
    m.valid = true;
  }

  if (rec) {
    m.obs_group = obs::CandidateScope::current_group();
    m.obs_cand = obs::CandidateScope::current_cand();
    obs::MoveRecord r;
    r.group = m.obs_group;
    r.cand = m.obs_cand;
    r.kind = m.kind;
    r.desc = m.desc;
    r.pass = obs::ImproveScope::current_pass();
    r.depth = obs::ResynthScope::current_depth();
    r.strategy = obs::StrategyScope::current();
    r.gain = m.gain;
    r.cost_before = cost_before;
    r.status =
        m.valid ? obs::MoveStatus::Evaluated : obs::MoveStatus::Infeasible;
    const std::uint64_t eval_ns = obs::now_ns() - t0;
    r.eval_us = static_cast<double>(eval_ns) * 1e-3;
    r.cache_hits = eval::thread_cache_hits() - hits0;
    r.cache_misses = eval::thread_cache_misses() - misses0;
    ledger.record(std::move(r));
    static obs::Histogram& eval_hist =
        obs::Registry::instance().histogram("eval.move_us");
    eval_hist.observe(eval_ns / 1000);
  }
  return m;
}

const Move& better_move(const Move& a, const Move& b) {
  if (!a.valid) return b;
  if (!b.valid) return a;
  return a.gain >= b.gain ? a : b;
}

void keep_better(Move& best, Move&& cand) {
  if (!cand.valid) return;
  if (!best.valid || cand.gain > best.gain) best = std::move(cand);
}

Trace child_input_trace(const Datapath& dp, int b, int child_idx,
                        const std::string& behavior, const SynthContext& cx) {
  const BehaviorImpl& bi = dp.behaviors.at(static_cast<std::size_t>(b));
  const auto edge_vals_ptr =
      eval_dfg_edges_shared(*bi.dfg, resolver_of(dp), cx.trace);
  const EdgeMatrix& edge_vals = *edge_vals_ptr;
  // Invocations of this child+behavior, in schedule order.
  std::vector<std::pair<int, int>> invs;  // (start, inv)
  for (std::size_t i = 0; i < bi.invs.size(); ++i) {
    const Invocation& inv = bi.invs[i];
    if (inv.unit.kind != UnitRef::Kind::Child || inv.unit.idx != child_idx) continue;
    if (bi.dfg->node(inv.nodes.front()).behavior != behavior) continue;
    invs.push_back({bi.scheduled ? bi.inv_start[i] : 0, static_cast<int>(i)});
  }
  std::sort(invs.begin(), invs.end());
  Trace out;
  out.reserve(cx.trace.size() * invs.size());
  for (std::size_t t = 0; t < cx.trace.size(); ++t) {
    for (const auto& [start, i] : invs) {
      (void)start;
      const Node& n = bi.dfg->node(bi.invs[static_cast<std::size_t>(i)].nodes.front());
      Sample s(static_cast<std::size_t>(n.num_inputs));
      for (int p = 0; p < n.num_inputs; ++p) {
        s[static_cast<std::size_t>(p)] = edge_vals.at(
            bi.dfg->input_edge(bi.invs[static_cast<std::size_t>(i)].nodes.front(), p),
            t);
      }
      out.push_back(std::move(s));
    }
  }
  return out;
}

}  // namespace hsyn
