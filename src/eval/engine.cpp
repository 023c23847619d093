#include "eval/engine.h"

#include <cstdlib>
#include <string>
#include <unordered_map>

#include "obs/job.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "power/replay.h"
#include "rtl/fingerprint.h"
#include "util/fmt.h"

namespace hsyn::eval {
namespace {

// Context tags keep the key spaces of the typed caches disjoint even if
// two caches were ever merged or dumped side by side.
constexpr std::uint64_t kConnContext = 0xC011EC71F1E10001ull;
constexpr std::uint64_t kAreaTag = 0xA4EAA4EAA4EA0002ull;

constexpr std::size_t kDefaultCapacityMb = 64;

std::size_t env_capacity_bytes() {
  if (const char* s = std::getenv("HSYN_EVAL_CACHE_MB")) {
    char* end = nullptr;
    const long mb = std::strtol(s, &end, 10);
    if (end != s && mb > 0) return static_cast<std::size_t>(mb) << 20;
  }
  return kDefaultCapacityMb << 20;
}

bool env_verify() {
  const char* s = std::getenv("HSYN_EVAL_VERIFY");
  return s != nullptr && s[0] == '1';
}

/// Rough heap footprint of a Connectivity (for the byte budget).
std::size_t connectivity_bytes(const Connectivity& c) {
  // A node of std::set<int> costs ~64 bytes with allocator overhead; a
  // port vector entry ~sizeof(std::set). Close enough for budgeting.
  constexpr std::size_t kSetNode = 64;
  std::size_t b = sizeof(Connectivity);
  auto ports_bytes = [&](const std::vector<std::vector<std::set<int>>>& pv) {
    for (const auto& ports : pv) {
      b += sizeof(ports) + ports.size() * sizeof(std::set<int>);
      for (const auto& srcs : ports) b += srcs.size() * kSetNode;
    }
  };
  ports_bytes(c.fu_port_srcs);
  ports_bytes(c.child_port_srcs);
  b += c.reg_srcs.size() * sizeof(std::set<SourceKey>);
  for (const auto& srcs : c.reg_srcs) b += srcs.size() * kSetNode;
  return b;
}

std::uint64_t area_context(const Library& lib, bool top_level) {
  std::uint64_t h = hash_mix(kAreaTag, lib.uid());
  h = hash_mix(h, top_level ? 1 : 2);
  return hash_final(h);
}

/// One job's insertion account. Shared-ptr'd so a thread-local cache of
/// the lookup stays valid after clear_job_cache_budget on another thread.
struct JobBudget {
  std::atomic<std::size_t> limit{0};
  std::atomic<std::size_t> charged{0};
  std::atomic<std::uint64_t> rejected{0};
};

struct BudgetRegistry {
  mutable std::mutex mu;
  std::unordered_map<std::uint64_t, std::shared_ptr<JobBudget>> budgets;
  /// Bumped on every set/clear; invalidates the thread-local lookup
  /// caches so the mutex stays off the put() hot path.
  std::atomic<std::uint64_t> generation{0};
};

BudgetRegistry& budget_registry() {
  static BudgetRegistry* r = new BudgetRegistry();
  return *r;
}

std::shared_ptr<JobBudget> budget_for(std::uint64_t job) {
  struct Cached {
    std::uint64_t job = 0;
    std::uint64_t gen = ~std::uint64_t{0};
    std::shared_ptr<JobBudget> budget;
  };
  thread_local Cached c;
  BudgetRegistry& r = budget_registry();
  const std::uint64_t gen = r.generation.load(std::memory_order_acquire);
  if (c.job == job && c.gen == gen) return c.budget;
  std::lock_guard<std::mutex> lock(r.mu);
  const auto it = r.budgets.find(job);
  c.job = job;
  c.gen = gen;
  c.budget = it == r.budgets.end() ? nullptr : it->second;
  return c.budget;
}

}  // namespace

namespace detail {

std::uint64_t thread_token() {
  static std::atomic<std::uint64_t> next{1};
  thread_local const std::uint64_t token =
      next.fetch_add(1, std::memory_order_relaxed);
  return token;
}

bool admit_current_job(std::size_t bytes) {
  const std::uint64_t job = obs::current_job();
  if (job == 0) return true;
  const std::shared_ptr<JobBudget> b = budget_for(job);
  if (b == nullptr) return true;
  // Charge optimistically, refund on reject: `charged` stays an accurate
  // gauge of admitted bytes without a lock.
  const std::size_t before =
      b->charged.fetch_add(bytes, std::memory_order_relaxed);
  if (before + bytes <= b->limit.load(std::memory_order_relaxed)) return true;
  b->charged.fetch_sub(bytes, std::memory_order_relaxed);
  b->rejected.fetch_add(1, std::memory_order_relaxed);
  return false;
}

}  // namespace detail

EvalEngine& EvalEngine::instance() {
  static EvalEngine engine;
  return engine;
}

EvalEngine::EvalEngine()
    : capacity_(env_capacity_bytes()),
      verify_(env_verify()),
      energy_(capacity_.load() / 6),
      area_(capacity_.load() / 6),
      conn_(capacity_.load() / 6),
      edge_vals_(capacity_.load() / 6),
      programs_(capacity_.load() / 6),
      facts_(capacity_.load() / 6) {
  obs::Registry& reg = obs::Registry::instance();
  reg.register_source(
      "eval-energy-cache", [this] { return energy_.counter_map(); });
  reg.register_source(
      "eval-area-cache", [this] { return area_.counter_map(); });
  reg.register_source(
      "eval-conn-cache", [this] { return conn_.counter_map(); });
  reg.register_source(
      "eval-edge-vals-cache", [this] { return edge_vals_.counter_map(); });
  reg.register_source(
      "eval-program-cache", [this] { return programs_.counter_map(); });
  reg.register_source(
      "eval-facts-cache", [this] { return facts_.counter_map(); });
}

std::shared_ptr<const Connectivity> EvalEngine::connectivity(const Datapath& dp) {
  const Key key{structure_fingerprint(dp), 0, kConnContext};
  if (auto hit = conn_.get(key)) {
    if (!verify_) return *hit;
    check(dp.fingerprint() == dp.fingerprint_scratch(),
          "eval verify: stale incremental fingerprint");
    check(**hit == connectivity_of(dp),
          "eval verify: cached connectivity diverges from recompute");
    return *hit;
  }
  // Cache miss: the full recompute is the expensive path worth a span.
  obs::Span span("conn-fill");
  auto conn = std::make_shared<const Connectivity>(connectivity_of(dp));
  conn_.put(key, conn, connectivity_bytes(*conn));
  return conn;
}

void EvalEngine::prime_connectivity(const Datapath& cand,
                                    std::shared_ptr<const Connectivity> base,
                                    const DirtyRegion& dirty) {
  if (base == nullptr) return;
  std::shared_ptr<const Connectivity> conn;
  if (!dirty.binding_changed && base->fu_port_srcs.size() == cand.fus.size() &&
      base->child_port_srcs.size() == cand.children.size() &&
      base->reg_srcs.size() == cand.regs.size()) {
    conn = std::move(base);  // nothing rewired: alias, zero extra memory
  } else {
    conn = std::make_shared<const Connectivity>(
        refresh_connectivity(cand, *base, dirty));
  }
  if (verify_) {
    check(cand.fingerprint() == cand.fingerprint_scratch(),
          "eval verify: stale incremental fingerprint (prime)");
    check(*conn == connectivity_of(cand),
          "eval verify: dirty-region hint produced wrong connectivity");
  }
  const Key key{structure_fingerprint(cand), 0, kConnContext};
  conn_.put(key, conn, connectivity_bytes(*conn));
}

AreaBreakdown EvalEngine::area(const Datapath& dp, const Library& lib,
                               bool top_level) {
  const Key key{structure_fingerprint(dp), 0, area_context(lib, top_level)};
  const auto cached = area_.get(key);
  if (cached && !verify_) return *cached;
  obs::Span span("area-fill");
  const auto conn = connectivity(dp);
  AreaBreakdown a = area_of_level(dp, lib, top_level, *conn);
  for (const ChildUnit& ch : dp.children) {
    a.children += area(*ch.impl, lib, /*top_level=*/false).total();
  }
  if (cached) {
    check(cached->fu == a.fu && cached->reg == a.reg && cached->mux == a.mux &&
              cached->wire == a.wire && cached->ctrl == a.ctrl &&
              cached->children == a.children,
          "eval verify: cached area diverges from recompute");
    return *cached;
  }
  area_.put(key, a, sizeof(AreaBreakdown));
  return a;
}

void EvalEngine::set_capacity_mb(std::size_t mb) {
  const std::size_t bytes = mb << 20;
  capacity_.store(bytes, std::memory_order_relaxed);
  energy_.set_capacity(bytes / 6);
  area_.set_capacity(bytes / 6);
  conn_.set_capacity(bytes / 6);
  edge_vals_.set_capacity(bytes / 6);
  programs_.set_capacity(bytes / 6);
  facts_.set_capacity(bytes / 6);
}

void EvalEngine::clear() {
  energy_.clear();
  area_.clear();
  conn_.clear();
  edge_vals_.clear();
  programs_.clear();
  facts_.clear();
}

void EvalEngine::set_job_cache_budget(std::uint64_t job,
                                      std::size_t limit_bytes) {
  if (job == 0) return;  // job 0 means "no job": never budgeted
  BudgetRegistry& r = budget_registry();
  std::lock_guard<std::mutex> lock(r.mu);
  if (limit_bytes == 0) {
    r.budgets.erase(job);
  } else {
    auto& slot = r.budgets[job];
    if (slot == nullptr) slot = std::make_shared<JobBudget>();
    slot->limit.store(limit_bytes, std::memory_order_relaxed);
  }
  r.generation.fetch_add(1, std::memory_order_release);
}

void EvalEngine::clear_job_cache_budget(std::uint64_t job) {
  BudgetRegistry& r = budget_registry();
  std::lock_guard<std::mutex> lock(r.mu);
  r.budgets.erase(job);
  r.generation.fetch_add(1, std::memory_order_release);
}

JobCacheUsage EvalEngine::job_cache_usage(std::uint64_t job) const {
  BudgetRegistry& r = budget_registry();
  std::shared_ptr<JobBudget> b;
  {
    std::lock_guard<std::mutex> lock(r.mu);
    const auto it = r.budgets.find(job);
    if (it != r.budgets.end()) b = it->second;
  }
  JobCacheUsage u;
  if (b != nullptr) {
    u.limit_bytes = b->limit.load(std::memory_order_relaxed);
    u.charged_bytes = b->charged.load(std::memory_order_relaxed);
    u.rejected = b->rejected.load(std::memory_order_relaxed);
  }
  return u;
}

}  // namespace hsyn::eval
