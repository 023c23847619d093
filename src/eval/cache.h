// Sharded, mutex-striped, bounded-LRU evaluation cache.
//
// One cache instance stores the results of one pure evaluation function
// (energy, area, connectivity, edge values), keyed by content
// fingerprints. The cache is shared across the runtime's worker threads:
// a candidate evaluated by one worker is a hit for every other worker.
//
// Determinism: every cached value is a pure function of its key, and a
// hit returns the stored value verbatim, so caching changes only *when*
// work happens, never *what* is returned -- results stay bit-identical
// at any thread count and under any eviction schedule.
//
// Keys are exact. The three fields are compared verbatim (never
// pre-mixed into one word), so a collision requires all three 64-bit
// fingerprints to collide simultaneously.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <list>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

#include "obs/telemetry.h"
#include "util/hash.h"

namespace hsyn::eval {

/// Cache identity of one evaluation: what was evaluated (structure),
/// under which stimulus (trace), in which setting (context: operating
/// point, library uid, behavior index, objective flags...). Unused
/// dimensions stay 0.
struct Key {
  std::uint64_t structure = 0;
  std::uint64_t trace = 0;
  std::uint64_t context = 0;

  friend bool operator==(const Key&, const Key&) = default;
};

struct KeyHash {
  std::size_t operator()(const Key& k) const {
    return static_cast<std::size_t>(
        hash_final(hash_mix(hash_mix(k.structure, k.trace), k.context)));
  }
};

/// Snapshot of one cache's counters.
struct CacheCounters {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t insertions = 0;
  std::uint64_t evictions = 0;
  /// Hits served to a thread other than the inserting one -- nonzero
  /// proves the cache is shared across workers.
  std::uint64_t cross_thread_hits = 0;
  /// Inserts skipped because the calling job's cache budget was
  /// exhausted (serve daemon; see EvalEngine::set_job_cache_budget).
  std::uint64_t budget_rejects = 0;
  std::uint64_t entries = 0;  ///< current entry count (gauge)
  std::uint64_t bytes = 0;    ///< current charged bytes (gauge)
};

namespace detail {
/// Small dense id for the calling thread (not the opaque std::thread::id),
/// stored per entry to detect cross-thread reuse.
std::uint64_t thread_token();

/// Per-job insertion gate, defined in engine.cpp next to the budget
/// registry. Charges `bytes` against the calling thread's obs job
/// (obs::current_job()) and returns whether the insert may proceed.
/// Always true for job 0 (solo CLI runs) and for jobs without a budget.
/// A rejected insert is a pure cache bypass: the value was already
/// computed and is returned to the caller either way, so budgets change
/// only speed, never results.
bool admit_current_job(std::size_t bytes);

/// Per-thread lookup totals summed over every ShardedLruCache instance.
/// The move ledger reads deltas around one candidate evaluation to
/// attribute cache traffic to that candidate (observational only: which
/// thread pays a miss depends on arrival order).
inline thread_local std::uint64_t t_thread_hits = 0;
inline thread_local std::uint64_t t_thread_misses = 0;
}  // namespace detail

/// This thread's cumulative hit/miss counts across all eval caches.
inline std::uint64_t thread_cache_hits() { return detail::t_thread_hits; }
inline std::uint64_t thread_cache_misses() { return detail::t_thread_misses; }

template <typename V>
class ShardedLruCache {
 public:
  explicit ShardedLruCache(std::size_t capacity_bytes)
      : capacity_(capacity_bytes) {}

  ShardedLruCache(const ShardedLruCache&) = delete;
  ShardedLruCache& operator=(const ShardedLruCache&) = delete;

  /// Copy of the stored value, or nullopt. A hit refreshes recency.
  std::optional<V> get(const Key& k) {
    Shard& s = shard(k);
    std::lock_guard<std::mutex> lock(s.mu);
    auto it = s.index.find(k);
    if (it == s.index.end()) {
      misses_.fetch_add(1, std::memory_order_relaxed);
      ++detail::t_thread_misses;
      obs::note_job_cache(/*hit=*/false);
      return std::nullopt;
    }
    s.lru.splice(s.lru.begin(), s.lru, it->second);
    hits_.fetch_add(1, std::memory_order_relaxed);
    ++detail::t_thread_hits;
    obs::note_job_cache(/*hit=*/true);
    if (it->second->owner != detail::thread_token()) {
      cross_thread_hits_.fetch_add(1, std::memory_order_relaxed);
    }
    return it->second->value;
  }

  /// Insert or refresh `k`. `value_bytes` is the caller's estimate of the
  /// value's heap footprint; a fixed per-entry overhead is added. May
  /// evict least-recently-used entries of the same shard, but never the
  /// entry just inserted (an oversized value is admitted alone rather
  /// than thrashing).
  void put(const Key& k, V v, std::size_t value_bytes) {
    const std::size_t bytes = value_bytes + kEntryOverhead;
    if (!detail::admit_current_job(bytes)) {
      budget_rejects_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    Shard& s = shard(k);
    std::lock_guard<std::mutex> lock(s.mu);
    auto it = s.index.find(k);
    if (it != s.index.end()) {
      s.bytes -= it->second->bytes;
      it->second->value = std::move(v);
      it->second->bytes = bytes;
      it->second->owner = detail::thread_token();
      s.bytes += bytes;
      s.lru.splice(s.lru.begin(), s.lru, it->second);
    } else {
      s.lru.push_front(Entry{k, std::move(v), bytes, detail::thread_token()});
      s.index.emplace(k, s.lru.begin());
      s.bytes += bytes;
      insertions_.fetch_add(1, std::memory_order_relaxed);
    }
    const std::size_t shard_cap =
        capacity_.load(std::memory_order_relaxed) / kShards;
    while (s.bytes > shard_cap && s.lru.size() > 1) {
      const Entry& victim = s.lru.back();
      s.bytes -= victim.bytes;
      s.index.erase(victim.key);
      s.lru.pop_back();
      evictions_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  /// Drop every entry (explicit invalidation). Counters are kept.
  void clear() {
    for (Shard& s : shards_) {
      std::lock_guard<std::mutex> lock(s.mu);
      s.index.clear();
      s.lru.clear();
      s.bytes = 0;
    }
  }

  /// Change the byte budget; evicts immediately if now over.
  void set_capacity(std::size_t capacity_bytes) {
    capacity_.store(capacity_bytes, std::memory_order_relaxed);
    const std::size_t shard_cap = capacity_bytes / kShards;
    for (Shard& s : shards_) {
      std::lock_guard<std::mutex> lock(s.mu);
      while (s.bytes > shard_cap && s.lru.size() > 1) {
        const Entry& victim = s.lru.back();
        s.bytes -= victim.bytes;
        s.index.erase(victim.key);
        s.lru.pop_back();
        evictions_.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }

  CacheCounters counters() const {
    CacheCounters c;
    c.hits = hits_.load(std::memory_order_relaxed);
    c.misses = misses_.load(std::memory_order_relaxed);
    c.insertions = insertions_.load(std::memory_order_relaxed);
    c.evictions = evictions_.load(std::memory_order_relaxed);
    c.cross_thread_hits = cross_thread_hits_.load(std::memory_order_relaxed);
    c.budget_rejects = budget_rejects_.load(std::memory_order_relaxed);
    for (const Shard& s : shards_) {
      std::lock_guard<std::mutex> lock(s.mu);
      c.entries += s.lru.size();
      c.bytes += s.bytes;
    }
    return c;
  }

  /// Counters as a name->value map (an obs::Registry counter source).
  std::map<std::string, std::uint64_t> counter_map() const {
    const CacheCounters c = counters();
    return {{"hits", c.hits},
            {"misses", c.misses},
            {"insertions", c.insertions},
            {"evictions", c.evictions},
            {"cross_thread_hits", c.cross_thread_hits},
            {"budget_rejects", c.budget_rejects},
            {"entries", c.entries},
            {"bytes", c.bytes}};
  }

 private:
  static constexpr std::size_t kShards = 16;
  /// Charged per entry on top of the caller's value estimate: list node,
  /// hash bucket, key, bookkeeping.
  static constexpr std::size_t kEntryOverhead = 96;

  struct Entry {
    Key key;
    V value;
    std::size_t bytes = 0;
    std::uint64_t owner = 0;  ///< thread token of the last writer
  };

  struct Shard {
    mutable std::mutex mu;
    std::list<Entry> lru;  ///< front = most recently used
    std::unordered_map<Key, typename std::list<Entry>::iterator, KeyHash> index;
    std::size_t bytes = 0;
  };

  Shard& shard(const Key& k) { return shards_[KeyHash{}(k) % kShards]; }

  std::array<Shard, kShards> shards_;
  std::atomic<std::size_t> capacity_;
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> insertions_{0};
  std::atomic<std::uint64_t> evictions_{0};
  std::atomic<std::uint64_t> cross_thread_hits_{0};
  std::atomic<std::uint64_t> budget_rejects_{0};
};

}  // namespace hsyn::eval
