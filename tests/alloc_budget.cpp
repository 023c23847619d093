// Allocation budget: heap allocations per synthesis job must not creep
// back up.
//
// This executable replaces the global operator new/delete with counting
// versions and runs two small jobs at 1 thread with cold evaluation
// caches: hier_paulin (hierarchical, power, complex templates) and fir16
// (flattened, area). Each job's count must stay within its budget: the
// count measured when the budget was set, plus 10%. It prints both, so a
// failing run shows how far over it went and a run that is far under
// shows the budget is worth tightening.
//
// Separate from hsyn_tests so the counting allocator stays out of every
// other test. Sanitizer builds have their own allocator and skip (exit
// code 77).
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>

#include "eval/engine.h"
#include "runtime/thread_pool.h"
#include "serve/jobs.h"

#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define HSYN_SANITIZED 1
#endif
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define HSYN_SANITIZED 1
#endif

namespace {

std::atomic<std::uint64_t> g_news{0};

void* counted_new(std::size_t n) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

void* counted_new_aligned(std::size_t n, std::align_val_t al) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  const std::size_t a = static_cast<std::size_t>(al);
  // aligned_alloc wants a size that is a multiple of the alignment.
  if (void* p = std::aligned_alloc(a, (n + a - 1) / a * a)) return p;
  throw std::bad_alloc();
}

}  // namespace

#ifndef HSYN_SANITIZED
void* operator new(std::size_t n) { return counted_new(n); }
void* operator new[](std::size_t n) { return counted_new(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return counted_new(n);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, const std::nothrow_t& t) noexcept {
  return operator new(n, t);
}
void* operator new(std::size_t n, std::align_val_t al) {
  return counted_new_aligned(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return counted_new_aligned(n, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
#endif

namespace {

struct Case {
  const char* label;
  const char* design;
  hsyn::Objective objective;
  hsyn::Mode mode;
  bool templates;
  std::uint64_t measured;  ///< operator new calls when the budget was set
};

// Measured on x86-64 Linux, GCC 12, libstdc++, RelWithDebInfo.
constexpr Case kCases[] = {
    {"hier_paulin (hier, power, templates)", "hier_paulin",
     hsyn::Objective::Power, hsyn::Mode::Hierarchical, true, 1146829},
    {"fir16 (flat, area)", "fir16", hsyn::Objective::Area,
     hsyn::Mode::Flattened, false, 993298},
};

}  // namespace

int main() {
#ifdef HSYN_SANITIZED
  std::puts("alloc_budget: skipped (sanitizer build has its own allocator)");
  return 77;
#else
  hsyn::runtime::set_threads(1);
  int failures = 0;
  for (const Case& c : kCases) {
    hsyn::serve::JobSpec spec;
    spec.benchmark = c.design;
    spec.objective = c.objective;
    spec.mode = c.mode;
    spec.templates = c.templates;
    hsyn::eval::EvalEngine::instance().clear();
    const std::uint64_t before = g_news.load(std::memory_order_relaxed);
    const hsyn::serve::JobOutcome out = hsyn::serve::run_job(spec, {});
    const std::uint64_t used = g_news.load(std::memory_order_relaxed) - before;
    const std::uint64_t budget = c.measured + c.measured / 10;
    const bool ok = out.ok && used <= budget;
    std::printf("%-40s %10llu allocations, budget %10llu (measured %llu)%s\n",
                c.label, static_cast<unsigned long long>(used),
                static_cast<unsigned long long>(budget),
                static_cast<unsigned long long>(c.measured),
                ok ? "" : out.ok ? "  OVER BUDGET" : "  JOB FAILED");
    if (!ok) ++failures;
  }
  return failures == 0 ? 0 : 1;
#endif
}
