#include "spans.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <map>

namespace perfbench {
namespace {

thread_local std::vector<int> t_open;  // ids of this thread's open spans

int thread_tid() {
  static std::atomic<int> next{1};
  thread_local const int tid = next.fetch_add(1);
  return tid;
}

}  // namespace

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void SpanLog::set_enabled(bool on) {
  std::lock_guard<std::mutex> lock(mu_);
  enabled_ = on;
}

int SpanLog::current() { return t_open.empty() ? -1 : t_open.back(); }

int SpanLog::open(const char* name, std::uint64_t job, int parent) {
  if (parent == kInherit) parent = current();
  SpanRecord rec;
  rec.name = name;
  rec.parent = parent;
  rec.tid = thread_tid();
  int id = -1;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!enabled_) return -1;
    if (job == kInheritJob) {
      job = parent >= 0 ? spans_[static_cast<std::size_t>(parent)].job : 0;
    }
    rec.job = job;
    rec.begin_ns = now_ns();
    id = static_cast<int>(spans_.size());
    spans_.push_back(rec);
  }
  t_open.push_back(id);
  return id;
}

void SpanLog::close(int id) {
  if (id < 0) return;
  const std::uint64_t end = now_ns();
  if (!t_open.empty() && t_open.back() == id) t_open.pop_back();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(id)].end_ns = end;
}

std::vector<SpanRecord> SpanLog::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::vector<LayerTime> SpanLog::layer_times() const {
  const std::vector<SpanRecord> all = spans();
  // Children per parent, so each span's self time is its duration minus
  // the union of its children's intervals (children on other threads
  // may overlap each other).
  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> kids(
      all.size());
  for (const SpanRecord& s : all) {
    if (s.parent >= 0) {
      kids[static_cast<std::size_t>(s.parent)].emplace_back(s.begin_ns,
                                                            s.end_ns);
    }
  }
  std::vector<LayerTime> out;
  std::map<std::string, std::size_t> index;
  for (std::size_t i = 0; i < all.size(); ++i) {
    const SpanRecord& s = all[i];
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    std::uint64_t covered = 0, lo = 0, hi = 0;
    bool have = false;
    for (const auto& [b, e] : iv) {
      if (have && b <= hi) {
        hi = std::max(hi, e);
        continue;
      }
      if (have) covered += hi - lo;
      lo = b;
      hi = e;
      have = true;
    }
    if (have) covered += hi - lo;
    const std::uint64_t dur = s.end_ns - s.begin_ns;
    auto [it, fresh] = index.emplace(s.name, out.size());
    if (fresh) out.push_back(LayerTime{s.name});
    LayerTime& lt = out[it->second];
    lt.count += 1;
    lt.inclusive_s += static_cast<double>(dur) * 1e-9;
    lt.self_s += static_cast<double>(dur - std::min(dur, covered)) * 1e-9;
  }
  return out;
}

std::string SpanLog::to_chrome_json(const std::string& other_data) const {
  const std::vector<SpanRecord> all = spans();
  const std::uint64_t t0 = all.empty() ? 0 : all.front().begin_ns;
  std::string out = "{\"traceEvents\":[\n";
  char buf[320];
  for (std::size_t i = 0; i < all.size(); ++i) {
    const SpanRecord& s = all[i];
    std::snprintf(buf, sizeof buf,
                  "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                  "\"parent\":%d,\"job\":%llu}}%s\n",
                  s.name, s.tid, static_cast<double>(s.begin_ns - t0) * 1e-3,
                  static_cast<double>(s.end_ns - s.begin_ns) * 1e-3, i,
                  s.parent, static_cast<unsigned long long>(s.job),
                  i + 1 < all.size() ? "," : "");
    out += buf;
  }
  out += "],\"otherData\":" + other_data + "}\n";
  return out;
}

}  // namespace perfbench
