#include "obs/ledger.h"

#include <algorithm>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>

#include "obs/job.h"
#include "util/json.h"
#include "util/table.h"

namespace hsyn::obs {

const char* move_status_name(MoveStatus s) {
  switch (s) {
    case MoveStatus::Evaluated: return "evaluated";
    case MoveStatus::Infeasible: return "infeasible";
    case MoveStatus::Applied: return "applied";
    case MoveStatus::RolledBack: return "rolled-back";
    case MoveStatus::Accepted: return "accepted";
    case MoveStatus::RejectedByVerifier: return "rejected-equiv";
  }
  return "?";
}

namespace {

/// Soft cap per recording thread; a runaway inner loop cannot exhaust
/// memory (1<<20 records x ~100 B is ~100 MB worst case across a big
/// pool, far beyond any real run).
constexpr std::size_t kMaxRecordsPerThread = std::size_t{1} << 20;

struct ThreadBuf {
  /// Guards contents against merge/reset; the owning thread's append
  /// takes it too, but it is per-thread and uncontended on the hot path.
  mutable std::mutex mu;
  std::vector<MoveRecord> records;
  std::uint64_t dropped = 0;
};

struct Mark {
  std::uint64_t group;
  std::int32_t cand;
  MoveStatus status;
};

struct LedgerState {
  std::mutex mu;
  std::vector<std::shared_ptr<ThreadBuf>> bufs;
  std::vector<Mark> marks;  ///< strategy-serial improvement loops only
  /// Per-strategy group sequence counters (portfolio explorers).
  std::map<std::int32_t, std::uint64_t> strategy_seq;
  /// Per finished, not yet placed point task: the groups it drew, and
  /// whether any of them was drawn while the ledger was recording.
  struct PointSeq {
    std::uint64_t groups = 0;
    bool recorded = false;
  };
  std::map<std::uint64_t, PointSeq> point_seq;
  /// Per placed point task (by wrapped tag): the first global group id
  /// of its block. Only tasks that recorded are kept.
  std::map<std::uint64_t, std::uint64_t> point_base;
};

/// Point tags wrap at 2^23 so they fit between kStrategyShift and
/// kPointBit; only tags placed since the last reset() are looked up.
constexpr std::uint64_t kPointTagMask = (std::uint64_t{1} << 23) - 1;
constexpr std::uint64_t kSeqMask =
    (std::uint64_t{1} << MoveLedger::kStrategyShift) - 1;

LedgerState& state() {
  static LedgerState* s = new LedgerState();
  return *s;
}

ThreadBuf& local_buf() {
  // shared_ptr keeps the buffer reachable from the state after the
  // worker thread dies (the pool is rebuilt on set_threads).
  thread_local std::shared_ptr<ThreadBuf> tl = [] {
    auto buf = std::make_shared<ThreadBuf>();
    LedgerState& s = state();
    std::lock_guard<std::mutex> lock(s.mu);
    s.bufs.push_back(buf);
    return buf;
  }();
  return *tl;
}

struct Tag {
  std::uint64_t group = 0;
  std::int32_t cand = -1;
  bool active = false;
  int pass = 0;
  int depth = 0;
  std::int32_t strategy = -1;
  std::int64_t point = -1;
  /// The running point task's group sequence (a point task runs on one
  /// thread, so it needs no lock).
  std::uint64_t point_groups = 0;
  bool point_recorded = false;
};

thread_local Tag t_tag;

void append_csv_field(std::string& out, const std::string& s) {
  if (s.find_first_of(",\"\n") == std::string::npos) {
    out += s;
    return;
  }
  out += '"';
  for (const char c : s) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
}

}  // namespace

MoveLedger& MoveLedger::instance() {
  static MoveLedger* l = new MoveLedger();
  return *l;
}

void MoveLedger::reset() {
  LedgerState& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  for (const auto& buf : s.bufs) {
    std::lock_guard<std::mutex> bl(buf->mu);
    buf->records.clear();
    buf->dropped = 0;
  }
  s.marks.clear();
  s.strategy_seq.clear();
  s.point_seq.clear();
  s.point_base.clear();
  next_group_.store(0, std::memory_order_relaxed);
  next_point_.store(0, std::memory_order_relaxed);
}

std::uint64_t MoveLedger::dropped() const {
  LedgerState& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  std::uint64_t n = 0;
  for (const auto& buf : s.bufs) {
    std::lock_guard<std::mutex> bl(buf->mu);
    n += buf->dropped;
  }
  return n;
}

std::uint64_t MoveLedger::begin_group() {
  const std::int32_t strat = StrategyScope::current();
  if (strat >= 0) {
    // Portfolio explorer: the strategy's own sequence, so the id is a
    // pure function of the strategy's deterministic trajectory no
    // matter how explorers interleave.
    LedgerState& s = state();
    std::lock_guard<std::mutex> lock(s.mu);
    return (static_cast<std::uint64_t>(strat) + 1) << kStrategyShift |
           s.strategy_seq[strat]++;
  }
  if (t_tag.point >= 0) {
    // Point task: its own sequence until place_points() gives it the
    // block of the global sequence a serial run would have used.
    t_tag.point_recorded = t_tag.point_recorded || enabled();
    return kPointBit |
           (static_cast<std::uint64_t>(t_tag.point) & kPointTagMask)
               << kStrategyShift |
           t_tag.point_groups++;
  }
  // Solo path: one process-global serial sequence.
  return next_group_.fetch_add(1, std::memory_order_relaxed);
}

std::uint64_t MoveLedger::begin_points(int n) {
  return next_point_.fetch_add(static_cast<std::uint64_t>(n),
                               std::memory_order_relaxed);
}

void MoveLedger::place_points(std::uint64_t first, int n) {
  LedgerState& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  for (std::uint64_t tag = first; tag < first + static_cast<std::uint64_t>(n);
       ++tag) {
    const auto it = s.point_seq.find(tag);
    if (it == s.point_seq.end()) continue;  // the task drew no group
    const std::uint64_t base =
        next_group_.fetch_add(it->second.groups, std::memory_order_relaxed);
    if (it->second.recorded) s.point_base[tag & kPointTagMask] = base;
    s.point_seq.erase(it);
  }
}

void MoveLedger::record(MoveRecord rec) {
  rec.job = current_job();
  ThreadBuf& b = local_buf();
  std::lock_guard<std::mutex> lock(b.mu);
  if (b.records.size() >= kMaxRecordsPerThread) {
    ++b.dropped;
    return;
  }
  b.records.push_back(std::move(rec));
}

void MoveLedger::set_status(std::uint64_t group, std::int32_t cand,
                            MoveStatus status) {
  LedgerState& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  s.marks.push_back(Mark{group, cand, status});
}

std::vector<MoveRecord> MoveLedger::merged(std::uint64_t job) const {
  LedgerState& s = state();
  std::vector<MoveRecord> out;
  std::vector<Mark> marks;
  std::map<std::uint64_t, std::uint64_t> point_base;
  {
    std::lock_guard<std::mutex> lock(s.mu);
    for (const auto& buf : s.bufs) {
      std::lock_guard<std::mutex> bl(buf->mu);
      for (const MoveRecord& r : buf->records) {
        if (job == kAllJobs || r.job == job) out.push_back(r);
      }
    }
    marks = s.marks;
    point_base = s.point_base;
  }
  const auto by_key = [](const MoveRecord& a, const MoveRecord& b) {
    return a.group != b.group ? a.group < b.group : a.cand < b.cand;
  };
  std::stable_sort(out.begin(), out.end(), by_key);
  // Marks are few (one or two per applied move); linear probe per mark
  // via binary search on the sorted records.
  for (const Mark& m : marks) {
    auto it = std::lower_bound(
        out.begin(), out.end(), m, [](const MoveRecord& r, const Mark& mk) {
          return r.group != mk.group ? r.group < mk.group : r.cand < mk.cand;
        });
    for (; it != out.end() && it->group == m.group && it->cand == m.cand;
         ++it) {
      it->status = m.status;
    }
  }
  // Point-task groups move into the global block their task was placed
  // at (see place_points); then the order is the serial run's.
  bool renumbered = false;
  for (MoveRecord& r : out) {
    if ((r.group & kPointBit) == 0) continue;
    const auto it =
        point_base.find(r.group >> kStrategyShift & kPointTagMask);
    if (it == point_base.end()) continue;
    r.group = it->second + (r.group & kSeqMask);
    renumbered = true;
  }
  if (renumbered) std::stable_sort(out.begin(), out.end(), by_key);
  return out;
}

std::string MoveLedger::to_jsonl(bool include_timing, std::uint64_t job) const {
  std::string out;
  for (const MoveRecord& r : merged(job)) {
    JsonWriter w;
    w.begin_object();
    w.key("group").value(r.group);
    w.key("job").value(r.job);
    w.key("cand").value(static_cast<std::int64_t>(r.cand));
    w.key("strategy").value(static_cast<std::int64_t>(r.strategy));
    w.key("kind").value(r.kind);
    w.key("desc").value(r.desc);
    w.key("pass").value(r.pass);
    w.key("depth").value(r.depth);
    w.key("gain").value(r.gain);
    w.key("cost_before").value(r.cost_before);
    w.key("status").value(move_status_name(r.status));
    if (include_timing) {
      w.key("eval_us").value(r.eval_us);
      w.key("cache_hits").value(r.cache_hits);
      w.key("cache_misses").value(r.cache_misses);
    }
    w.end_object();
    out += w.str();
    out += "\n";
  }
  return out;
}

std::string MoveLedger::to_csv(std::uint64_t job) const {
  std::string out =
      "group,job,cand,strategy,kind,desc,pass,depth,gain,cost_before,status,"
      "eval_us,cache_hits,cache_misses\n";
  for (const MoveRecord& r : merged(job)) {
    std::ostringstream line;
    line << r.group << "," << r.job << "," << r.cand << "," << r.strategy
         << ",";
    std::string tail;
    append_csv_field(tail, r.kind);
    tail += ",";
    append_csv_field(tail, r.desc);
    line << tail << "," << r.pass << "," << r.depth << "," << r.gain << ","
         << r.cost_before << "," << move_status_name(r.status) << ","
         << r.eval_us << "," << r.cache_hits << "," << r.cache_misses;
    out += line.str();
    out += "\n";
  }
  return out;
}

bool MoveLedger::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  const bool csv =
      path.size() >= 4 && path.compare(path.size() - 4, 4, ".csv") == 0;
  out << (csv ? to_csv() : to_jsonl());
  return static_cast<bool>(out);
}

std::map<std::string, MoveClassSummary> MoveLedger::summary(
    std::uint64_t job) const {
  std::map<std::string, MoveClassSummary> out;
  for (const MoveRecord& r : merged(job)) {
    MoveClassSummary& s = out[r.kind];
    ++s.attempted;
    switch (r.status) {
      case MoveStatus::Infeasible: ++s.infeasible; break;
      case MoveStatus::Applied:
      case MoveStatus::RolledBack: ++s.applied; break;
      case MoveStatus::Accepted:
        ++s.applied;
        ++s.accepted;
        s.accepted_gain += r.gain;
        break;
      case MoveStatus::RejectedByVerifier: ++s.rejected_equiv; break;
      case MoveStatus::Evaluated: break;
    }
  }
  return out;
}

std::map<std::int32_t, std::map<std::string, MoveClassSummary>>
MoveLedger::summary_by_strategy(std::uint64_t job) const {
  std::map<std::int32_t, std::map<std::string, MoveClassSummary>> out;
  for (const MoveRecord& r : merged(job)) {
    MoveClassSummary& s = out[r.strategy][r.kind];
    ++s.attempted;
    switch (r.status) {
      case MoveStatus::Infeasible: ++s.infeasible; break;
      case MoveStatus::Applied:
      case MoveStatus::RolledBack: ++s.applied; break;
      case MoveStatus::Accepted:
        ++s.applied;
        ++s.accepted;
        s.accepted_gain += r.gain;
        break;
      case MoveStatus::RejectedByVerifier: ++s.rejected_equiv; break;
      case MoveStatus::Evaluated: break;
    }
  }
  return out;
}

std::string MoveLedger::summary_table(std::uint64_t job) const {
  const auto sum = summary(job);
  TextTable t;
  t.row({"move class", "attempted", "infeasible", "applied", "accepted",
         "rej-equiv", "accept %", "accepted gain"});
  t.rule();
  MoveClassSummary total;
  for (const auto& [kind, s] : sum) {
    std::ostringstream pct, gain;
    pct.precision(1);
    pct << std::fixed
        << (s.attempted != 0
                ? 100.0 * static_cast<double>(s.accepted) /
                      static_cast<double>(s.attempted)
                : 0.0);
    gain.precision(4);
    gain << s.accepted_gain;
    t.row({kind, std::to_string(s.attempted), std::to_string(s.infeasible),
           std::to_string(s.applied), std::to_string(s.accepted),
           std::to_string(s.rejected_equiv), pct.str(), gain.str()});
    total.attempted += s.attempted;
    total.infeasible += s.infeasible;
    total.applied += s.applied;
    total.accepted += s.accepted;
    total.rejected_equiv += s.rejected_equiv;
    total.accepted_gain += s.accepted_gain;
  }
  t.rule();
  std::ostringstream pct, gain;
  pct.precision(1);
  pct << std::fixed
      << (total.attempted != 0
              ? 100.0 * static_cast<double>(total.accepted) /
                    static_cast<double>(total.attempted)
              : 0.0);
  gain.precision(4);
  gain << total.accepted_gain;
  t.row({"total", std::to_string(total.attempted),
         std::to_string(total.infeasible), std::to_string(total.applied),
         std::to_string(total.accepted), std::to_string(total.rejected_equiv),
         pct.str(), gain.str()});
  return t.render();
}

CandidateScope::CandidateScope(std::uint64_t group, std::int32_t cand)
    : prev_group_(t_tag.group),
      prev_cand_(t_tag.cand),
      prev_active_(t_tag.active) {
  t_tag.group = group;
  t_tag.cand = cand;
  t_tag.active = true;
}

CandidateScope::~CandidateScope() {
  t_tag.group = prev_group_;
  t_tag.cand = prev_cand_;
  t_tag.active = prev_active_;
}

bool CandidateScope::active() { return t_tag.active; }
std::uint64_t CandidateScope::current_group() { return t_tag.group; }
std::int32_t CandidateScope::current_cand() { return t_tag.cand; }

ImproveScope::ImproveScope(int pass) : prev_pass_(t_tag.pass) {
  t_tag.pass = pass;
}
ImproveScope::~ImproveScope() { t_tag.pass = prev_pass_; }
int ImproveScope::current_pass() { return t_tag.pass; }

StrategyScope::StrategyScope(std::int32_t strategy) : prev_(t_tag.strategy) {
  t_tag.strategy = strategy;
}
StrategyScope::~StrategyScope() { t_tag.strategy = prev_; }
bool StrategyScope::active() { return t_tag.strategy >= 0; }
std::int32_t StrategyScope::current() { return t_tag.strategy; }

PointScope::PointScope(std::uint64_t tag)
    : prev_(t_tag.point),
      prev_groups_(t_tag.point_groups),
      prev_recorded_(t_tag.point_recorded) {
  t_tag.point = static_cast<std::int64_t>(tag);
  t_tag.point_groups = 0;
  t_tag.point_recorded = false;
}

PointScope::~PointScope() {
  if (t_tag.point_groups != 0) {
    // Hand the task's sequence to place_points().
    LedgerState& s = state();
    std::lock_guard<std::mutex> lock(s.mu);
    s.point_seq[static_cast<std::uint64_t>(t_tag.point)] = {
        t_tag.point_groups, t_tag.point_recorded};
  }
  t_tag.point = prev_;
  t_tag.point_groups = prev_groups_;
  t_tag.point_recorded = prev_recorded_;
}
bool PointScope::active() { return t_tag.point >= 0; }

ResynthScope::ResynthScope() : prev_depth_(t_tag.depth) { ++t_tag.depth; }
ResynthScope::~ResynthScope() { t_tag.depth = prev_depth_; }
int ResynthScope::current_depth() { return t_tag.depth; }

}  // namespace hsyn::obs
