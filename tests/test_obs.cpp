// Observability layer (src/obs/) and the shared JSON writer (util/json):
//   * JsonWriter escaping / validity, json_valid as a syntax oracle,
//   * span tracer: well-formed Chrome trace JSON, correct nesting,
//     per-name totals that survive ring overflow and add up,
//   * metrics registry: counters, gauges, histogram bucketing, snapshot,
//   * move ledger: merged output bit-identical at 1/2/8 threads,
//   * synthesis results bit-identical with tracing on vs off.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "benchmarks/benchmarks.h"
#include "obs/ledger.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "rtl/fingerprint.h"
#include "runtime/thread_pool.h"
#include "synth/synthesizer.h"
#include "util/json.h"

namespace hsyn {
namespace {

// ---- util/json -----------------------------------------------------------

TEST(Json, EscapeCoversQuotesBackslashesAndControls) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(json_escape(std::string("a\x01") + "b"), "a\\u0001b");
  EXPECT_EQ(json_quote("x"), "\"x\"");
}

TEST(Json, WriterProducesValidDocuments) {
  JsonWriter w;
  w.begin_object();
  w.key("name").value("a \"quoted\"\nstring");
  w.key("n").value(std::uint64_t{42});
  w.key("neg").value(-7);
  w.key("pi").value(3.5);
  w.key("flag").value(true);
  w.key("nothing").null();
  w.key("rows").begin_array();
  w.value(1.5).value("two");
  w.begin_object();
  w.key("k").value(false);
  w.end_object();
  w.end_array();
  w.end_object();
  EXPECT_TRUE(json_valid(w.str())) << w.str();
  EXPECT_NE(w.str().find("\\\"quoted\\\""), std::string::npos);
}

TEST(Json, WriterRoundTripsDoubles) {
  JsonWriter w;
  w.begin_array();
  w.value(0.1).value(1.0 / 3.0).value(1e300).value(-0.0);
  w.end_array();
  EXPECT_TRUE(json_valid(w.str())) << w.str();
  // Non-finite doubles are not representable in JSON: rendered as null.
  JsonWriter nf;
  nf.begin_array();
  nf.value(std::numeric_limits<double>::infinity());
  nf.value(std::numeric_limits<double>::quiet_NaN());
  nf.end_array();
  EXPECT_EQ(nf.str(), "[null,null]");
}

TEST(Json, ValidatorRejectsBrokenSyntax) {
  EXPECT_TRUE(json_valid("{}"));
  EXPECT_TRUE(json_valid("[1, 2.5, \"a\", true, null]"));
  EXPECT_TRUE(json_valid("{\"a\": {\"b\": [1]}}"));
  EXPECT_FALSE(json_valid(""));
  EXPECT_FALSE(json_valid("{"));
  EXPECT_FALSE(json_valid("[1,]"));
  EXPECT_FALSE(json_valid("{\"a\" 1}"));
  EXPECT_FALSE(json_valid("{} trailing"));
  EXPECT_FALSE(json_valid("\"unterminated"));
}

// ---- span tracer ---------------------------------------------------------

/// The tracer's per-name totals, read like any other metrics source.
std::map<std::string, std::uint64_t> span_totals() {
  const auto sources = obs::Registry::instance().poll_sources();
  const auto it = sources.find("spans");
  return it == sources.end() ? std::map<std::string, std::uint64_t>{}
                             : it->second;
}

void spin_for(std::chrono::microseconds d) {
  const auto until = std::chrono::steady_clock::now() + d;
  while (std::chrono::steady_clock::now() < until) {
  }
}

TEST(Trace, DisabledRecordsNothing) {
  obs::Tracer& tr = obs::Tracer::instance();
  tr.set_enabled(false);
  tr.reset();
  { obs::Span s("never-recorded"); }
  EXPECT_TRUE(tr.events().empty());
  EXPECT_TRUE(span_totals().empty());
}

TEST(Trace, CapturesNestedSpansWithDepths) {
  obs::Tracer& tr = obs::Tracer::instance();
  tr.reset();
  tr.set_enabled(true);
  {
    obs::Span outer("outer");
    {
      obs::Span inner("inner");
      { obs::Span leaf("leaf"); }
    }
    { obs::Span inner2("inner2"); }
  }
  tr.set_enabled(false);
  const std::vector<obs::SpanEvent> evs = tr.events();
  ASSERT_EQ(evs.size(), 4u);
  std::map<std::string, const obs::SpanEvent*> by_name;
  for (const obs::SpanEvent& e : evs) by_name[e.name] = &e;
  ASSERT_EQ(by_name.size(), 4u);
  EXPECT_EQ(by_name["outer"]->depth, 0u);
  EXPECT_EQ(by_name["inner"]->depth, 1u);
  EXPECT_EQ(by_name["leaf"]->depth, 2u);
  EXPECT_EQ(by_name["inner2"]->depth, 1u);
  // Containment: children begin/end inside their parents.
  EXPECT_GE(by_name["inner"]->begin_ns, by_name["outer"]->begin_ns);
  EXPECT_LE(by_name["inner"]->end_ns, by_name["outer"]->end_ns);
  EXPECT_GE(by_name["leaf"]->begin_ns, by_name["inner"]->begin_ns);
  EXPECT_LE(by_name["leaf"]->end_ns, by_name["inner"]->end_ns);
  for (const obs::SpanEvent& e : evs) EXPECT_LE(e.begin_ns, e.end_ns);
  tr.reset();
}

TEST(Trace, ChromeJsonIsWellFormed) {
  obs::Tracer& tr = obs::Tracer::instance();
  tr.reset();
  tr.set_enabled(true);
  {
    obs::Span a("alpha");
    obs::Span b("needs \"escaping\"");
  }
  tr.set_enabled(false);
  const std::string doc = tr.to_chrome_json();
  EXPECT_TRUE(json_valid(doc)) << doc;
  EXPECT_NE(doc.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(doc.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(doc.find("alpha"), std::string::npos);
  EXPECT_NE(doc.find("\\\"escaping\\\""), std::string::npos);
  tr.reset();
}

TEST(Trace, MultiThreadSpansCarryDistinctTids) {
  obs::Tracer& tr = obs::Tracer::instance();
  tr.reset();
  tr.set_enabled(true);
  auto work = [] { obs::Span s("worker-span"); };
  std::thread t1(work), t2(work);
  t1.join();
  t2.join();
  tr.set_enabled(false);
  const std::vector<obs::SpanEvent> evs = tr.events();
  ASSERT_EQ(evs.size(), 2u);
  EXPECT_NE(evs[0].tid, evs[1].tid);
  tr.reset();
}

TEST(Trace, TotalsSurviveRingOverflow) {
  constexpr std::uint64_t kSpans = 70000;
  constexpr std::uint64_t kRing = std::uint64_t{1} << 16;
  obs::Tracer& tr = obs::Tracer::instance();
  tr.reset();
  tr.set_enabled(true);
  for (std::uint64_t i = 0; i < kSpans; ++i) obs::Span s("overflow-span");
  tr.set_enabled(false);
  EXPECT_EQ(tr.dropped(), kSpans - kRing);
  EXPECT_EQ(tr.events().size(), kRing);
  EXPECT_EQ(span_totals()["overflow-span.count"], kSpans);
  tr.reset();
  EXPECT_TRUE(span_totals().empty());
}

TEST(Trace, SelfTimeExcludesNestedSpans) {
  obs::Tracer& tr = obs::Tracer::instance();
  tr.reset();
  tr.set_enabled(true);
  {
    obs::Span a("self-a");
    spin_for(std::chrono::microseconds(2000));
    {
      obs::Span b("self-b");
      spin_for(std::chrono::microseconds(3000));
    }
    spin_for(std::chrono::microseconds(1000));
  }
  tr.set_enabled(false);
  auto t = span_totals();
  tr.reset();
  EXPECT_EQ(t["self-a.count"], 1u);
  EXPECT_EQ(t["self-b.count"], 1u);
  EXPECT_GE(t["self-b.self_us"], 3000u);
  EXPECT_GE(t["self-a.self_us"], 3000u);
  EXPECT_EQ(t["self-b.self_us"], t["self-b.total_us"]);
  // Exported in whole microseconds: each truncation loses < 1 us.
  const std::uint64_t sum = t["self-a.self_us"] + t["self-b.self_us"];
  EXPECT_LE(sum, t["self-a.total_us"]);
  EXPECT_GE(sum + 1, t["self-a.total_us"]);
}

TEST(Trace, TotalsMergeAcrossThreads) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 250;
  obs::Tracer& tr = obs::Tracer::instance();
  tr.reset();
  tr.set_enabled(true);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < kPerThread; ++i) {
        obs::Span outer("merge-outer");
        obs::Span inner("merge-inner");
      }
    });
  }
  for (std::thread& t : threads) t.join();
  tr.set_enabled(false);
  auto t = span_totals();
  tr.reset();
  EXPECT_EQ(t["merge-outer.count"], std::uint64_t{kThreads * kPerThread});
  EXPECT_EQ(t["merge-inner.count"], std::uint64_t{kThreads * kPerThread});
  EXPECT_LE(t["merge-outer.self_us"], t["merge-outer.total_us"]);
  EXPECT_LE(t["merge-inner.total_us"], t["merge-outer.total_us"]);
}

// ---- metrics registry ----------------------------------------------------

TEST(Metrics, CountersAndGauges) {
  obs::Registry& reg = obs::Registry::instance();
  obs::Counter& c = reg.counter("test.obs.counter");
  c.reset();
  c.add();
  c.add(4);
  EXPECT_EQ(c.value(), 5u);
  // Lookup returns the same instrument.
  EXPECT_EQ(&reg.counter("test.obs.counter"), &c);
  obs::Gauge& g = reg.gauge("test.obs.gauge");
  g.set(2.5);
  EXPECT_EQ(g.value(), 2.5);
  c.reset();
  g.reset();
}

TEST(Metrics, HistogramPowerOfTwoBuckets) {
  obs::Registry& reg = obs::Registry::instance();
  obs::Histogram& h = reg.histogram("test.obs.hist");
  h.reset();
  h.observe(0);   // bucket 0
  h.observe(1);   // bucket 1: [1, 2)
  h.observe(2);   // bucket 2: [2, 4)
  h.observe(3);   // bucket 2
  h.observe(4);   // bucket 3: [4, 8)
  h.observe(100);  // bucket 7: [64, 128)
  EXPECT_EQ(h.count(), 6u);
  EXPECT_EQ(h.sum(), 110u);
  EXPECT_EQ(h.bucket(0), 1u);
  EXPECT_EQ(h.bucket(1), 1u);
  EXPECT_EQ(h.bucket(2), 2u);
  EXPECT_EQ(h.bucket(3), 1u);
  EXPECT_EQ(h.bucket(7), 1u);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
}

TEST(Metrics, SnapshotIsValidJsonAndCarriesSources) {
  obs::Registry& reg = obs::Registry::instance();
  reg.counter("test.obs.snap").add(3);
  reg.register_source("test-source", [] {
    return std::map<std::string, std::uint64_t>{{"polled", 7}};
  });
  const std::string doc = reg.to_json();
  EXPECT_TRUE(json_valid(doc)) << doc;
  EXPECT_NE(doc.find("\"test.obs.snap\":3"), std::string::npos);
  EXPECT_NE(doc.find("\"test-source\""), std::string::npos);
  EXPECT_NE(doc.find("\"polled\":7"), std::string::npos);
  reg.counter("test.obs.snap").reset();
}

// ---- move ledger + end-to-end guarantees ---------------------------------

/// One full synthesis of the `test1` benchmark (hier, power objective)
/// at `threads` workers; the ledger is reset first when `with_ledger`.
SynthResult run_synth(int threads, bool with_ledger) {
  runtime::set_threads(threads);
  const Library lib = default_library();
  const Benchmark bench = make_benchmark("test1", lib);
  if (with_ledger) {
    obs::MoveLedger::instance().reset();
    obs::MoveLedger::instance().set_enabled(true);
  }
  SynthOptions opts;
  opts.seed = 42;
  const double ts = 2.2 * min_sample_period_ns(bench.design, lib);
  SynthResult r = synthesize(bench.design, lib, &bench.clib, ts,
                             Objective::Power, Mode::Hierarchical, opts);
  obs::MoveLedger::instance().set_enabled(false);
  EXPECT_TRUE(r.ok) << r.fail_reason;
  return r;
}

TEST(Ledger, MergedOutputIdenticalAtAnyThreadCount) {
  std::string ref_jsonl;
  std::uint64_t ref_fp = 0;
  for (const int threads : {1, 2, 8}) {
    const SynthResult r = run_synth(threads, /*with_ledger=*/true);
    // Timing/cache fields are observational (arrival-order dependent);
    // everything else must be bit-identical.
    const std::string jsonl =
        obs::MoveLedger::instance().to_jsonl(/*include_timing=*/false);
    EXPECT_FALSE(jsonl.empty());
    if (ref_jsonl.empty()) {
      ref_jsonl = jsonl;
      ref_fp = structure_fingerprint(r.dp);
    } else {
      EXPECT_EQ(jsonl, ref_jsonl) << "ledger diverges at " << threads
                                  << " thread(s)";
      EXPECT_EQ(structure_fingerprint(r.dp), ref_fp);
    }
  }
  obs::MoveLedger::instance().reset();
  runtime::set_threads(0);
}

TEST(Ledger, RecordsAreWellFormedAndSummaryAddsUp) {
  run_synth(2, /*with_ledger=*/true);
  obs::MoveLedger& led = obs::MoveLedger::instance();
  const std::vector<obs::MoveRecord> recs = led.merged();
  ASSERT_FALSE(recs.empty());
  // Sorted by (group, cand), no duplicate keys.
  for (std::size_t i = 1; i < recs.size(); ++i) {
    const bool ordered =
        recs[i - 1].group < recs[i].group ||
        (recs[i - 1].group == recs[i].group && recs[i - 1].cand < recs[i].cand);
    ASSERT_TRUE(ordered) << "record " << i << " out of order";
  }
  // Every JSONL line is parseable JSON.
  const std::string jsonl = led.to_jsonl();
  std::size_t start = 0;
  std::size_t lines = 0;
  while (start < jsonl.size()) {
    std::size_t end = jsonl.find('\n', start);
    if (end == std::string::npos) end = jsonl.size();
    EXPECT_TRUE(json_valid(jsonl.substr(start, end - start)));
    ++lines;
    start = end + 1;
  }
  EXPECT_EQ(lines, recs.size());
  // The summary rollup counts exactly the merged records.
  std::uint64_t attempted = 0, accepted = 0, applied = 0;
  for (const auto& [kind, s] : led.summary()) {
    attempted += s.attempted;
    accepted += s.accepted;
    applied += s.applied;
    EXPECT_LE(s.accepted, s.applied);
    EXPECT_LE(s.applied + s.infeasible, s.attempted);
  }
  EXPECT_EQ(attempted, recs.size());
  EXPECT_LE(accepted, applied);
  // CSV export: header + one row per record.
  const std::string csv = led.to_csv();
  EXPECT_EQ(static_cast<std::size_t>(
                std::count(csv.begin(), csv.end(), '\n')),
            recs.size() + 1);
  led.reset();
  runtime::set_threads(0);
}

TEST(Trace, SelfTimesAddUpToSynthesizeAtOneThread) {
  // One thread: every span nests under "synthesize", so the self times
  // of all names partition its wall time.
  runtime::set_threads(1);
  const Library lib = default_library();
  const Benchmark bench = make_benchmark("test1", lib);
  const double ts = 2.2 * min_sample_period_ns(bench.design, lib);
  obs::Tracer& tr = obs::Tracer::instance();
  tr.reset();
  tr.set_enabled(true);
  const SynthResult r = synthesize(bench.design, lib, &bench.clib, ts,
                                   Objective::Power, Mode::Hierarchical, {});
  tr.set_enabled(false);
  ASSERT_TRUE(r.ok) << r.fail_reason;
  auto t = span_totals();
  tr.reset();
  runtime::set_threads(0);
  ASSERT_EQ(t["synthesize.count"], 1u);
  const std::uint64_t wall = t["synthesize.total_us"];
  std::uint64_t self_sum = 0;
  std::uint64_t names = 0;
  for (const auto& [key, v] : t) {
    const std::string suffix = ".self_us";
    if (key.size() > suffix.size() &&
        key.compare(key.size() - suffix.size(), suffix.size(), suffix) == 0) {
      self_sum += v;
      ++names;
    }
  }
  EXPECT_GT(names, 3u);
  EXPECT_LE(self_sum, wall + wall / 100);
  // Each name's microsecond truncation loses < 1 us.
  EXPECT_GE(self_sum + names, wall);
}

TEST(Obs, SynthesisBitIdenticalWithTracingOnAndOff) {
  const SynthResult off = run_synth(2, /*with_ledger=*/false);
  obs::Tracer& tr = obs::Tracer::instance();
  tr.reset();
  tr.set_enabled(true);
  const SynthResult on = run_synth(2, /*with_ledger=*/true);
  tr.set_enabled(false);
  EXPECT_EQ(structure_fingerprint(on.dp), structure_fingerprint(off.dp));
  EXPECT_EQ(on.energy, off.energy);
  EXPECT_EQ(on.area, off.area);
  EXPECT_EQ(on.makespan, off.makespan);
  // The traced run captured the synthesis phase structure.
  const std::vector<obs::SpanEvent> evs = tr.events();
  ASSERT_FALSE(evs.empty());
  bool saw_synthesize = false, saw_improve = false, saw_eval = false;
  for (const obs::SpanEvent& e : evs) {
    saw_synthesize = saw_synthesize || std::string(e.name) == "synthesize";
    saw_improve = saw_improve || std::string(e.name) == "improve";
    saw_eval = saw_eval || std::string(e.name) == "eval-move";
  }
  EXPECT_TRUE(saw_synthesize);
  EXPECT_TRUE(saw_improve);
  EXPECT_TRUE(saw_eval);
  EXPECT_TRUE(json_valid(tr.to_chrome_json()));
  tr.reset();
  obs::MoveLedger::instance().reset();
  runtime::set_threads(0);
}

}  // namespace
}  // namespace hsyn
