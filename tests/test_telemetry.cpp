// Tests of the live telemetry layer (src/obs/telemetry.h): per-job
// search counters must advance during a run, the JSONL export must be
// well-formed, and the Prometheus exposition must carry the registry's
// instruments. That the sampler never changes results is gated by
// Identity.* (tests/test_identity.cpp).
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "eval/engine.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "serve/jobs.h"
#include "util/json.h"

namespace hsyn::obs {
namespace {

serve::JobSpec bench_spec(const std::string& name, std::uint64_t seed) {
  serve::JobSpec spec;
  spec.benchmark = name;
  spec.seed = seed;
  spec.verify = false;
  return spec;
}

TEST(Telemetry, JobCountersAdvanceDuringARun) {
  reset_job_states();
  // Cold eval caches so the run actually replays (a warm cache would
  // satisfy every evaluation by lookup and leave replay_samples at 0).
  eval::EvalEngine::instance().clear();
  const serve::JobOutcome out =
      serve::run_job(bench_spec("test1", 42), serve::JobHooks{});
  ASSERT_TRUE(out.ok) << out.error;
  // A solo run publishes under job 0.
  const JobSearchState& js = job_state(0);
  EXPECT_GT(js.passes.load(), 0u);
  EXPECT_GT(js.cache_hits.load() + js.cache_misses.load(), 0u);
  EXPECT_GT(js.best_cost.load(), 0.0);
  EXPECT_GT(js.vdd.load(), 0.0);
  EXPECT_GT(js.replay_samples.load(), 0u);
}

TEST(Telemetry, RingRecordsAndJsonlIsWellFormed) {
  Telemetry& tel = Telemetry::instance();
  tel.stop();
  tel.clear();
  tel.start(/*interval_ms=*/5);
  const serve::JobOutcome out =
      serve::run_job(bench_spec("test1", 7), serve::JobHooks{});
  tel.stop();
  ASSERT_TRUE(out.ok) << out.error;
  tel.sample_now(/*record=*/true);  // >= 1 sample even on a fast machine

  const std::string path =
      testing::TempDir() + "telemetry_" + std::to_string(::getpid()) +
      ".jsonl";
  ASSERT_TRUE(tel.write_jsonl(path));
  std::ifstream in(path);
  ASSERT_TRUE(in);
  std::string line;
  std::size_t lines = 0;
  std::uint64_t prev_seq = 0;
  while (std::getline(in, line)) {
    ASSERT_TRUE(json_valid(line)) << line;
    JsonValue v;
    std::string err;
    ASSERT_TRUE(json_parse(line, &v, &err)) << err;
    EXPECT_EQ(v.str_or("type", ""), "telemetry");
    const std::uint64_t seq =
        static_cast<std::uint64_t>(v.int_or("seq", 0));
    if (lines > 0) {
      EXPECT_GT(seq, prev_seq);
    }
    prev_seq = seq;
    EXPECT_TRUE(v.get("jobs") != nullptr && v.get("jobs")->is_array());
    ++lines;
  }
  EXPECT_GT(lines, 0u);
  std::remove(path.c_str());
}

TEST(Telemetry, SampleNowReportsKnownJobs) {
  job_state(0);  // ensure the solo slot exists
  const TelemetrySample s = Telemetry::instance().sample_now();
  bool found = false;
  for (const JobSample& j : s.jobs) found = found || j.job == 0;
  EXPECT_TRUE(found);
}

TEST(Telemetry, ListenersFirePerRecordedSample) {
  Telemetry& tel = Telemetry::instance();
  tel.stop();
  int fired = 0;
  const std::uint64_t id =
      tel.add_listener([&](const TelemetrySample&) { ++fired; });
  tel.sample_now(/*record=*/true);
  EXPECT_EQ(fired, 1);
  tel.sample_now(/*record=*/false);  // unrecorded samples do not notify
  EXPECT_EQ(fired, 1);
  tel.remove_listener(id);
  tel.sample_now(/*record=*/true);
  EXPECT_EQ(fired, 1);
}

TEST(Telemetry, PrometheusTextExposesRegistry) {
  Registry& reg = Registry::instance();
  reg.counter("test.prom_counter").add(3);
  reg.gauge("test.prom_gauge").set(2.5);
  reg.histogram("test.prom_hist").observe(5);
  reg.register_source("prom-test", [] {
    return std::map<std::string, std::uint64_t>{{"polls", 1}};
  });

  const std::string text = prometheus_text();
  EXPECT_NE(text.find("# TYPE hsyn_test_prom_counter counter"),
            std::string::npos);
  EXPECT_NE(text.find("hsyn_test_prom_gauge 2.5"), std::string::npos);
  // observe(5) lands in the [4,8) bucket: cumulative le bound 7.
  EXPECT_NE(text.find("hsyn_test_prom_hist_bucket{le=\"7\"}"),
            std::string::npos);
  EXPECT_NE(text.find("hsyn_test_prom_hist_bucket{le=\"+Inf\"} "),
            std::string::npos);
  EXPECT_NE(text.find("hsyn_test_prom_hist_sum 5"), std::string::npos);
  EXPECT_NE(text.find("hsyn_test_prom_hist_count 1"), std::string::npos);
  // Polled sources (eval caches et al.) export under hsyn_src_.
  EXPECT_NE(text.find("hsyn_src_"), std::string::npos);
}

TEST(Telemetry, UptimeIsMonotonic) {
  const std::uint64_t a = process_uptime_ms();
  const std::uint64_t b = process_uptime_ms();
  EXPECT_LE(a, b);
}

}  // namespace
}  // namespace hsyn::obs
