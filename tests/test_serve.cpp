// Tests of the synthesis service (src/serve/): wire protocol
// round-trips, frame transport, the concurrent job engine's
// bit-identity/cancellation/budget behavior, and an end-to-end daemon
// over a unix socket.
#include <unistd.h>

#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "obs/ledger.h"
#include "obs/telemetry.h"
#include "serve/client.h"
#include "serve/framing.h"
#include "serve/jobs.h"
#include "serve/proto.h"
#include "serve/scheduler.h"
#include "serve/server.h"
#include "strip_timing.h"

namespace hsyn::serve {
namespace {

using testing_support::strip_timing;

JobSpec bench_spec(const std::string& name, std::uint64_t seed) {
  JobSpec spec;
  spec.benchmark = name;
  spec.seed = seed;
  spec.verify = false;
  return spec;
}

/// Collects completion callbacks from a JobEngine.
class Results {
 public:
  void add(std::uint64_t id, const JobOutcome& out) {
    std::lock_guard<std::mutex> lock(mu_);
    done_[id] = out;
    cv_.notify_all();
  }
  JobOutcome wait(std::uint64_t id) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return done_.count(id) != 0; });
    return done_[id];
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::map<std::uint64_t, JobOutcome> done_;
};

TEST(ServeProto, SubmitRoundTrip) {
  JobSpec spec;
  spec.design_text = "behavior top {\n  in a;\n  out \"y\";\n}\n";
  spec.design_name = "my design.dfg";
  spec.objective = Objective::Area;
  spec.mode = Mode::Flattened;
  spec.laxity = 1.75;
  spec.seed = 7;
  spec.templates = true;
  spec.verify = false;
  spec.time_budget_ms = 1500;
  spec.cache_budget_mb = 64;
  spec.want_progress = true;
  spec.want_ledger = true;
  spec.portfolio = 6;
  spec.portfolio_rounds = 2;
  spec.strategies = "preset=deep;order=cad,name=share-lead";

  Request req;
  std::string err;
  ASSERT_TRUE(parse_request(encode_submit(spec, "t-1"), &req, &err)) << err;
  EXPECT_EQ(req.type, Request::Type::Submit);
  EXPECT_EQ(req.tag, "t-1");
  EXPECT_EQ(req.spec.design_text, spec.design_text);
  EXPECT_EQ(req.spec.design_name, spec.design_name);
  EXPECT_EQ(req.spec.objective, Objective::Area);
  EXPECT_EQ(req.spec.mode, Mode::Flattened);
  EXPECT_DOUBLE_EQ(req.spec.laxity, 1.75);
  EXPECT_EQ(req.spec.seed, 7u);
  EXPECT_TRUE(req.spec.templates);
  EXPECT_FALSE(req.spec.verify);
  EXPECT_EQ(req.spec.time_budget_ms, 1500);
  EXPECT_EQ(req.spec.cache_budget_mb, 64);
  EXPECT_TRUE(req.spec.want_progress);
  EXPECT_TRUE(req.spec.want_ledger);
  EXPECT_EQ(req.spec.portfolio, 6);
  EXPECT_EQ(req.spec.portfolio_rounds, 2);
  EXPECT_EQ(req.spec.strategies, spec.strategies);
}

TEST(ServeProto, SubmitDefaultsOmitPortfolioFields) {
  // A plain single-seed spec must not grow portfolio keys on the wire
  // (old clients and old daemons keep interoperating), and parsing a
  // frame without them must yield the single-seed defaults.
  JobSpec spec;
  spec.benchmark = "test1";
  const std::string frame = encode_submit(spec, "t-2");
  EXPECT_EQ(frame.find("portfolio"), std::string::npos);
  EXPECT_EQ(frame.find("strategies"), std::string::npos);

  Request req;
  std::string err;
  ASSERT_TRUE(parse_request(frame, &req, &err)) << err;
  EXPECT_EQ(req.spec.portfolio, 0);
  EXPECT_EQ(req.spec.portfolio_rounds, 1);
  EXPECT_TRUE(req.spec.strategies.empty());
  EXPECT_EQ(req.spec.seed, 42u);  // documented default

  EXPECT_FALSE(parse_request(
      "{\"type\":\"submit\",\"benchmark\":\"test1\",\"portfolio\":-1}", &req,
      &err));
}

TEST(ServeProto, SubmitRequiresExactlyOneSource) {
  Request req;
  std::string err;
  EXPECT_FALSE(parse_request("{\"type\":\"submit\"}", &req, &err));
  EXPECT_FALSE(parse_request(
      "{\"type\":\"submit\",\"benchmark\":\"test1\",\"design\":\"x\"}", &req,
      &err));
  EXPECT_TRUE(parse_request("{\"type\":\"submit\",\"benchmark\":\"test1\"}",
                            &req, &err))
      << err;
}

TEST(ServeProto, MalformedRequestsRejected) {
  Request req;
  std::string err;
  EXPECT_FALSE(parse_request("not json", &req, &err));
  EXPECT_FALSE(parse_request("[1,2]", &req, &err));
  EXPECT_FALSE(parse_request("{\"type\":\"frobnicate\"}", &req, &err));
  EXPECT_FALSE(parse_request("{\"type\":\"cancel\"}", &req, &err));
  EXPECT_FALSE(parse_request(
      "{\"type\":\"submit\",\"benchmark\":\"test1\",\"mode\":\"bogus\"}", &req,
      &err));
}

TEST(ServeProto, ResultRoundTripPreservesReportBytes) {
  JobOutcome out;
  out.ok = true;
  out.report = "line one\n  \"quoted\"\tand\\slashed\nline three\n";
  out.area = 1234.5;
  out.power = 6.25;
  out.energy = 0.125;
  out.synth_seconds = 0.75;
  out.ledger_table = "class a | 1\n";
  out.ledger_jsonl = "{\"move\":\"a\"}\n";
  out.ledger_attempts = 42;
  out.cache_budget_charged = 1 << 20;
  out.cache_budget_rejects = 3;

  Response resp;
  std::string err;
  ASSERT_TRUE(parse_response(encode_result(9, out), &resp, &err)) << err;
  EXPECT_EQ(resp.type, Response::Type::Result);
  EXPECT_EQ(resp.job, 9u);
  EXPECT_TRUE(resp.outcome.ok);
  EXPECT_EQ(resp.outcome.report, out.report);
  EXPECT_DOUBLE_EQ(resp.outcome.area, 1234.5);
  EXPECT_DOUBLE_EQ(resp.outcome.power, 6.25);
  EXPECT_EQ(resp.outcome.ledger_table, out.ledger_table);
  EXPECT_EQ(resp.outcome.ledger_attempts, 42u);
  EXPECT_EQ(resp.outcome.cache_budget_charged, std::uint64_t{1} << 20);
  EXPECT_EQ(resp.outcome.cache_budget_rejects, 3u);
}

TEST(ServeProto, ProgressAndStatusRoundTrip) {
  SynthProgress ev;
  ev.stage = SynthProgress::Stage::Pass;
  ev.vdd = 3.3;
  ev.clock_ns = 20;
  ev.pass = 2;
  ev.moves_applied = 17;
  ev.moves_kept = 5;
  ev.cost = 123.5;
  Response resp;
  std::string err;
  ASSERT_TRUE(parse_response(encode_progress(4, ev), &resp, &err)) << err;
  EXPECT_EQ(resp.type, Response::Type::Progress);
  EXPECT_EQ(resp.job, 4u);
  EXPECT_EQ(resp.progress.stage, SynthProgress::Stage::Pass);
  EXPECT_EQ(resp.progress.pass, 2);
  EXPECT_EQ(resp.progress.moves_applied, 17);
  EXPECT_DOUBLE_EQ(resp.progress.cost, 123.5);

  std::vector<JobStatus> jobs = {
      {1, JobState::Done, ""},
      {2, JobState::Failed, "synthesis failed: infeasible"},
  };
  ASSERT_TRUE(parse_response(encode_status(jobs, 4, 7), &resp, &err)) << err;
  EXPECT_EQ(resp.type, Response::Type::Status);
  EXPECT_EQ(resp.sessions, 4);
  EXPECT_EQ(resp.queued, 7u);
  ASSERT_EQ(resp.jobs.size(), 2u);
  EXPECT_EQ(resp.jobs[0].state, JobState::Done);
  EXPECT_EQ(resp.jobs[1].state, JobState::Failed);
  EXPECT_EQ(resp.jobs[1].error, "synthesis failed: infeasible");
}

TEST(ServeFraming, FramesSurvivePipeTransport) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  const std::vector<std::string> frames = {
      "{\"type\":\"ping\"}",
      encode_result(1, [] {
        JobOutcome o;
        o.ok = true;
        o.report = "multi\nline\nreport with \"quotes\"\n";
        return o;
      }()),
      "{}",
  };
  for (const std::string& f : frames) ASSERT_TRUE(write_frame(fds[1], f));
  ::close(fds[1]);
  FrameReader reader(fds[0]);
  std::string got;
  for (const std::string& f : frames) {
    ASSERT_TRUE(reader.next(&got));
    EXPECT_EQ(got, f);
  }
  EXPECT_FALSE(reader.next(&got));  // EOF
  ::close(fds[0]);
}

TEST(ServeFraming, OversizedFramePoisonsReader) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  FrameReader reader(fds[0], /*max_frame=*/16);
  ASSERT_TRUE(write_frame(fds[1], "this frame is longer than sixteen bytes"));
  ::close(fds[1]);
  std::string got;
  EXPECT_FALSE(reader.next(&got));
  ::close(fds[0]);
}

TEST(ServeEngine, RunsJobsAndReportsStatus) {
  JobEngine engine(2);
  Results results;
  const std::uint64_t id = engine.submit(
      bench_spec("test1", 42), nullptr,
      [&](std::uint64_t j, const JobOutcome& out) { results.add(j, out); });
  ASSERT_NE(id, 0u);
  const JobOutcome out = results.wait(id);
  EXPECT_TRUE(out.ok) << out.error;
  EXPECT_NE(out.report.find("design test1"), std::string::npos);
  const std::vector<JobStatus> status = engine.status();
  ASSERT_EQ(status.size(), 1u);
  EXPECT_EQ(status[0].id, id);
  EXPECT_EQ(status[0].state, JobState::Done);
  engine.shutdown();
  // After shutdown, submissions are refused.
  EXPECT_EQ(engine.submit(bench_spec("test1", 42), nullptr, nullptr), 0u);
}

TEST(ServeEngine, TimeBudgetCancelsLongJob) {
  JobEngine engine(1);
  Results results;
  JobSpec spec = bench_spec("dct", 42);
  spec.time_budget_ms = 1;  // far too little for a dct synthesis
  const std::uint64_t id = engine.submit(
      std::move(spec), nullptr,
      [&](std::uint64_t j, const JobOutcome& out) { results.add(j, out); });
  ASSERT_NE(id, 0u);
  const JobOutcome out = results.wait(id);
  EXPECT_TRUE(out.cancelled);
  EXPECT_FALSE(out.ok);
}

TEST(ServeEngine, CancelHitsQueuedOrRunningJob) {
  JobEngine engine(1);  // one session: the second submission queues
  Results results;
  auto done = [&](std::uint64_t j, const JobOutcome& out) {
    results.add(j, out);
  };
  const std::uint64_t a = engine.submit(bench_spec("lat", 1), nullptr, done);
  const std::uint64_t b = engine.submit(bench_spec("lat", 2), nullptr, done);
  ASSERT_NE(a, 0u);
  ASSERT_NE(b, 0u);
  const bool hit = engine.cancel(b, "test cancel");
  const JobOutcome outB = results.wait(b);
  if (hit) {
    EXPECT_TRUE(outB.cancelled);
    EXPECT_EQ(outB.error, "test cancel");
  } else {
    EXPECT_TRUE(outB.ok);  // b finished before the cancel landed
  }
  EXPECT_TRUE(results.wait(a).ok);
  EXPECT_FALSE(engine.cancel(a, "too late"));  // finished jobs refuse
}

TEST(ServeEngine, CacheBudgetCapsTheJobsCharge) {
  JobEngine engine(1);
  Results results;
  JobSpec spec = bench_spec("lat", 5);
  spec.cache_budget_mb = 1;  // tight enough to force rejections
  const std::uint64_t id = engine.submit(
      std::move(spec), nullptr,
      [&](std::uint64_t j, const JobOutcome& out) { results.add(j, out); });
  const JobOutcome out = results.wait(id);
  ASSERT_TRUE(out.ok) << out.error;
  EXPECT_LE(out.cache_budget_charged, std::uint64_t{1} << 20);
}

TEST(ServeEngine, LedgerJobLeavesTheLedgerAsItFoundIt) {
  obs::MoveLedger& led = obs::MoveLedger::instance();
  led.set_enabled(false);
  led.reset();
  JobEngine engine(1);
  Results results;
  auto done = [&](std::uint64_t j, const JobOutcome& out) { results.add(j, out); };
  JobSpec with_ledger = bench_spec("test1", 42);
  with_ledger.want_ledger = true;
  const std::uint64_t a = engine.submit(std::move(with_ledger), nullptr, done);
  const JobOutcome out_a = results.wait(a);
  ASSERT_TRUE(out_a.ok) << out_a.error;
  EXPECT_GT(out_a.ledger_attempts, 0u);
  EXPECT_FALSE(led.enabled());
  const std::size_t records = led.merged().size();

  // A plain job afterwards records nothing.
  const std::uint64_t b = engine.submit(bench_spec("test1", 43), nullptr, done);
  const JobOutcome out_b = results.wait(b);
  ASSERT_TRUE(out_b.ok) << out_b.error;
  EXPECT_EQ(led.merged(b).size(), 0u);
  EXPECT_EQ(led.merged().size(), records);
  engine.shutdown();
  led.reset();
}

// The tentpole guarantee: >= 4 jobs in flight on one engine, every
// report bit-identical (timing stripped) to a solo run of the same
// spec.
TEST(ServeStress, ConcurrentJobsBitIdentical) {
  const std::vector<JobSpec> specs = {
      bench_spec("test1", 11),
      bench_spec("test1", 12),
      bench_spec("lat", 11),
      bench_spec("lat", 12),
  };
  std::vector<std::string> solo;
  for (const JobSpec& spec : specs) {
    const JobOutcome out = run_job(spec, JobHooks{});
    ASSERT_TRUE(out.ok) << out.error;
    solo.push_back(strip_timing(out.report));
  }
  // Distinct seeds must actually explore distinct runs for the identity
  // check below to mean anything.
  EXPECT_NE(solo[0], solo[2]);

  JobEngine engine(4);
  Results results;
  std::vector<std::uint64_t> ids;
  for (const JobSpec& spec : specs) {
    ids.push_back(engine.submit(
        spec, nullptr,
        [&](std::uint64_t j, const JobOutcome& out) { results.add(j, out); }));
    ASSERT_NE(ids.back(), 0u);
  }
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const JobOutcome out = results.wait(ids[i]);
    ASSERT_TRUE(out.ok) << out.error;
    EXPECT_EQ(strip_timing(out.report), solo[i])
        << "job " << ids[i] << " diverged from its solo run";
  }
}

TEST(ServeEndToEnd, UnixSocketDaemonRoundTrip) {
  const std::string path =
      "/tmp/hsyn_test_" + std::to_string(::getpid()) + ".sock";
  Server server(ServerOptions{path, 0, 2});
  std::string err;
  ASSERT_TRUE(server.start(&err)) << err;
  std::thread daemon([&] { server.run(); });

  const JobOutcome base = run_job(bench_spec("test1", 42), JobHooks{});
  ASSERT_TRUE(base.ok) << base.error;

  Client client;
  ASSERT_TRUE(client.connect(path, &err)) << err;
  ASSERT_TRUE(client.ping(&err)) << err;

  JobSpec spec = bench_spec("test1", 42);
  spec.want_progress = true;
  std::atomic<int> events{0};
  JobOutcome out;
  ASSERT_TRUE(client.run_job(
      spec, [&](const SynthProgress&) { events.fetch_add(1); }, &out, &err))
      << err;
  EXPECT_TRUE(out.ok) << out.error;
  EXPECT_EQ(strip_timing(out.report), strip_timing(base.report));
  EXPECT_GT(events.load(), 0);

  std::vector<JobStatus> jobs;
  int sessions = 0;
  std::uint64_t queued = 0;
  ASSERT_TRUE(client.status(&jobs, &sessions, &queued, &err)) << err;
  EXPECT_EQ(sessions, 2);
  ASSERT_EQ(jobs.size(), 1u);
  EXPECT_EQ(jobs[0].state, JobState::Done);

  ASSERT_TRUE(client.shutdown_server(&err)) << err;
  daemon.join();
  // The socket file is gone after a clean shutdown.
  EXPECT_NE(::access(path.c_str(), F_OK), 0);
}

TEST(ServeProto, StatsWatchRequestRoundTrip) {
  Request req;
  std::string err;
  ASSERT_TRUE(parse_request(encode_stats_request(), &req, &err)) << err;
  EXPECT_EQ(req.type, Request::Type::Stats);
  ASSERT_TRUE(parse_request(encode_watch(7), &req, &err)) << err;
  EXPECT_EQ(req.type, Request::Type::Watch);
  EXPECT_EQ(req.job, 7u);
  ASSERT_TRUE(parse_request(encode_watch(0), &req, &err)) << err;
  EXPECT_EQ(req.type, Request::Type::Watch);
  EXPECT_EQ(req.job, 0u);  // whole-server watch omits the job key
  ASSERT_TRUE(parse_request(encode_unwatch(), &req, &err)) << err;
  EXPECT_EQ(req.type, Request::Type::Unwatch);
}

TelemetryFrame sample_frame() {
  TelemetryFrame f;
  f.seq = 12;
  f.t_ms = 3456;
  f.uptime_ms = 789;
  f.regions = 4;
  f.tasks = 99;
  f.cache_hits = 1000;
  f.cache_misses = 50;
  f.cache_bytes = 1 << 20;
  f.spans_dropped = 1;
  f.ledger_dropped = 2;
  f.rewrites_refuted = 3;
  JobTelemetry j;
  j.job = 5;
  j.state = "running";
  j.passes = 8;
  j.pass = 2;
  j.depth = 4;
  j.moves_applied = 70;
  j.moves_accepted = 12;
  j.applied_by_class[0] = 40;
  j.applied_by_class[1] = 20;
  j.applied_by_class[2] = 10;
  j.accepted_by_class[0] = 6;
  j.accepted_by_class[1] = 4;
  j.accepted_by_class[2] = 2;
  j.rewrites_refuted = 1;
  j.strategies_done = 3;
  j.cache_hits = 500;
  j.cache_misses = 25;
  j.replay_samples = 64;
  j.best_cost = 123.5;
  j.vdd = 3.3;
  j.clock_ns = 20.0;
  f.jobs.push_back(j);
  return f;
}

TEST(ServeProto, TelemetryFrameRoundTrip) {
  const TelemetryFrame f = sample_frame();
  Response resp;
  std::string err;
  ASSERT_TRUE(parse_response(encode_telemetry(f), &resp, &err)) << err;
  EXPECT_EQ(resp.type, Response::Type::Telemetry);
  const TelemetryFrame& g = resp.telemetry;
  EXPECT_EQ(g.seq, 12u);
  EXPECT_EQ(g.uptime_ms, 789u);
  EXPECT_EQ(g.tasks, 99u);
  EXPECT_EQ(g.cache_hits, 1000u);
  EXPECT_EQ(g.spans_dropped, 1u);
  EXPECT_EQ(g.ledger_dropped, 2u);
  EXPECT_EQ(g.rewrites_refuted, 3u);
  ASSERT_EQ(g.jobs.size(), 1u);
  const JobTelemetry& j = g.jobs[0];
  EXPECT_EQ(j.job, 5u);
  EXPECT_EQ(j.state, "running");
  EXPECT_EQ(j.passes, 8u);
  EXPECT_EQ(j.pass, 2);
  EXPECT_EQ(j.depth, 4);
  EXPECT_EQ(j.moves_applied, 70u);
  EXPECT_EQ(j.moves_accepted, 12u);
  EXPECT_EQ(j.applied_by_class[1], 20u);
  EXPECT_EQ(j.accepted_by_class[2], 2u);
  EXPECT_EQ(j.rewrites_refuted, 1u);
  EXPECT_EQ(j.strategies_done, 3u);
  EXPECT_EQ(j.cache_hits, 500u);
  EXPECT_EQ(j.replay_samples, 64u);
  EXPECT_DOUBLE_EQ(j.best_cost, 123.5);
  EXPECT_DOUBLE_EQ(j.vdd, 3.3);
  EXPECT_DOUBLE_EQ(j.clock_ns, 20.0);
}

TEST(ServeProto, StatsResponseRoundTrip) {
  ServerStats st;
  st.uptime_ms = 60000;
  st.sessions = 4;
  st.active = 2;
  st.queued = 9;
  st.interval_ms = 250;
  st.sampler_running = true;
  Response resp;
  std::string err;
  ASSERT_TRUE(parse_response(encode_stats(st, sample_frame()), &resp, &err))
      << err;
  EXPECT_EQ(resp.type, Response::Type::Stats);
  EXPECT_EQ(resp.stats.uptime_ms, 60000u);
  EXPECT_EQ(resp.stats.sessions, 4);
  EXPECT_EQ(resp.stats.active, 2u);
  EXPECT_EQ(resp.stats.queued, 9u);
  EXPECT_EQ(resp.stats.interval_ms, 250);
  EXPECT_TRUE(resp.stats.sampler_running);
  // The embedded telemetry body rides along.
  EXPECT_EQ(resp.telemetry.seq, 12u);
  ASSERT_EQ(resp.telemetry.jobs.size(), 1u);
  EXPECT_EQ(resp.telemetry.jobs[0].job, 5u);
}

TEST(ServeProto, PongCarriesUptimeAndLoad) {
  Response resp;
  std::string err;
  ASSERT_TRUE(parse_response(encode_pong(1234, 2, 5), &resp, &err)) << err;
  EXPECT_EQ(resp.type, Response::Type::Pong);
  EXPECT_EQ(resp.uptime_ms, 1234u);
  EXPECT_EQ(resp.active, 2u);
  EXPECT_EQ(resp.queued, 5u);
  // The legacy shape (no load fields) still parses.
  ASSERT_TRUE(parse_response("{\"type\":\"pong\"}", &resp, &err)) << err;
  EXPECT_EQ(resp.type, Response::Type::Pong);
  EXPECT_EQ(resp.uptime_ms, 0u);
}

TEST(ServeEndToEnd, StatsAndWatchAgainstLiveDaemon) {
  // A fast sampler so the watch sees frames promptly; the daemon's
  // Telemetry::start resolves HSYN_TELEMETRY_MS when (re)starting.
  obs::Telemetry::instance().stop();
  ::setenv("HSYN_TELEMETRY_MS", "20", 1);
  const std::string path =
      "/tmp/hsyn_test_tel_" + std::to_string(::getpid()) + ".sock";
  Server server(ServerOptions{path, 0, 2});
  std::string err;
  ASSERT_TRUE(server.start(&err)) << err;
  std::thread daemon([&] { server.run(); });

  Client client;
  ASSERT_TRUE(client.connect(path, &err)) << err;
  JobOutcome out;
  ASSERT_TRUE(client.run_job(bench_spec("test1", 42), nullptr, &out, &err))
      << err;
  EXPECT_TRUE(out.ok) << out.error;

  // One-shot stats: server block + embedded telemetry with the job row.
  ServerStats st;
  TelemetryFrame frame;
  std::string raw;
  ASSERT_TRUE(client.stats(&st, &frame, &raw, &err)) << err;
  EXPECT_EQ(st.sessions, 2);
  EXPECT_TRUE(st.sampler_running);
  EXPECT_GT(st.interval_ms, 0);
  ASSERT_EQ(frame.jobs.size(), 1u);
  EXPECT_EQ(frame.jobs[0].state, "done");
  EXPECT_GT(frame.jobs[0].passes, 0u);
  EXPECT_FALSE(raw.empty());
  EXPECT_NE(raw.find("\"type\":\"stats\""), std::string::npos);

  // Live watch on a second connection: frames arrive on the sampler's
  // cadence with increasing seq; the finished job reports state done.
  Client watcher;
  ASSERT_TRUE(watcher.connect(path, &err)) << err;
  int frames = 0;
  std::uint64_t prev_seq = 0;
  ASSERT_TRUE(watcher.watch(
      0,
      [&](const TelemetryFrame& f) {
        if (frames > 0) {
          EXPECT_GT(f.seq, prev_seq);
        }
        prev_seq = f.seq;
        ++frames;
        return frames < 3;
      },
      &err))
      << err;
  EXPECT_EQ(frames, 3);

  ASSERT_TRUE(client.shutdown_server(&err)) << err;
  daemon.join();
  ::unsetenv("HSYN_TELEMETRY_MS");
}

// TSan stress (the CI thread-sanitizer job filters on ServeStress.*):
// concurrent jobs mutate the per-job search state while the sampler and
// a watch subscriber read it.
TEST(ServeStress, WatchWhileConcurrentJobsRun) {
  obs::Telemetry::instance().stop();
  ::setenv("HSYN_TELEMETRY_MS", "5", 1);
  const std::string path =
      "/tmp/hsyn_test_watch_" + std::to_string(::getpid()) + ".sock";
  Server server(ServerOptions{path, 0, 4});
  std::string err;
  ASSERT_TRUE(server.start(&err)) << err;
  std::thread daemon([&] { server.run(); });

  std::vector<std::thread> submitters;
  std::atomic<int> ok{0};
  for (int i = 0; i < 4; ++i) {
    submitters.emplace_back([&, i] {
      Client c;
      std::string e;
      JobOutcome out;
      if (c.connect(path, &e) &&
          c.run_job(bench_spec(i % 2 ? "test1" : "lat",
                               static_cast<std::uint64_t>(11 + i)),
                    nullptr, &out, &e) &&
          out.ok) {
        ok.fetch_add(1);
      }
    });
  }

  Client watcher;
  std::string werr;
  ASSERT_TRUE(watcher.connect(path, &werr)) << werr;
  const bool watched = watcher.watch(
      0,
      [&](const TelemetryFrame& f) {
        std::size_t finished = 0;
        for (const JobTelemetry& j : f.jobs) {
          if (j.state != "queued" && j.state != "running") ++finished;
        }
        return !(f.jobs.size() >= 4 && finished >= 4);
      },
      &werr);
  EXPECT_TRUE(watched) << werr;

  for (std::thread& t : submitters) t.join();
  EXPECT_EQ(ok.load(), 4);
  ASSERT_TRUE(watcher.shutdown_server(&werr)) << werr;
  daemon.join();
  ::unsetenv("HSYN_TELEMETRY_MS");
}

TEST(ServeEndToEnd, SecondDaemonRefusesBusySocket) {
  const std::string path =
      "/tmp/hsyn_test2_" + std::to_string(::getpid()) + ".sock";
  Server server(ServerOptions{path, 0, 1});
  std::string err;
  ASSERT_TRUE(server.start(&err)) << err;
  std::thread daemon([&] { server.run(); });

  Listener second;
  std::string err2;
  EXPECT_FALSE(second.listen_unix(path, &err2));
  EXPECT_NE(err2.find("already listening"), std::string::npos);

  server.request_shutdown();
  daemon.join();
}

}  // namespace
}  // namespace hsyn::serve
