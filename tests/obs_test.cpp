// Tests for the wfc::obs observability layer: the metrics registry, the
// lock-free trace ring, the Observer facade, and the JSONL v2 protocol that
// exposes them -- including golden-file round trips of the envelope,
// op-less request lines, and the metrics / trace ops.
#include <gtest/gtest.h>

#include <atomic>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "service/frontend.hpp"
#include "service/jsonl.hpp"
#include "service/query_service.hpp"
#include "service/status.hpp"
#include "tasks/canonical.hpp"

namespace wfc {
namespace {

using obs::Histogram;
using obs::MetricsRegistry;
using obs::Observer;
using obs::ObsConfig;
using obs::Span;
using obs::SpanKind;
using obs::TraceContext;
using obs::TraceSink;

// ---------------------------------------------------------------------------
// Metrics registry.

TEST(Metrics, CounterAndGaugeBasics) {
  obs::Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);

  obs::Gauge g;
  g.set(7);
  g.set(3);
  EXPECT_EQ(g.value(), 3u);
}

TEST(Metrics, HistogramBucketBoundsAreInclusive) {
  Histogram h({10, 100, 1000});
  h.observe(10);    // == bound 0: bucket 0 (inclusive upper bound)
  h.observe(11);    // bucket 1
  h.observe(100);   // bucket 1
  h.observe(1000);  // bucket 2
  h.observe(1001);  // +Inf bucket
  h.observe(0);     // bucket 0

  EXPECT_EQ(h.bucket(0), 2u);
  EXPECT_EQ(h.bucket(1), 2u);
  EXPECT_EQ(h.bucket(2), 1u);
  EXPECT_EQ(h.bucket(3), 1u);  // +Inf
  EXPECT_EQ(h.count(), 6u);
  EXPECT_EQ(h.sum(), 10u + 11 + 100 + 1000 + 1001);
}

TEST(Metrics, RegistryHandsOutStableIdentities) {
  MetricsRegistry reg;
  obs::Counter& a = reg.counter("wfc_widgets_total", R"(kind="x")");
  obs::Counter& b = reg.counter("wfc_widgets_total", R"(kind="x")");
  obs::Counter& c = reg.counter("wfc_widgets_total", R"(kind="y")");
  EXPECT_EQ(&a, &b) << "same (name, labels) must be the same series";
  EXPECT_NE(&a, &c) << "distinct labels are distinct series";
  a.inc(5);
  EXPECT_EQ(b.value(), 5u);
  EXPECT_EQ(c.value(), 0u);
}

TEST(Metrics, PrometheusTextExpositionShape) {
  MetricsRegistry reg;
  reg.counter("wfc_q_total", "", "Queries").inc(3);
  reg.counter("wfc_q_by_kind_total", R"(kind="solve")").inc(2);
  reg.gauge("wfc_depth", "", "Queue depth").set(4);
  Histogram& h = reg.histogram("wfc_lat_us", {10, 100}, "", "Latency");
  h.observe(5);
  h.observe(50);
  h.observe(500);

  std::ostringstream out;
  reg.write_prometheus(out);
  const std::string text = out.str();

  EXPECT_NE(text.find("# HELP wfc_q_total Queries"), std::string::npos);
  EXPECT_NE(text.find("# TYPE wfc_q_total counter"), std::string::npos);
  EXPECT_NE(text.find("wfc_q_total 3"), std::string::npos);
  EXPECT_NE(text.find(R"(wfc_q_by_kind_total{kind="solve"} 2)"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE wfc_depth gauge"), std::string::npos);
  EXPECT_NE(text.find("wfc_depth 4"), std::string::npos);
  // Histogram buckets are CUMULATIVE in the exposition format.
  EXPECT_NE(text.find("# TYPE wfc_lat_us histogram"), std::string::npos);
  EXPECT_NE(text.find(R"(wfc_lat_us_bucket{le="10"} 1)"), std::string::npos);
  EXPECT_NE(text.find(R"(wfc_lat_us_bucket{le="100"} 2)"), std::string::npos);
  EXPECT_NE(text.find(R"(wfc_lat_us_bucket{le="+Inf"} 3)"), std::string::npos);
  EXPECT_NE(text.find("wfc_lat_us_sum 555"), std::string::npos);
  EXPECT_NE(text.find("wfc_lat_us_count 3"), std::string::npos);
}

TEST(Metrics, StockBoundsAreStrictlyIncreasing) {
  for (const auto* bounds : {&obs::latency_bounds_us(), &obs::size_bounds()}) {
    ASSERT_FALSE(bounds->empty());
    for (std::size_t i = 1; i < bounds->size(); ++i) {
      EXPECT_LT((*bounds)[i - 1], (*bounds)[i]);
    }
  }
}

// ---------------------------------------------------------------------------
// Trace ring.

TEST(Trace, RecordAndSnapshotRoundTrip) {
  TraceSink sink(/*capacity=*/64, /*shards=*/2);
  sink.record(1, SpanKind::kQueueWait, 10, 5, 0);
  sink.record(2, SpanKind::kSearch, 20, 30, 123);
  sink.record(1, SpanKind::kSearch, 15, 40, 99);

  const std::vector<Span> spans = sink.snapshot();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(sink.recorded(), 3u);
  EXPECT_EQ(sink.dropped(), 0u);
  // Sorted by (trace_id, start).
  EXPECT_EQ(spans[0].trace_id, 1u);
  EXPECT_EQ(spans[0].start_us, 10u);
  EXPECT_EQ(spans[1].trace_id, 1u);
  EXPECT_EQ(spans[1].start_us, 15u);
  EXPECT_EQ(spans[1].arg, 99u);
  EXPECT_EQ(spans[2].trace_id, 2u);
  EXPECT_EQ(spans[2].kind, SpanKind::kSearch);
}

TEST(Trace, RingWrapOverwritesOldestAndCountsDropped) {
  TraceSink sink(/*capacity=*/8, /*shards=*/1);
  for (std::uint64_t i = 0; i < 100; ++i) {
    sink.record(i, SpanKind::kQueueWait, i, 1, 0);
  }
  EXPECT_EQ(sink.recorded(), 100u);
  EXPECT_GT(sink.dropped(), 0u);
  const std::vector<Span> spans = sink.snapshot();
  EXPECT_LE(spans.size(), 8u);
  EXPECT_FALSE(spans.empty());
  // Only the newest spans survive the wrap.
  for (const Span& s : spans) EXPECT_GE(s.trace_id, 92u);
}

TEST(Trace, ConcurrentRecordingLosesNothingWithinCapacity) {
  constexpr int kThreads = 4;
  constexpr std::uint64_t kPerThread = 500;
  TraceSink sink(/*capacity=*/4096, /*shards=*/kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&sink, t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        sink.record(static_cast<std::uint64_t>(t) * kPerThread + i,
                    SpanKind::kSearch, i, 1, i);
      }
    });
  }
  // Snapshot concurrently with the writers: must not crash or tear.
  for (int i = 0; i < 8; ++i) (void)sink.snapshot();
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(sink.recorded(), kThreads * kPerThread);
  EXPECT_EQ(sink.dropped(), 0u);
  EXPECT_EQ(sink.snapshot().size(), kThreads * kPerThread);
}

TEST(Trace, ChromeTraceJsonHasEventsCountersAndThreadNames) {
  TraceSink sink(64, 1);
  sink.record(1, SpanKind::kQueueWait, 0, 10, 0);
  sink.record(1, SpanKind::kSearch, 10, 100, 42);
  sink.record(1, SpanKind::kSearchNodes, 60, 0, 4096);  // counter sample
  sink.record(2, SpanKind::kMemoHit, 5, 0, 0);          // instant

  std::ostringstream out;
  sink.write_chrome_trace(out);
  const std::string json = out.str();

  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos)
      << "complete events for duration spans";
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos)
      << "counter track for search-node checkpoints";
  EXPECT_NE(json.find("thread_name"), std::string::npos)
      << "per-query thread_name metadata";
  EXPECT_NE(json.find("queue_wait"), std::string::npos);
  EXPECT_NE(json.find("search"), std::string::npos);
  // Balanced braces / brackets is a cheap well-formedness proxy.
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
}

TEST(Trace, DisabledContextIsInertAndScopedSpanRecords) {
  const TraceContext off;
  EXPECT_FALSE(off.enabled());
  off.instant(SpanKind::kMemoHit);
  off.checkpoint(SpanKind::kSearchNodes, 10);
  {
    auto span = off.span(SpanKind::kSearch);
    span.arg = 5;
  }  // must not crash, must not record anywhere

  TraceSink sink(64, 1);
  const TraceContext on(&sink, 77);
  EXPECT_TRUE(on.enabled());
  EXPECT_EQ(on.trace_id(), 77u);
  {
    auto span = on.span(SpanKind::kSearch);
    span.arg = 12345;
  }
  on.instant(SpanKind::kWatchdogKill);
  const std::vector<Span> spans = sink.snapshot();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].trace_id, 77u);
  bool saw_search = false;
  for (const Span& s : spans) {
    if (s.kind == SpanKind::kSearch) {
      saw_search = true;
      EXPECT_EQ(s.arg, 12345u);
    }
  }
  EXPECT_TRUE(saw_search);
}

// ---------------------------------------------------------------------------
// Observer facade.

TEST(Observer, DisabledByDefaultAndHandsOutInertContexts) {
  Observer off;
  EXPECT_FALSE(off.enabled());
  EXPECT_EQ(off.trace(), nullptr);
  EXPECT_FALSE(off.begin_trace().enabled());

  ObsConfig config;
  config.enabled = true;
  config.trace_capacity = 256;
  config.trace_shards = 2;
  Observer on(config);
  EXPECT_TRUE(on.enabled());
  ASSERT_NE(on.trace(), nullptr);
  const TraceContext a = on.begin_trace();
  const TraceContext b = on.begin_trace();
  EXPECT_TRUE(a.enabled());
  EXPECT_TRUE(b.enabled());
  EXPECT_NE(a.trace_id(), b.trace_id())
      << "trace ids must be unique per query";
}

TEST(Observer, GaugeRefreshRunsBeforePrometheusExport) {
  ObsConfig config;
  config.enabled = true;
  Observer observer(config);
  int refreshes = 0;
  observer.set_gauge_refresh([&] {
    ++refreshes;
    observer.metrics().gauge("wfc_mirror", "", "refreshed").set(99);
  });
  std::ostringstream out;
  observer.write_prometheus(out);
  EXPECT_EQ(refreshes, 1);
  EXPECT_NE(out.str().find("wfc_mirror 99"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Service integration: counters reconcile with ServiceStats, spans flow.

TEST(ServiceObs, CountersReconcileWithServiceStatsAndSpansFlow) {
  svc::QueryService::Options options;
  options.workers = 2;
  options.obs.enabled = true;
  svc::QueryService service(options);
  ASSERT_TRUE(service.observer().enabled());

  constexpr int kQueries = 12;
  std::vector<svc::QueryTicket> tickets;
  for (int i = 0; i < kQueries; ++i) {
    tickets.push_back(service.submit(svc::Query::solve(
        i % 2 == 0 ? std::static_pointer_cast<const task::Task>(
                         std::make_shared<task::ConsensusTask>(2, 2))
                   : std::static_pointer_cast<const task::Task>(
                         std::make_shared<task::ApproxAgreementTask>(2, 3)))));
  }
  for (svc::QueryTicket& t : tickets) (void)t.result.get();

  const svc::ServiceStats stats = service.stats();
  obs::MetricsRegistry& reg = service.observer().metrics();
  const std::uint64_t submitted =
      reg.counter("wfc_queries_submitted_total").value();
  std::uint64_t terminal = 0;
  for (int s = 0; s < svc::kNumStatuses; ++s) {
    terminal += reg.counter("wfc_queries_terminal_total",
                            std::string(R"(status=")") +
                                svc::to_json_token(
                                    static_cast<svc::Status>(s)) +
                                R"(")")
                    .value();
  }
  EXPECT_EQ(submitted, static_cast<std::uint64_t>(kQueries));
  EXPECT_EQ(submitted, stats.submitted);
  EXPECT_EQ(terminal, submitted) << "every query must reach one terminal";
  EXPECT_EQ(reg.counter("wfc_queries_by_kind_total", R"(kind="solve")")
                .value(),
            static_cast<std::uint64_t>(kQueries));

  // Latency histograms saw every executed query.
  EXPECT_EQ(reg.histogram("wfc_e2e_us", obs::latency_bounds_us()).count(),
            static_cast<std::uint64_t>(kQueries));

  // The trace ring holds a queue-wait span and a search span per fresh query
  // (memoized repeats answer inline, so only require presence, not counts).
  ASSERT_NE(service.observer().trace(), nullptr);
  bool saw_queue_wait = false;
  bool saw_search = false;
  for (const Span& s : service.observer().trace()->snapshot()) {
    saw_queue_wait |= s.kind == SpanKind::kQueueWait;
    saw_search |= s.kind == SpanKind::kSearch;
  }
  EXPECT_TRUE(saw_queue_wait);
  EXPECT_TRUE(saw_search);
}

TEST(ServiceObs, DisabledObserverKeepsRegistryEmptyAndTracesOff) {
  svc::QueryService service;  // ObsConfig::enabled defaults to false
  EXPECT_FALSE(service.observer().enabled());
  EXPECT_EQ(service.observer().trace(), nullptr);
  auto ticket = service.submit(svc::Query::solve(
      std::make_shared<task::ConsensusTask>(2, 2)));
  (void)ticket.result.get();
  // The registry was never populated: a Prometheus export is header-free.
  std::ostringstream out;
  service.observer().write_prometheus(out);
  EXPECT_EQ(out.str().find("wfc_queries_submitted_total"), std::string::npos);
}

// ---------------------------------------------------------------------------
// JSONL round trips: the envelope, op-less lines, metrics / trace ops.

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

int run_serve(const std::string& input, const svc::ServeConfig& config,
              std::vector<std::string>* out_lines, std::string* err_text) {
  std::istringstream in(input);
  std::ostringstream out;
  std::ostringstream err;
  const int errors = svc::run_jsonl_server(in, out, err, config);
  *out_lines = lines_of(out.str());
  if (err_text != nullptr) *err_text = err.str();
  return errors;
}

TEST(JsonlRoundTrip, V2EnvelopeSplitsTransportStatusFromVerdict) {
  svc::ServeConfig config;
  config.stats_at_eof = false;
  std::vector<std::string> out;
  const int errors = run_serve(
      R"({"id":"q1","op":"solve","task":"consensus","procs":2,"values":2})"
      "\n"
      R"({"id":"q2","op":"emulate","procs":2,"shots":1})"
      "\n"
      R"({"id":"q3","op":"check","target":"sds","procs":2,"rounds":2})"
      "\n"
      R"({"id":"q4","op":"solve","task":"consensus","procs":0})"
      "\n",
      config, &out, nullptr);
  EXPECT_EQ(errors, 1) << "q4 is malformed and must count as an error line";
  ASSERT_EQ(out.size(), 4u);

  const auto q1 = svc::parse_flat_json(out[0]);
  EXPECT_EQ(q1.at("id"), "q1");
  EXPECT_EQ(q1.at("status"), "ok");
  EXPECT_EQ(q1.at("verdict"), "UNSOLVABLE");
  const auto q2 = svc::parse_flat_json(out[1]);
  EXPECT_EQ(q2.at("status"), "ok");
  EXPECT_EQ(q2.at("verdict"), "OK");
  const auto q3 = svc::parse_flat_json(out[2]);
  EXPECT_EQ(q3.at("status"), "ok");
  ASSERT_EQ(q3.count("verdict"), 1u);
  // Error lines carry the lowercase taxonomy and no verdict.
  const auto q4 = svc::parse_flat_json(out[3]);
  EXPECT_EQ(q4.at("status"), "invalid_argument");
  EXPECT_EQ(q4.count("verdict"), 0u);
}

TEST(JsonlRoundTrip, OpLessLineAnswersInvalidArgumentWithLineAndId) {
  svc::ServeConfig config;
  config.stats_at_eof = false;
  std::vector<std::string> out;
  std::string err;
  const int errors = run_serve(
      R"({"id":"x","task":"consensus","procs":2,"values":2})"
      "\n"
      R"({"task":"approx","procs":2,"grid":3})"
      "\n"
      R"({"id":"y","op":"solve","task":"approx","procs":2,"grid":3})"
      "\n",
      config, &out, &err);
  EXPECT_EQ(errors, 2);
  ASSERT_EQ(out.size(), 3u);
  const auto x = svc::parse_flat_json(out[0]);
  EXPECT_EQ(x.at("id"), "x");
  EXPECT_EQ(x.at("status"), "invalid_argument");
  EXPECT_EQ(x.at("line"), "1");
  EXPECT_EQ(x.at("error"), R"(missing field "op")");
  EXPECT_EQ(x.count("verdict"), 0u);
  const auto anon = svc::parse_flat_json(out[1]);
  EXPECT_EQ(anon.count("id"), 0u);
  EXPECT_EQ(anon.at("status"), "invalid_argument");
  EXPECT_EQ(anon.at("line"), "2");
  // The loop keeps serving after the rejected lines.
  const auto y = svc::parse_flat_json(out[2]);
  EXPECT_EQ(y.at("id"), "y");
  EXPECT_EQ(y.at("verdict"), "SOLVABLE");
  EXPECT_TRUE(err.empty()) << err;
}

TEST(JsonlRoundTrip, MetricsOpReconcilesAndWritesPrometheusFile) {
  const std::string prom_path =
      testing::TempDir() + "/wfc_obs_test_prom.txt";
  svc::ServeConfig config;
  config.stats_at_eof = false;
  std::vector<std::string> out;
  const int errors = run_serve(
      R"({"op":"solve","task":"consensus","procs":2,"values":2})"
      "\n"
      R"({"op":"solve","task":"approx","procs":2,"grid":3})"
      "\n"
      R"({"id":"m","op":"metrics","path":")" +
          prom_path + R"("})"
                      "\n",
      config, &out, nullptr);
  EXPECT_EQ(errors, 0);
  ASSERT_EQ(out.size(), 3u);

  const auto m = svc::parse_flat_json(out[2]);
  EXPECT_EQ(m.at("id"), "m");
  EXPECT_EQ(m.at("op"), "metrics");
  EXPECT_EQ(m.at("status"), "ok");
  EXPECT_EQ(m.at("submitted"), "2");
  EXPECT_EQ(m.at("terminal"), "2");
  EXPECT_EQ(m.at("stats_submitted"), "2");
  EXPECT_EQ(m.at("reconciles"), "true");

  std::ifstream prom(prom_path);
  ASSERT_TRUE(prom.good()) << "metrics op must write the exposition file";
  std::stringstream text;
  text << prom.rdbuf();
  EXPECT_NE(text.str().find("# TYPE wfc_queries_submitted_total counter"),
            std::string::npos);
  EXPECT_NE(text.str().find("wfc_queries_submitted_total 2"),
            std::string::npos);
  EXPECT_NE(text.str().find(R"(wfc_queries_terminal_total{status="ok"} 2)"),
            std::string::npos);
}

TEST(JsonlRoundTrip, TraceOpWritesLoadableChromeTrace) {
  const std::string trace_path =
      testing::TempDir() + "/wfc_obs_test_trace.json";
  svc::ServeConfig config;
  config.stats_at_eof = false;
  std::vector<std::string> out;
  const int errors = run_serve(
      R"({"op":"solve","task":"consensus","procs":2,"values":2})"
      "\n"
      R"({"op":"trace","path":")" +
          trace_path + R"("})"
                       "\n",
      config, &out, nullptr);
  EXPECT_EQ(errors, 0);
  ASSERT_EQ(out.size(), 2u);
  const auto t = svc::parse_flat_json(out[1]);
  EXPECT_EQ(t.at("op"), "trace");
  EXPECT_EQ(t.at("status"), "ok");
  EXPECT_EQ(t.at("path"), trace_path);
  EXPECT_GT(std::stoull(t.at("spans")), 0u);

  std::ifstream file(trace_path);
  ASSERT_TRUE(file.good());
  std::stringstream json;
  json << file.rdbuf();
  EXPECT_NE(json.str().find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.str().find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.str().find("queue_wait"), std::string::npos);
}

TEST(JsonlRoundTrip, ObsOpsAnswerInvalidArgumentWhenLayerIsOff) {
  svc::ServeConfig config;
  config.stats_at_eof = false;
  config.observability = false;  // honour service.obs.enabled == false
  std::vector<std::string> out;
  const int errors = run_serve(
      R"({"op":"metrics"})"
      "\n"
      R"({"op":"trace","path":"/tmp/never-written.json"})"
      "\n",
      config, &out, nullptr);
  EXPECT_EQ(errors, 2);
  ASSERT_EQ(out.size(), 2u);
  for (const std::string& line : out) {
    EXPECT_EQ(svc::parse_flat_json(line).at("status"), "invalid_argument")
        << line;
  }
}

TEST(JsonlRoundTrip, UnknownOpsAreRejectedInline) {
  svc::ServeConfig config;
  config.stats_at_eof = false;
  std::vector<std::string> out;
  const int errors = run_serve(
      R"({"id":"x","op":"bogus"})"
      "\n",
      config, &out, nullptr);
  EXPECT_EQ(errors, 1);
  ASSERT_EQ(out.size(), 1u);
  const auto r = svc::parse_flat_json(out[0]);
  EXPECT_EQ(r.at("id"), "x");
  EXPECT_EQ(r.at("status"), "invalid_argument");
  EXPECT_NE(r.at("error").find("unknown op"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Typed request API.

TEST(TypedRequests, KindTracksVariantAlternativeAndAsDowncasts) {
  svc::Query solve = svc::Query::solve(
      std::make_shared<task::ConsensusTask>(2, 2));
  EXPECT_EQ(solve.kind(), svc::Query::Kind::kSolve);
  ASSERT_NE(solve.as<svc::SolveRequest>(), nullptr);
  EXPECT_EQ(solve.as<svc::CheckRequest>(), nullptr);

  svc::Query emulate = svc::Query::emulate(/*procs=*/3, /*shots=*/2);
  EXPECT_EQ(emulate.kind(), svc::Query::Kind::kEmulate);
  ASSERT_NE(emulate.as<svc::EmulateRequest>(), nullptr);
  EXPECT_EQ(emulate.as<svc::EmulateRequest>()->procs, 3);

  svc::CheckRequest check;
  check.procs = 2;
  check.rounds = 2;
  svc::Query checked = svc::Query::check(check);
  EXPECT_EQ(checked.kind(), svc::Query::Kind::kCheck);
  EXPECT_NE(checked.as<svc::CheckRequest>(), nullptr);
}

}  // namespace
}  // namespace wfc
