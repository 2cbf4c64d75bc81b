// Tests of the benchmark's own arithmetic and checks.
#include <gtest/gtest.h>

#include <sstream>

#include "golden.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

std::vector<double> iota(int n) {
  std::vector<double> v;
  for (int i = 1; i <= n; ++i) v.push_back(i);
  return v;
}

TEST(Percentile, NearestRank) {
  EXPECT_EQ(nearest_rank(100, 0.99), 99u);
  EXPECT_EQ(nearest_rank(100, 0.50), 50u);
  EXPECT_EQ(nearest_rank(101, 0.50), 51u);
  EXPECT_EQ(nearest_rank(1, 0.99), 1u);
}

TEST(Percentile, P99NeedsTenSamplesBeyond) {
  // 1000 samples: rank 990, ten beyond -> supported.
  auto v = iota(1000);
  ASSERT_TRUE(supported_percentile(v, 0.99).has_value());
  EXPECT_EQ(*supported_percentile(v, 0.99), 990.0);
  // 999 samples: rank 990, nine beyond -> not supported.
  v = iota(999);
  EXPECT_FALSE(supported_percentile(v, 0.99).has_value());
  // The fallback is the highest percentile that does have ten beyond.
  EXPECT_EQ(tail_percentile(v, 0.99), 989.0);
  // Too small for any tail: the median.
  v = iota(7);
  EXPECT_EQ(tail_percentile(v, 0.99), 4.0);
  EXPECT_EQ(tail_percentile({}, 0.99), 0.0);
}

TEST(Percentile, MissedRequestsSortAboveEveryLatency) {
  std::vector<double> v = iota(1000);
  for (int i = 0; i < 20; ++i) v.push_back(kMissed);
  std::sort(v.begin(), v.end());
  // 20 of 1020 missed: the p99 (rank 1010) lands on a missed request.
  EXPECT_EQ(*supported_percentile(v, 0.99), kMissed);
  EXPECT_EQ(*supported_percentile(v, 0.50), 510.0);
}

TEST(Median, PrefersSamplesTheHostDidNotDisturb) {
  // Three clean samples out of five: the stolen outliers are ignored.
  std::vector<Sample> v = {{1.0, false}, {9.0, true}, {2.0, false},
                           {8.0, true}, {3.0, false}};
  EXPECT_EQ(undisturbed_median(v), 2.0);
  // Two clean samples are too few: every sample counts.
  v = {{1.0, false}, {9.0, true}, {2.0, false}, {8.0, true}, {7.0, true}};
  EXPECT_EQ(undisturbed_median(v), 7.0);
  EXPECT_TRUE(enough_undisturbed(3));
  EXPECT_FALSE(enough_undisturbed(2));
}

TEST(Pool, PoolsTheUndisturbedWindowsWhenThereAreEnough) {
  std::vector<Window> w = {{{3.0, 1.0}, false}, {{50.0}, true},
                           {{2.0}, false}, {{4.0}, false}};
  EXPECT_EQ(undisturbed_pool(w), (std::vector<double>{1.0, 2.0, 3.0, 4.0}));
  w[3].disturbed = true;  // two undisturbed windows: every window counts
  EXPECT_EQ(undisturbed_pool(w),
            (std::vector<double>{1.0, 2.0, 3.0, 4.0, 50.0}));
}

TEST(Pool, PerWindowPercentilesWhenEveryWindowSupportsThem) {
  // Three windows of 1,000 samples: the p99 of each is supported, and the
  // disturbed window's (a stall) is left out of the median.
  std::vector<Window> w(4);
  for (int i = 0; i < 4; ++i) {
    for (int k = 1; k <= 1000; ++k) w[i].values.push_back(k * (i + 1));
  }
  w[3].disturbed = true;
  EXPECT_EQ(windowed_percentile(w, 0.99), 990.0 * 2);
  // One window too small for a supported p99: the undisturbed pool.
  w[0].values.resize(100);
  EXPECT_EQ(windowed_percentile(w, 0.99),
            tail_percentile(undisturbed_pool(w), 0.99));
}

TEST(Latency, TimedFromDueNotFromSend) {
  // Due at 10 ms, sent late at 14 ms, answered at 15 ms: 5 ms, not 1 ms.
  EXPECT_DOUBLE_EQ(due_latency(10.0, 15.0), 5.0);
  EXPECT_EQ(due_latency(10.0, std::nullopt), kMissed);
}

TEST(Spans, SelfTimeSubtractsChildrenOnce) {
  std::vector<Span> s = {
      {"request", 0, 100, -1, 1},
      {"parse", 10, 20, 0, 1},
      {"solve", 30, 80, 0, 1},
      {"cache", 40, 50, 2, 1},
      {"cache", 45, 60, 2, 1},  // overlaps its sibling: union is 40..60
      {"late", 90, 130, 0, 1},  // runs past its parent: clipped to 90..100
  };
  const auto self = self_times_ns(s);
  EXPECT_EQ(self[0], 100 - 10 - 50 - 10);
  EXPECT_EQ(self[1], 10);
  EXPECT_EQ(self[2], 50 - 20);
  EXPECT_EQ(self[3], 10);
  EXPECT_EQ(self[5], 40);
}

TEST(Spans, RecorderNestsByScopeAndCanBeOff) {
  Tracer on(true);
  {
    auto a = on.span("request", 7);
    { auto b = on.span("parse", 7); }
  }
  ASSERT_EQ(on.spans().size(), 2u);
  EXPECT_EQ(on.spans()[1].parent, 0);
  EXPECT_EQ(on.spans()[1].request, 7u);
  EXPECT_LE(on.spans()[0].start_ns, on.spans()[1].start_ns);
  EXPECT_GE(on.spans()[0].end_ns, on.spans()[1].end_ns);
  Tracer off(false);
  { auto a = off.span("request"); }
  EXPECT_TRUE(off.spans().empty());
}

TEST(Golden, AnswerScanner) {
  const Answer a = parse_answer(
      R"x({"id":"q12","task":"approx-agreement(n=2,m=5)","status":"ok",)x"
      R"x("verdict":"SOLVABLE","level":2,"nodes":36,"cache_hit":true})x");
  EXPECT_EQ(a.id, "q12");
  EXPECT_EQ(a.status, "ok");
  EXPECT_EQ(a.verdict, "SOLVABLE");
  EXPECT_EQ(a.level, 2);
  const Answer b = parse_answer(R"({"op":"info","status":"ok","server_id":"s1"})");
  EXPECT_EQ(b.id, "");
}

TEST(Golden, RejectsWrongVerdictLevelOrStatus) {
  const Expected want{"ok", "UNSOLVABLE", -1};
  EXPECT_TRUE(matches(want, parse_answer(
                                R"({"id":"q1","status":"ok","verdict":"UNSOLVABLE","nodes":0})")));
  EXPECT_FALSE(matches(want, parse_answer(
                                 R"({"id":"q1","status":"ok","verdict":"SOLVABLE","level":1})")));
  EXPECT_FALSE(matches(want, parse_answer(
                                 R"({"id":"q1","status":"overloaded","retry_after_ms":5})")));
  const Expected solvable{"ok", "SOLVABLE", 2};
  EXPECT_FALSE(matches(solvable, parse_answer(
                                     R"({"status":"ok","verdict":"SOLVABLE","level":1})")));
}

TEST(Golden, TableRoundTripsAndTrafficChecksAgainstIt) {
  Workload w = workload_by_name("memo_hot");
  GoldenTable t;
  for (const std::string& k : w.templates) t.put(k, Expected{"ok", "UNSOLVABLE", -1});
  std::stringstream io;
  t.save(io);
  EXPECT_NE(io.str().find(w.templates[0]), std::string::npos);

  Traffic traffic(w, 3, t);
  const Traffic::Next n = traffic.next();
  std::string line;
  traffic.append_line(n, line);
  EXPECT_EQ(line.rfind("{\"id\":\"q0\",\"op\":\"solve\"", 0), 0u);
  EXPECT_EQ(line.back(), '\n');
  EXPECT_TRUE(traffic.check(n.tmpl, parse_answer(R"({"status":"ok","verdict":"UNSOLVABLE"})")));
  EXPECT_FALSE(traffic.check(n.tmpl, parse_answer(R"({"status":"ok","verdict":"SOLVABLE","level":0})")));

  // A template missing from the table is refused up front.
  GoldenTable partial;
  EXPECT_THROW(Traffic(w, 3, partial), std::runtime_error);
}

TEST(Traffic, SeededCyclesSendEveryTemplateOnceAndDistinctBudgets) {
  Workload w = workload_by_name("solve_warm");
  GoldenTable t;
  for (const std::string& k : w.templates) t.put(k, Expected{"ok", "SOLVABLE", 0});
  Traffic a(w, 5, t), b(w, 5, t), c(w, 6, t);
  std::vector<int> seen(w.templates.size(), 0);
  bool differs = false;
  std::string la, lb;
  for (std::size_t i = 0; i < w.templates.size(); ++i) {
    const auto na = a.next(), nb = b.next(), nc = c.next();
    ++seen[na.tmpl];
    EXPECT_EQ(na.tmpl, nb.tmpl);
    differs = differs || na.tmpl != nc.tmpl;
    a.append_line(na, la);
    b.append_line(nb, lb);
  }
  for (int s : seen) EXPECT_EQ(s, 1);
  EXPECT_TRUE(differs);
  EXPECT_EQ(la, lb);
  EXPECT_NE(la.find("\"budget\":"), std::string::npos);

  std::uint64_t seq = 0;
  EXPECT_TRUE(parse_seq("q42", &seq));
  EXPECT_EQ(seq, 42u);
  EXPECT_FALSE(parse_seq("t42", &seq));
  EXPECT_FALSE(parse_seq("q4x", &seq));
}

}  // namespace
}  // namespace perfbench
