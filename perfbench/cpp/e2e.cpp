// End-to-end run: tracing off, every metric of BENCHMARK.json's end_to_end
// list, every answer checked.
//
// Each workload keeps one warm topology and runs rounds of: a short
// closed-loop window (max_qps), a short open-loop sub-phase at the
// workload's fixed rate (lat_p50_ms, lat_p99_ms: due-time latency), and
// every few rounds a cold start on fresh topologies (setup_s, cold_sweep_ms
// with no store, restart_sweep_ms on a chain store that already holds every
// chain of the workload: no chain may be built).  Each metric is a median
// over its samples, preferring the samples the host stole no CPU time from
// (stats.hpp).
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>

#include "bench.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "topology.hpp"

namespace perfbench {

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  return 0.0;
}

void require_shape(const Workload& w, double memo_hit_ratio,
                   double cache_hit_ratio, RunResult& res) {
  if (w.kind == Kind::kMemoHot || w.kind == Kind::kRouted) {
    res.require(memo_hit_ratio >= 0.99, "memo_hit_ratio below 0.99");
  }
  if (w.kind == Kind::kSolveWarm) {
    res.require(memo_hit_ratio <= 0.01, "memo_hit_ratio above 0.01");
    res.require(cache_hit_ratio >= 0.99, "cache_hit_ratio below 0.99");
  }
}

std::string fresh_dir(const RunContext& ctx, const std::string& name) {
  const std::filesystem::path p =
      std::filesystem::path(ctx.work_dir) /
      (name + "-" + std::to_string(::getpid()));
  std::filesystem::remove_all(p);
  std::filesystem::create_directories(p);
  return p.string();
}

namespace {

/// Share of a run's measuring time spent on cold starts (the setup_s,
/// cold_sweep_ms and restart_sweep_ms samples); the rest goes to the
/// closed- and open-loop rounds.
constexpr double kColdShare = 0.35;

/// An open-loop sub-phase whose generator sent its p99 request later than
/// this after it was due measured the generator's host, not the program
/// (driver.late_p99_ms: the validity of lat_*).
constexpr double kLateLimitMs = 0.2;

/// Host steal time of all CPUs so far, in clock ticks (the eighth field of
/// /proc/stat's "cpu" line); 0 where the kernel does not report it.
long steal_ticks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  long v[8] = {};
  in >> cpu;
  for (long& x : v) in >> x;
  return v[7];
}

/// Whether the host stole CPU time since construction.
class StealMeter {
 public:
  [[nodiscard]] bool stolen() const { return steal_ticks() != start_; }

 private:
  long start_ = steal_ticks();
};

void print_samples(const char* what, const std::vector<Sample>& v) {
  std::size_t clean = 0;
  for (const Sample& s : v) clean += s.disturbed ? 0 : 1;
  std::fprintf(stderr, "wfc_perfbench: %s: %zu of %zu undisturbed, median %.6g\n",
               what, clean, v.size(), undisturbed_median(v));
}

double since_s(std::int64_t t0) {
  return static_cast<double>(now_ns() - t0) / 1e9;
}

/// Builds a topology and times it to the answer of its first info op.
std::unique_ptr<Topology> timed_setup(const Workload& w,
                                      const std::string& store_dir,
                                      std::vector<Sample>& setup_s,
                                      RunResult& res) {
  const StealMeter steal;
  const std::int64_t t0 = now_ns();
  auto topo = std::make_unique<Topology>(w, store_dir);
  const std::string info = control_roundtrip(topo->port(), "{\"op\":\"info\"}");
  setup_s.push_back(Sample{since_s(t0), steal.stolen()});
  res.require(string_value(info, "status") == "ok", "info op failed: " + info);
  return topo;
}

/// A failed request in a reported percentile (kMissed) is shown as the
/// 10 s answer-by bound, the worst latency a run could observe.
double capped(double latency_ms) { return std::min(latency_ms, 10'000.0); }

void run_steady(RunContext& ctx, RunResult& res) {
  const Workload& w = ctx.workload;
  const double s = ctx.seconds;
  Traffic traffic(w, ctx.seed, ctx.golden);
  std::vector<Sample> setup_s, cold_ms, restart_ms, qps;
  std::vector<Window> open_windows;

  // The chain store the restarts open, filled once, untimed, by a sweep of
  // the distinct requests.  Publishing (two fsyncs per chain) is not timed
  // end to end: on a shared disk its latency drifts with other tenants' I/O
  // by more than any bound a run could hold; store.publish_us times it in
  // the traced run.
  const std::string store_dir = fresh_dir(ctx, "store");
  {
    Topology fill(w, store_dir);
    run_serial(fill.port(), traffic, traffic.sweep_order(), &res.tally);
    res.require(fill.service_stats().store.fallbacks == 0,
                "chain store fell back while filling");
  }

  // One cold start: a fresh topology without a store timed to its first
  // info answer, the distinct requests one at a time, then a restart -- a
  // fresh topology on the filled store -- timed from construction to the
  // last answer of the same sweep, every chain loaded by mmap.
  auto cold_rep = [&] {
    const std::vector<std::uint32_t> order = traffic.sweep_order();
    {
      auto first = timed_setup(w, "", setup_s, res);
      const StealMeter steal;
      const std::int64_t t0 = now_ns();
      run_serial(first->port(), traffic, order, &res.tally);
      cold_ms.push_back(Sample{since_s(t0) * 1e3, steal.stolen()});
    }
    const StealMeter steal;
    const std::int64_t t0 = now_ns();
    Topology again(w, store_dir);
    run_serial(again.port(), traffic, order, &res.tally);
    restart_ms.push_back(Sample{since_s(t0) * 1e3, steal.stolen()});
    const wfc::svc::ServiceStats st = again.service_stats();
    res.require(st.cache.chain_builds() == 0,
                "restart built a chain (chain_builds != 0)");
    res.require(st.store.fallbacks == 0, "store fell back on restart");
  };

  const std::int64_t start = now_ns();
  Topology topo(w, "");
  run_serial(topo.port(), traffic, traffic.sweep_order(), &res.tally);
  run_closed(topo.port(), traffic, kConnections, w.window,
             std::min(1.0, 0.075 * s));
  const wfc::svc::ServiceStats before = topo.service_stats();
  const auto router_before =
      topo.router() ? topo.router()->stats() : wfc::cluster::Router::Stats{};

  // Short closed-loop windows, open-loop sub-phases, and cold starts
  // interleave in rounds, so a stretch of host noise lands on every metric
  // alike instead of on whichever phase ran then; each metric is a median
  // over its rounds.  The run ends once its time is spent.
  const std::int64_t measure_start = now_ns();
  double cold_s = 0.0;
  std::vector<double> late;
  std::uint64_t backlog = 0;
  for (int r = 0; r < 3 || since_s(start) < 0.97 * s; ++r) {
    StealMeter steal;
    const ClosedResult closed = run_closed(topo.port(), traffic, kConnections,
                                           w.window, 0.7 * w.window_s);
    res.tally.merge(closed.tally);
    qps.push_back(Sample{closed.qps, steal.stolen()});
    steal = StealMeter();
    const OpenResult open = run_open(topo.port(), traffic, kConnections,
                                     w.open_rate, w.window_s);
    res.tally.merge(open.tally);
    open_windows.push_back(Window{
        open.lat_ms, steal.stolen() || open.late_p99_ms > kLateLimitMs});
    late.push_back(open.late_p99_ms);
    backlog = std::max(backlog, open.backlog_end);
    while (cold_s < kColdShare * since_s(measure_start) ||
           cold_ms.size() < 3) {
      const std::int64_t t0 = now_ns();
      cold_rep();
      cold_s += since_s(t0);
    }
  }
  const wfc::svc::ServiceStats after = topo.service_stats();
  print_samples("closed-loop windows (req/s)", qps);
  print_samples("cold sweeps (ms)", cold_ms);
  print_samples("restart sweeps (ms)", restart_ms);
  std::size_t clean = 0;
  for (const Window& ow : open_windows) clean += ow.disturbed ? 0 : 1;
  std::fprintf(stderr, "wfc_perfbench: open-loop sub-phases: %zu of %zu "
               "undisturbed\n", clean, open_windows.size());

  std::fprintf(stderr, "wfc_perfbench: driver late p99 %.3f ms, max "
               "backlog %llu\n", median(late),
               static_cast<unsigned long long>(backlog));

  const std::uint64_t hits = after.cache.hits - before.cache.hits;
  require_shape(w,
                ratio(after.result_hits - before.result_hits,
                      after.queries - before.queries),
                ratio(hits, hits + after.cache.misses - before.cache.misses),
                res);
  if (auto* router = topo.router()) {
    const auto rs = router->stats();
    res.require(rs.hedges + rs.redispatches ==
                    router_before.hedges + router_before.redispatches,
                "router hedged or re-dispatched (wasted_frac > 0)");
  }

  res.add("setup_s", undisturbed_median(setup_s), "s");
  res.add("lat_p50_ms", capped(windowed_percentile(open_windows, 0.50)), "ms");
  res.add("lat_p99_ms", capped(windowed_percentile(open_windows, 0.99)), "ms");
  res.add("max_qps", undisturbed_median(qps), "req/s");
  res.add("cold_sweep_ms", undisturbed_median(cold_ms), "ms");
  res.add("restart_sweep_ms", undisturbed_median(restart_ms), "ms");
  std::filesystem::remove_all(store_dir);
}

}  // namespace

RunResult run_e2e(RunContext& ctx) {
  RunResult res;
  run_steady(ctx, res);
  res.add("peak_rss_mb", peak_rss_mb(), "MiB");
  return res;
}

}  // namespace perfbench
