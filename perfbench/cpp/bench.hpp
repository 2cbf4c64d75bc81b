// The two kinds of run the command makes, and the result they print.
//
//   run_e2e     tracing off; the end-to-end metrics of BENCHMARK.json
//   run_traced  replays the workload's requests through each layer's
//               public functions with spans on; the per-layer metrics
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "driver.hpp"
#include "golden.hpp"
#include "workloads.hpp"

namespace perfbench {

struct RunContext {
  Workload workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  /// Scratch directory inside the checkout (chain stores, span dumps).
  std::string work_dir;
  GoldenTable golden;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  Tally tally;
  /// Shape checks that failed: the workload stopped exercising its layer.
  std::vector<std::string> problems;
  std::vector<Metric> metrics;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back(Metric{name, value, unit});
  }
  void require(bool ok, const std::string& problem) {
    if (!ok) problems.push_back(problem);
  }
  [[nodiscard]] bool correct() const {
    return tally.failed == 0 && problems.empty();
  }
};

RunResult run_e2e(RunContext& ctx);
RunResult run_traced(RunContext& ctx);

/// a / b, or 0 when b is 0.
inline double ratio(std::uint64_t a, std::uint64_t b) {
  return b == 0 ? 0.0 : static_cast<double>(a) / static_cast<double>(b);
}

/// The shape checks on the hit ratios: memo_hot and routed must answer from
/// the result memo, solve_warm must miss it and hit the SdsCache.
void require_shape(const Workload& w, double memo_hit_ratio,
                   double cache_hit_ratio, RunResult& res);

/// VmHWM of this process, MiB.
double peak_rss_mb();

/// A fresh, empty directory under ctx.work_dir.
std::string fresh_dir(const RunContext& ctx, const std::string& name);

}  // namespace perfbench
