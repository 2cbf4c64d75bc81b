// Order statistics used by every metric the benchmark reports.
//
// Percentiles use the nearest-rank definition: the q-th percentile of n
// sorted samples is the sample of 1-based rank ceil(q * n).  A percentile is
// only *supported* when at least `min_beyond` samples lie strictly above
// that rank; a tail estimate resting on fewer points is noise, so callers
// either size their runs to support it or fall back to the highest
// supported percentile (and say so).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <optional>
#include <vector>

namespace perfbench {

/// Samples beyond a percentile needed before it is reported.
inline constexpr std::size_t kMinBeyond = 10;

/// Stand-in latency for a request that failed, was refused, or came back
/// wrong: it misses every latency limit, so it sorts above every real one.
inline constexpr double kMissed = std::numeric_limits<double>::infinity();

/// 1-based nearest rank of the q-th quantile (q in (0, 1]) of n samples.
inline std::size_t nearest_rank(std::size_t n, double q) {
  if (n == 0) return 0;
  const double r = std::ceil(q * static_cast<double>(n) - 1e-9);
  return std::clamp<std::size_t>(static_cast<std::size_t>(r), 1, n);
}

/// The q-th percentile of `sorted` (ascending) if at least `min_beyond`
/// samples lie above its rank; nullopt otherwise.
inline std::optional<double> supported_percentile(
    const std::vector<double>& sorted, double q,
    std::size_t min_beyond = kMinBeyond) {
  const std::size_t n = sorted.size();
  if (n == 0) return std::nullopt;
  const std::size_t rank = nearest_rank(n, q);
  if (n - rank < min_beyond) return std::nullopt;
  return sorted[rank - 1];
}

/// The q-th percentile when supported, else the highest supported
/// percentile below it (rank n - min_beyond), else the median.  Used only
/// for per-layer tails of small samples; the reported name keeps q.
inline double tail_percentile(const std::vector<double>& sorted, double q,
                              std::size_t min_beyond = kMinBeyond) {
  if (sorted.empty()) return 0.0;
  if (auto p = supported_percentile(sorted, q, min_beyond)) return *p;
  const std::size_t n = sorted.size();
  if (n > min_beyond) return sorted[n - min_beyond - 1];
  return sorted[nearest_rank(n, 0.5) - 1];
}

/// Median (nearest-rank 50th percentile, lower middle for even n) of an
/// unsorted sample; 0 for an empty one.
inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return v[nearest_rank(v.size(), 0.5) - 1];
}

/// One timed sample, and whether the host disturbed it: the hypervisor
/// stole CPU time from this machine while it was taken, or (open loop) the
/// generator itself could not keep its schedule.
struct Sample {
  double value = 0.0;
  bool disturbed = false;
};

/// Whether there are enough undisturbed samples to take their median: at
/// least three.
inline bool enough_undisturbed(std::size_t clean) { return clean >= 3; }

/// Median over the undisturbed samples when there are enough of them,
/// otherwise over all samples.  On a shared host a stolen stretch of a few
/// milliseconds dominates a window's tail and throughput, and says nothing
/// about the program.
inline double undisturbed_median(const std::vector<Sample>& samples) {
  std::vector<double> clean, all;
  for (const Sample& s : samples) {
    all.push_back(s.value);
    if (!s.disturbed) clean.push_back(s.value);
  }
  return median(enough_undisturbed(clean.size()) ? clean : all);
}

/// Per-request values of one window (a sub-phase or a sweep), and whether
/// the host disturbed it.
struct Window {
  std::vector<double> values;
  bool disturbed = false;
};

/// The values of the undisturbed windows pooled and sorted, when there are
/// enough such windows; otherwise the values of every window.
inline std::vector<double> undisturbed_pool(const std::vector<Window>& windows) {
  std::size_t clean = 0;
  for (const Window& w : windows) clean += w.disturbed ? 0 : 1;
  const bool enough = enough_undisturbed(clean);
  std::vector<double> pool;
  for (const Window& w : windows) {
    if (!enough || !w.disturbed) {
      pool.insert(pool.end(), w.values.begin(), w.values.end());
    }
  }
  std::sort(pool.begin(), pool.end());
  return pool;
}

/// The q-th percentile of a run made of windows (each window's values
/// ascending).  When every window holds enough samples to support it, the
/// median over the undisturbed windows of each window's percentile: robust
/// to a few windows a stall slipped into.  Otherwise the percentile of the
/// undisturbed pool (undisturbed_pool).
inline double windowed_percentile(const std::vector<Window>& windows,
                                  double q) {
  std::vector<Sample> per_window;
  for (const Window& w : windows) {
    const std::optional<double> p = supported_percentile(w.values, q);
    if (!p) return tail_percentile(undisturbed_pool(windows), q);
    per_window.push_back(Sample{*p, w.disturbed});
  }
  return undisturbed_median(per_window);
}

/// Latency of an open-loop request, timed from when it was DUE (not from
/// when the generator managed to send it), so a stall that delays later
/// sends is charged to them.  A missing answer is kMissed.
inline double due_latency(double due, std::optional<double> answered) {
  if (!answered) return kMissed;
  return *answered - due;
}

}  // namespace perfbench
