// wfc::obs -- the observability facade: one Observer per QueryService tying
// together the metrics registry (metrics.hpp) and the per-query trace sink
// (trace.hpp).
//
// Lifecycle: the service constructs an Observer from ObsConfig.  With
// enabled == false (the default) the Observer allocates nothing beyond the
// empty registry, begin_trace() returns a disabled TraceContext, and every
// instrumentation site in the service reduces to a null/bool check --
// current behavior is preserved bit-for-bit and the hot path pays no clock
// reads.  With enabled == true, begin_trace() assigns monotonically
// increasing trace ids and spans/metrics flow.
//
// Exporters:
//   * write_prometheus(out)    -- text exposition of every metric series;
//   * write_chrome_trace(out)  -- trace_event JSON of the span ring.
// Both are reachable through the JSONL ops {"op":"metrics","path":...} /
// {"op":"trace","path":...} (service/handler.hpp).
//
// Gauges that mirror another subsystem's state (queue depth, cache
// residency) are refreshed just before export through a caller-installed
// refresh hook, so a Prometheus scrape observes the same numbers a
// ServiceStats snapshot would.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace wfc::obs {

struct ObsConfig {
  /// Master switch.  Off (default): no spans, no metric updates, near-zero
  /// overhead -- the service behaves exactly as without the obs layer.
  bool enabled = false;
  /// Total spans retained across the trace ring's shards.
  std::size_t trace_capacity = 1 << 16;
  /// Trace-ring shards; sized to the worker count or above to keep the ring
  /// single-producer per worker.
  int trace_shards = 8;
  /// Emit a search-node checkpoint (counter sample) every this many explored
  /// nodes, so a long Prop 3.1 search has an in-flight timeline.  0 uses the
  /// default; checkpoints only exist while tracing is enabled.
  std::uint64_t search_checkpoint_nodes = 4096;
};

class Observer {
 public:
  explicit Observer(ObsConfig config = {});

  Observer(const Observer&) = delete;
  Observer& operator=(const Observer&) = delete;

  [[nodiscard]] bool enabled() const { return config_.enabled; }
  [[nodiscard]] const ObsConfig& config() const { return config_; }

  [[nodiscard]] MetricsRegistry& metrics() { return metrics_; }
  [[nodiscard]] const MetricsRegistry& metrics() const { return metrics_; }
  /// Null when tracing is disabled.
  [[nodiscard]] TraceSink* trace() { return trace_.get(); }
  [[nodiscard]] const TraceSink* trace() const { return trace_.get(); }

  /// A fresh per-query context (disabled context when the layer is off).
  [[nodiscard]] TraceContext begin_trace();

  /// Installed by the service: refreshes mirror gauges (queue depth, cache
  /// residency, watchdog counters) immediately before an export.
  void set_gauge_refresh(std::function<void()> refresh) {
    gauge_refresh_ = std::move(refresh);
  }

  void write_prometheus(std::ostream& out) const;
  void write_chrome_trace(std::ostream& out) const;

 private:
  ObsConfig config_;
  MetricsRegistry metrics_;
  std::unique_ptr<TraceSink> trace_;
  std::atomic<std::uint64_t> next_trace_id_{1};
  std::function<void()> gauge_refresh_;
};

}  // namespace wfc::obs
