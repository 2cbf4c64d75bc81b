// In-memory spans for the traced run.
//
// The benchmark records a span around each call it makes into a layer's
// public function: name, start, end, parent span, and the id of the request
// being replayed.  Spans stay in memory and are written out once the run
// ends.  A span's SELF time is its duration minus the part of its interval
// that its children cover (children may overlap each other; the union is
// subtracted once), which is what attributes a request's time to layers.
//
// With recording off, Scope still runs the call but stores nothing, so the
// same replay code measures the tracing overhead against itself.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;  // index into the span list, -1 for a root
  std::uint64_t request = 0;
};

/// Self time of every span: its duration minus the union of its direct
/// children's intervals, each clipped to the parent's interval.
inline std::vector<std::int64_t> self_times_ns(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> cover(
      spans.size());
  for (const Span& c : spans) {
    if (c.parent < 0) continue;
    const Span& p = spans[static_cast<std::size_t>(c.parent)];
    const std::int64_t lo = std::max(c.start_ns, p.start_ns);
    const std::int64_t hi = std::min(c.end_ns, p.end_ns);
    if (hi > lo) cover[static_cast<std::size_t>(c.parent)].emplace_back(lo, hi);
  }
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& iv = cover[i];
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0;
    std::int64_t run_lo = 0, run_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : iv) {
      if (open && lo <= run_hi) {
        run_hi = std::max(run_hi, hi);
        continue;
      }
      if (open) covered += run_hi - run_lo;
      run_lo = lo;
      run_hi = hi;
      open = true;
    }
    if (open) covered += run_hi - run_lo;
    self[i] = (spans[i].end_ns - spans[i].start_ns) - covered;
  }
  return self;
}

/// Single-threaded span recorder; nesting follows RAII scope.
class Tracer {
 public:
  explicit Tracer(bool recording) : recording_(recording) {}

  class Scope {
   public:
    Scope(Tracer& t, const char* name, std::uint64_t request) : t_(t) {
      if (!t_.recording_) return;
      index_ = static_cast<int>(t_.spans_.size());
      t_.spans_.push_back(Span{name, 0, 0, t_.current_, request});
      t_.current_ = index_;
      t_.spans_.back().start_ns = now_ns();
    }
    ~Scope() {
      if (index_ < 0) return;
      t_.spans_[static_cast<std::size_t>(index_)].end_ns = now_ns();
      t_.current_ = t_.spans_[static_cast<std::size_t>(index_)].parent;
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& t_;
    int index_ = -1;
  };

  [[nodiscard]] Scope span(const char* name, std::uint64_t request = 0) {
    return Scope(*this, name, request);
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Self times in microseconds, grouped by span name.
  [[nodiscard]] std::map<std::string, std::vector<double>> self_us() const {
    std::map<std::string, std::vector<double>> out;
    const std::vector<std::int64_t> self = self_times_ns(spans_);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      out[spans_[i].name].push_back(static_cast<double>(self[i]) / 1e3);
    }
    return out;
  }

  /// Sum of the self times of every non-root span, microseconds: the time
  /// the replay attributes to named layers.
  [[nodiscard]] double attributed_us() const {
    const std::vector<std::int64_t> self = self_times_ns(spans_);
    double sum = 0.0;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      if (spans_[i].parent >= 0) sum += static_cast<double>(self[i]) / 1e3;
    }
    return sum;
  }

  /// One JSON object per span, start/end relative to the first span.
  void write_jsonl(std::ostream& out) const {
    const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
    const std::vector<std::int64_t> self = self_times_ns(spans_);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << "{\"id\":" << i << ",\"parent\":" << s.parent
          << ",\"request\":" << s.request << ",\"name\":\"" << s.name
          << "\",\"start_ns\":" << (s.start_ns - t0)
          << ",\"end_ns\":" << (s.end_ns - t0)
          << ",\"self_ns\":" << self[i]
          << "}\n";
    }
  }

 private:
  bool recording_;
  std::vector<Span> spans_;
  int current_ = -1;
};

}  // namespace perfbench
