// The four workloads: their request templates, topology shape, and the
// seeded request stream the generator sends.
//
// A template is a complete JSONL v2 request line without "id" (and, for
// solve_warm, without "budget"); it doubles as the golden-table key.  The
// stream visits templates in seeded permutations, one full permutation per
// cycle, so every seed sends the same mix and only the order differs --
// which keeps run-to-run figures comparable across seeds.
#pragma once

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "golden.hpp"

namespace perfbench {

enum class Kind { kMemoHot, kSolveWarm, kRouted };

struct Workload {
  std::string name;
  Kind kind = Kind::kMemoHot;
  std::vector<std::string> templates;
  /// solve_warm: every request carries a distinct "budget", so it misses the
  /// result memo while reusing the interned task and the SdsCache.
  bool distinct_budget = false;
  /// Service shape (per shard).  Busy threads plus the generator's one
  /// thread fit in 4 cores.
  int workers = 2;
  int io_threads = 2;
  /// Closed loop: pipelining window per connection.
  int window = 32;
  /// Open loop and one-at-a-time sweeps: the generator busy-polls instead of
  /// sleeping between events (driver.hpp).  Only where the topology's
  /// event-loop threads leave the spinning generator a core of its own.
  bool busy_poll = true;
  /// Open-loop arrival rate, requests/second.  A constant, not a share of
  /// this run's max_qps, so a slower program shows as queueing under the
  /// same load.
  double open_rate = 0.0;
  /// Length of one open-loop sub-phase, seconds: short enough that most
  /// sub-phases miss the multi-millisecond stalls a shared host injects.
  double window_s = 0.05;
};

/// Generator connections, every workload and phase.
inline constexpr int kConnections = 2;

/// The named workload; throws std::invalid_argument for unknown names.
Workload workload_by_name(const std::string& name);

/// Every workload, for recording the golden table.
std::vector<Workload> all_workloads();

/// The seeded request stream of one workload against one topology.  Not
/// thread-safe; the generator owns it.
class Traffic {
 public:
  Traffic(const Workload& w, std::uint64_t seed, const GoldenTable& golden);

  /// Next request: its sequence number (also its wire id "q<seq>") and
  /// template index.
  struct Next {
    std::uint64_t seq;
    std::uint32_t tmpl;
  };
  Next next();
  /// A request for a given template (sweeps choose their own order).
  Next make(std::uint32_t tmpl) { return Next{seq_++, tmpl}; }

  [[nodiscard]] const Workload& workload() const { return w_; }

  /// Appends the request line for (seq, tmpl), newline-terminated.
  void append_line(const Next& n, std::string& out) const;

  /// Whether `a` is the golden answer for template `tmpl`.
  [[nodiscard]] bool check(std::uint32_t tmpl, const Answer& a) const {
    return matches(expected_[tmpl], a);
  }

  /// The templates in one seeded order (sweeps use this).
  [[nodiscard]] std::vector<std::uint32_t> sweep_order();

 private:
  void refill();

  const Workload& w_;
  std::mt19937_64 rng_;
  std::uint64_t budget_base_;
  std::vector<Expected> expected_;
  std::vector<std::uint32_t> cycle_;
  std::size_t pos_ = 0;
  std::uint64_t seq_ = 0;
};

/// Parses the sequence number out of a wire id "q<seq>"; false when the id
/// is not one the generator could have sent.
bool parse_seq(std::string_view id, std::uint64_t* seq);

}  // namespace perfbench
