// The benchmark's own load driver: one thread, non-blocking sockets, poll.
//
// Closed loop: each of `connections` keeps `window` requests in flight and
// sends the next one only when an answer comes back.
//
// Open loop: request k is DUE at t0 + k / rate, whatever the server is
// doing.  Sends are scheduled independently of completions (a full socket
// only delays the bytes, never the schedule), each request is timed from
// its due time, and the driver reports how late it itself sent
// (late_p99_ms) and how many due requests were unanswered when the phase
// ended (backlog_end).
//
// The open loop and the one-at-a-time sweeps busy-poll instead of sleeping
// between events where the workload allows it (Workload::busy_poll), so the
// generator's own wake-up latency is not part of a measured latency; the
// closed loop, always busy, sleeps in poll.
//
// Every answer is checked on arrival: its id must name a request that is in
// flight (exactly once -- a duplicate or unknown id fails), and its status,
// verdict, and level must match the golden table.  A failed or wrong answer
// counts against `failed` and as a missed latency limit.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "workloads.hpp"

namespace perfbench {

struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// First failure, for the diagnostic line on stderr.
  std::string first_error;
  void fail(std::uint64_t n, const std::string& why) {
    failed += n;
    if (first_error.empty()) first_error = why;
  }
  void merge(const Tally& o) {
    attempted += o.attempted;
    if (o.failed > 0) fail(o.failed, o.first_error);
  }
};

struct ClosedResult {
  double qps = 0.0;  // answers per second while sending
  Tally tally;
};

ClosedResult run_closed(std::uint16_t port, Traffic& traffic, int connections,
                        int window, double seconds);

struct OpenResult {
  /// Due-time latency of every request, milliseconds, ascending; kMissed
  /// for a failed, refused, wrong or unanswered one.
  std::vector<double> lat_ms;
  double late_p99_ms = 0.0;
  std::uint64_t backlog_end = 0;
  Tally tally;
};

OpenResult run_open(std::uint16_t port, Traffic& traffic, int connections,
                    double rate, double seconds);

/// Sends `requests` one at a time on a fresh connection, each after the
/// previous answer.  Returns per-request latencies (ms, from send) in
/// request order; a failed request is kMissed.
std::vector<double> run_serial(std::uint16_t port, Traffic& traffic,
                               const std::vector<std::uint32_t>& tmpls,
                               Tally* tally);

/// One control line ({"op":"info"}) and its answer over a fresh
/// connection; throws on a closed or failed connection.
std::string control_roundtrip(std::uint16_t port, const std::string& line);

}  // namespace perfbench
