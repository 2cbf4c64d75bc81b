// JSON-lines batch front-end over QueryService.
//
// Protocol (v2): one flat JSON object per input line, one JSON result line
// per query, in submission order (queries still EXECUTE concurrently on the
// pool; only the printing is ordered).  Blank lines and lines starting with
// '#' are skipped.  Every request names its operation with "op"; "task" is
// a PARAMETER of op:"solve":
//
//   {"op":"solve","task":"consensus","procs":2,"values":2}
//   {"op":"solve","task":"set-consensus","procs":3,"k":2,"max_level":1}
//   {"op":"solve","task":"renaming","procs":2,"names":2}
//   {"op":"solve","task":"approx","procs":2,"grid":3,"timeout_ms":500}
//   {"op":"solve","task":"simplex-agreement","procs":2,"depth":1}
//   {"op":"solve","task":"identity","procs":3}
//   {"op":"convergence","procs":2,"depth":1,"max_level":4}
//   {"op":"emulate","procs":2,"shots":2}
//   {"op":"check","target":"sds|emulation|linearizability",...}
//   {"op":"stats"}            flushes outstanding queries, prints counters
//   {"op":"metrics"}          flushes, prints one flat-JSON counters line
//                             (reconciles exactly with ServiceStats); with
//                             "path":"f" also writes the full Prometheus
//                             text exposition to f
//   {"op":"trace","path":"f"} flushes, writes the span ring as Chrome
//                             trace_event JSON to f (chrome://tracing)
//
// Result envelope: "status" is ALWAYS the lowercase transport taxonomy of
// service/status.hpp -- "ok", "cancelled", "deadline_exceeded",
// "overloaded" (+ "retry_after_ms"), "resource_exhausted",
// "invalid_argument", "internal".  The DOMAIN outcome of an ok query lives
// in "verdict":
//
//   {"id":...,"task":"...","status":"ok","verdict":"SOLVABLE","level":1,
//    "nodes":12,"cache_hit":true,"micros":345}
//   {"op":"emulate",...,"status":"ok","verdict":"OK","rounds":5,...}
//   {"op":"check",...,"status":"ok","verdict":"VIOLATION","schedules":...}
//
// Malformed input lines -- including a line without "op" -- answer
// {"status":"invalid_argument","line":N,"error":...} with the offending
// 1-based line number (and the echoed "id" when the line has one), and
// never terminate the serve loop.  Lines longer than
// ServeConfig::max_line_bytes are rejected the same way instead of being
// buffered without bound.
//
// The per-line request -> Query -> envelope machinery lives in
// service/handler.hpp (RequestHandler), shared verbatim with the wfc::net
// TCP transport; this file is only the stdin/batch loop around it.
#pragma once

#include <iosfwd>

#include "service/handler.hpp"
#include "service/query_service.hpp"

namespace wfc::svc {

struct ServeConfig {
  QueryService::Options service;
  int default_max_level = 2;
  /// Print a final stats line to `err` when the input is exhausted.
  bool stats_at_eof = true;
  /// Request lines longer than this answer {"status":"invalid_argument"}
  /// instead of being buffered/parsed.  0 disables the cap.
  std::size_t max_line_bytes = 1 << 20;
  /// Force-enable the observability layer for this serve run so the
  /// "metrics" and "trace" ops work out of the box.  Set false to honour
  /// service.obs.enabled as given.
  bool observability = true;
};

/// Reads queries from `in` until EOF, fans them out to a QueryService, and
/// writes one result line per query to `out`.  Returns the number of lines
/// that produced an error result (0 = clean run).
int run_jsonl_server(std::istream& in, std::ostream& out, std::ostream& err,
                     const ServeConfig& config = {});

}  // namespace wfc::svc
