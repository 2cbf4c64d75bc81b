// Transport-agnostic request handler for the JSONL v2 protocol.
//
// The per-line request -> Query -> result-envelope path, shared by every
// transport -- the stdin batch loop (frontend.cpp) and the wfc::net TCP
// server -- so all of them speak exactly the same protocol with exactly the
// same error records.  The handler is the only place that decides what a
// request's "op" is: a line without one answers invalid_argument.  One
// RequestHandler wraps one QueryService and is safe to share across
// transport threads.
//
// A transport feeds input lines through four entry points:
//
//   parse(line, n)    classify one line: kSkip (blank / comment), kRespond
//                     (malformed: the rendered error record is ready now),
//                     kControl (stats / metrics / trace -- the transport
//                     must flush ITS OWN in-flight queries first so the
//                     counters reconcile, then call control()), or kSubmit;
//   submit(parsed)    build + submit a kSubmit line's query, returning the
//                     ticket plus the metadata render() needs -- or, when
//                     the request is malformed, the error record instead;
//   submit_async(...) same, but the RENDERED response line is delivered to
//                     a callback exactly once (possibly inline on the
//                     calling thread for memo hits and load sheds, possibly
//                     later on a service worker) -- this is what lets the
//                     TCP server complete pipelined responses out of order
//                     without parking a thread per request;
//   render(meta, r)   the result envelope for a completed query;
//   control(parsed)   the response for a kControl line.
//
// Hardening shared by all transports: request lines longer than
// HandlerConfig::max_line_bytes are rejected with an invalid_argument
// record instead of being buffered without bound; a trailing '\r' (CRLF
// framing) is stripped before parsing; error records echo the request "id"
// whenever the line parsed far enough to know it, so pipelined clients can
// match failures to requests.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>

#include "service/query_service.hpp"
#include "wf/clock_cache.hpp"

namespace wfc::svc {

using Fields = std::map<std::string, std::string>;

/// Builds a canonical task from parsed JSON fields ("task" + parameters;
/// see frontend.hpp for the line protocol).  Throws std::invalid_argument
/// on unknown kinds or missing/malformed parameters.
std::shared_ptr<task::Task> make_canonical_task(const Fields& fields);

struct HandlerConfig {
  int default_max_level = 2;
  /// Request lines longer than this are answered with an invalid_argument
  /// record and never buffered or parsed.  0 disables the cap.
  std::size_t max_line_bytes = 1 << 20;
  /// Let {"op":"metrics"} / {"op":"trace"} requests name a filesystem
  /// "path" that the handler writes as a side effect.  Only an
  /// operator-driven transport (the stdin front-end) may turn this on;
  /// network transports must leave it off -- over TCP it would let any
  /// unauthenticated client create or truncate any server-writable file.
  bool allow_control_paths = false;
  /// Interned canonical tasks kept for result-memo object identity; the
  /// coldest entries are evicted past this bound so a client cannot grow
  /// the table without limit by varying task parameters.  The lock-free
  /// intern index has a fixed capacity chosen at construction, so 0
  /// selects a generous ceiling (32768) rather than a truly unbounded
  /// table.
  std::size_t max_interned_tasks = 1024;
  /// Upper bound on the "depth" request field: iterated-SDS towers grow
  /// exponentially with depth and are constructed on the transport thread,
  /// so requests over the cap answer invalid_argument instead of stalling
  /// the connection's event loop.  0 removes the cap.
  int max_task_depth = 6;
  /// Operator-assigned identity echoed by {"op":"info"} (a shard id in a
  /// cluster, "" for a standalone server).
  std::string server_id;
};

class RequestHandler {
 public:
  RequestHandler(QueryService& service, HandlerConfig config);

  /// A response line (no trailing newline) plus whether the transport
  /// should count it as an error line.
  struct Rendered {
    std::string line;
    bool error = false;
  };

  enum class Action {
    kSkip,     // blank / comment: no response line
    kRespond,  // `immediate` is the response (parse error, unknown op)
    kControl,  // stats / metrics / trace / info: flush pending, control()
    kSubmit,   // a query: submit() / submit_async()
  };

  struct ParsedLine {
    Action action = Action::kSkip;
    Rendered immediate;  // kRespond only
    Fields fields;       // kControl / kSubmit
    std::string op;      // the request's "op"
    int line_no = 0;
  };

  /// Classifies one input line (1-based line_no echoes into error records).
  /// Never throws.
  [[nodiscard]] ParsedLine parse(std::string_view line, int line_no);

  /// Everything render() needs once the query completes.
  struct ResponseMeta {
    std::string id;
    std::string label;  // task name or op description
    /// Canonical model name when a non-wait-free "model" was requested
    /// (echoed back in the response); empty otherwise.
    std::string model;
    bool is_emulate = false;
    bool is_check = false;
  };

  struct Submitted {
    ResponseMeta meta;
    QueryTicket ticket;
  };

  /// Builds and submits a kSubmit line's query.  Returns nullopt -- with
  /// *error set to the rendered error record -- when the request is
  /// malformed (unknown task kind, bad parameters); nothing was submitted.
  std::optional<Submitted> submit(const ParsedLine& parsed, Rendered* error);

  /// Callback flavor of submit(): `done` receives the rendered response
  /// line exactly once.  It may run inline on this thread (memo hits, load
  /// sheds) or later on a service worker thread; it must not throw and
  /// should only enqueue.  Returns false with *error set when the query
  /// could not be built (nothing submitted, `done` never called).
  bool submit_async(const ParsedLine& parsed,
                    std::function<void(Rendered&&)> done, Rendered* error);

  /// Renders a completed query's v2 result envelope.
  [[nodiscard]] Rendered render(const ResponseMeta& meta,
                                const QueryResult& result) const;

  /// Response for a kControl line.  The caller must have flushed its own
  /// pending queries first; metrics/trace write files as side effects only
  /// when the transport enables allow_control_paths.
  [[nodiscard]] Rendered control(const ParsedLine& parsed);

  [[nodiscard]] const HandlerConfig& config() const { return config_; }
  [[nodiscard]] QueryService& service() { return service_; }

  /// Current interned-task table size (bounded by max_interned_tasks).
  [[nodiscard]] std::size_t interned_tasks();

 private:
  /// {"op":"store"} action family (stats/warm/shed/pin/unpin/publish);
  /// publish is path-bearing and follows the allow_control_paths rule.
  /// Throws std::invalid_argument on bad actions/arguments (control()'s
  /// catch turns that into the shared error record).
  [[nodiscard]] Rendered store_control(const ParsedLine& parsed,
                                       const std::string& id);
  /// Builds the Query + ResponseMeta for a kSubmit line; throws
  /// std::invalid_argument on malformed parameters.
  [[nodiscard]] std::pair<Query, ResponseMeta> build_query(
      const ParsedLine& parsed);
  /// Canonical tasks are pure functions of their request fields, so
  /// repeated lines share ONE task object -- which is what the service's
  /// result memo keys on.  Thread-safe; the table is a lock-free CLOCK
  /// cache bounded by max_interned_tasks, so transport threads never
  /// serialize on an intern mutex.
  [[nodiscard]] std::shared_ptr<task::Task> intern_task(const Fields& fields);

  QueryService& service_;
  HandlerConfig config_;
  /// {"op":"info"} uptime reference: when this handler (in practice, the
  /// transport) came up.
  std::chrono::steady_clock::time_point started_;
  wf::ClockCache<std::string, std::shared_ptr<task::Task>> interned_;
};

}  // namespace wfc::svc
