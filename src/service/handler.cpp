#include "service/handler.hpp"

#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <numeric>
#include <stdexcept>

#include "common/version.hpp"
#include "model/model.hpp"
#include "service/jsonl.hpp"
#include "topology/subdivision.hpp"

namespace wfc::svc {

namespace {

int int_field(const Fields& fields, const std::string& key,
              std::optional<int> fallback = std::nullopt) {
  auto it = fields.find(key);
  if (it == fields.end()) {
    if (fallback) return *fallback;
    throw std::invalid_argument("missing field \"" + key + "\"");
  }
  try {
    std::size_t pos = 0;
    const int value = std::stoi(it->second, &pos);
    if (pos != it->second.size()) throw std::invalid_argument(it->second);
    return value;
  } catch (const std::exception&) {
    throw std::invalid_argument("field \"" + key + "\" is not an integer: " +
                                it->second);
  }
}

std::string string_field(const Fields& fields, const std::string& key,
                         const std::string& fallback = "") {
  auto it = fields.find(key);
  return it == fields.end() ? fallback : it->second;
}

/// Boolean field: accepts the JSON true/false tokens (parse_flat_json
/// passes them through as bare strings) as well as 0/1 integers.
bool bool_field(const Fields& fields, const std::string& key, bool fallback) {
  auto it = fields.find(key);
  if (it == fields.end()) return fallback;
  if (it->second == "true") return true;
  if (it->second == "false") return false;
  return int_field(fields, key) != 0;
}

/// The optional "model" field (wfc::model wire names).  wait_free -- the
/// default -- normalizes to null so model-less requests stay bit-for-bit
/// on the pre-model code path.  Unknown names throw std::invalid_argument.
std::shared_ptr<const model::Model> model_field(const Fields& fields) {
  const std::string name = string_field(fields, "model");
  if (name.empty()) return nullptr;
  std::shared_ptr<const model::Model> m = model::Model::parse(name);
  return m->is_wait_free() ? nullptr : m;
}

/// Iterated-SDS towers grow exponentially with "depth" and are constructed
/// on the transport thread, so the handler bounds the field at parse time
/// instead of letting one request stall an event loop.
void check_depth_cap(const Fields& fields, int max_depth) {
  if (max_depth <= 0 || fields.count("depth") == 0) return;
  if (int_field(fields, "depth") > max_depth) {
    throw std::invalid_argument("field \"depth\" exceeds the cap of " +
                                std::to_string(max_depth));
  }
}

QueryOptions parse_query_options(const Fields& fields, int default_max_level) {
  QueryOptions options;
  options.max_level = int_field(fields, "max_level", default_max_level);
  if (auto it = fields.find("budget"); it != fields.end()) {
    try {
      options.node_budget = std::stoull(it->second);
    } catch (const std::exception&) {
      throw std::invalid_argument("field \"budget\" is not an integer: " +
                                  it->second);
    }
  }
  if (fields.count("timeout_ms") != 0) {
    options.timeout = std::chrono::milliseconds(
        int_field(fields, "timeout_ms"));
  }
  return options;
}

/// Error record shared by every transport: the offending 1-based line
/// number plus the request "id" whenever it is known.
RequestHandler::Rendered error_record(const std::string& id, int line_no,
                                      const std::string& message) {
  JsonWriter w;
  if (!id.empty()) w.field("id", id);
  w.field("status", to_json_token(Status::kInvalidArgument))
      .field("line", line_no)
      .field("error", message);
  return {w.str(), true};
}

/// The {"op":"metrics"} response: one flat-JSON line whose counters come
/// straight from the obs registry, alongside the ServiceStats intake count
/// -- the reconciliation the chaos soak asserts (submitted == terminal ==
/// sum of the per-status counters) is visible in the line itself.
std::string metrics_line(const std::string& id, QueryService& service) {
  obs::MetricsRegistry& reg = service.observer().metrics();
  const ServiceStats st = service.stats();
  const std::uint64_t submitted =
      reg.counter("wfc_queries_submitted_total").value();
  JsonWriter w;
  if (!id.empty()) w.field("id", id);
  w.field("op", "metrics").field("status", to_json_token(Status::kOk));
  w.field("submitted", submitted);
  std::uint64_t terminal = 0;
  for (int s = 0; s < kNumStatuses; ++s) {
    const std::uint64_t c =
        reg.counter("wfc_queries_terminal_total",
                    std::string(R"(status=")") +
                        to_json_token(static_cast<Status>(s)) + R"(")")
            .value();
    terminal += c;
    w.field(to_json_token(static_cast<Status>(s)), c);
  }
  w.field("terminal", terminal);
  w.field("memo_hits", reg.counter("wfc_result_memo_hits_total").value());
  w.field("stats_submitted", st.submitted);
  w.field("reconciles", submitted == terminal && submitted == st.submitted);
  return w.str();
}

}  // namespace

std::shared_ptr<task::Task> make_canonical_task(const Fields& fields) {
  const std::string kind = string_field(fields, "task");
  if (kind.empty()) throw std::invalid_argument("missing field \"task\"");
  const int procs = int_field(fields, "procs");
  if (kind == "consensus") {
    return std::make_shared<task::ConsensusTask>(procs,
                                                 int_field(fields, "values"));
  }
  if (kind == "set-consensus") {
    return std::make_shared<task::KSetConsensusTask>(procs,
                                                     int_field(fields, "k"));
  }
  if (kind == "renaming") {
    return std::make_shared<task::RenamingTask>(procs,
                                                int_field(fields, "names"));
  }
  if (kind == "approx") {
    return std::make_shared<task::ApproxAgreementTask>(
        procs, int_field(fields, "grid"));
  }
  if (kind == "simplex-agreement") {
    return std::make_shared<task::SimplexAgreementTask>(
        procs, topo::iterated_sds(topo::base_simplex(procs),
                                  int_field(fields, "depth")));
  }
  if (kind == "identity") {
    return std::make_shared<task::IdentityTask>(topo::base_simplex(procs));
  }
  throw std::invalid_argument("unknown task kind \"" + kind + "\"");
}

namespace {

/// Intern-table bound: 0 in the config selects a generous fixed ceiling
/// (the lock-free index has a fixed capacity chosen at construction).
std::size_t intern_bound(std::size_t configured) {
  return configured == 0 ? std::size_t{32768} : configured;
}

}  // namespace

RequestHandler::RequestHandler(QueryService& service, HandlerConfig config)
    : service_(service),
      config_(std::move(config)),
      started_(std::chrono::steady_clock::now()),
      interned_(decltype(interned_)::Options{
          .max_entries = intern_bound(config_.max_interned_tasks),
          .min_slots = 64,
          .segments = 4,
          .keep_hottest = true}) {}

RequestHandler::ParsedLine RequestHandler::parse(std::string_view line,
                                                 int line_no) {
  ParsedLine parsed;
  parsed.line_no = line_no;
  // CRLF framing: a trailing '\r' belongs to the wire, not the request.
  if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
  if (config_.max_line_bytes != 0 && line.size() > config_.max_line_bytes) {
    // Never parse (or even keep) an oversized line: the id is unknowable
    // without parsing, so the record carries only the line number.
    parsed.action = Action::kRespond;
    parsed.immediate = error_record(
        "", line_no,
        "request line exceeds " + std::to_string(config_.max_line_bytes) +
            " bytes");
    return parsed;
  }
  const std::size_t first = line.find_first_not_of(" \t");
  if (first == std::string_view::npos || line[first] == '#') {
    parsed.action = Action::kSkip;
    return parsed;
  }
  try {
    parsed.fields = parse_flat_json(line);
  } catch (const std::exception& e) {
    parsed.action = Action::kRespond;
    parsed.immediate = error_record("", line_no, e.what());
    return parsed;
  }
  // Every line names its "op"; "task" is a parameter of op:"solve".
  if (parsed.fields.count("op") == 0) {
    parsed.action = Action::kRespond;
    parsed.immediate = error_record(string_field(parsed.fields, "id"),
                                    line_no, "missing field \"op\"");
    return parsed;
  }
  parsed.op = parsed.fields.at("op");
  if (parsed.op == "stats" || parsed.op == "metrics" ||
      parsed.op == "trace" || parsed.op == "info" || parsed.op == "store") {
    parsed.action = Action::kControl;
    return parsed;
  }
  if (parsed.op != "solve" && parsed.op != "convergence" &&
      parsed.op != "emulate" && parsed.op != "check") {
    // Reject unknown ops up front with a self-describing record: the
    // field-level errors in submit() would otherwise blame a missing
    // "task" field on a line whose real problem is a misspelled op.
    parsed.action = Action::kRespond;
    JsonWriter w;
    const std::string id = string_field(parsed.fields, "id");
    if (!id.empty()) w.field("id", id);
    w.field("op", parsed.op)
        .field("status", to_json_token(Status::kInvalidArgument))
        .field("line", line_no)
        .field("error", "unknown op \"" + parsed.op + "\"");
    parsed.immediate = {w.str(), true};
    return parsed;
  }
  parsed.action = Action::kSubmit;
  return parsed;
}

std::shared_ptr<task::Task> RequestHandler::intern_task(const Fields& fields) {
  std::string key;
  for (const auto& [k, v] : fields) {
    // Skip fields that do not affect the constructed task.  max_level,
    // budget, and model DO affect the verdict, but they are part of the
    // service's memo key, not the task's -- the same task object under two
    // models is exactly what gives the memo's model_tag separation teeth.
    if (k == "id" || k == "op" || k == "max_level" || k == "budget" ||
        k == "timeout_ms" || k == "model") {
      continue;
    }
    key += k;
    key += '=';
    key += v;
    key += ';';
  }
  std::shared_ptr<task::Task> hit;
  if (interned_.lookup(key, &hit)) return hit;
  // Construct BEFORE touching the index: large tasks (iterated-SDS towers)
  // are expensive to build, and the lock-free insert below keeps the table
  // consistent if concurrent twins race -- the first writer wins and every
  // twin adopts its object, preserving one identity for the result memo.
  std::shared_ptr<task::Task> task = make_canonical_task(fields);
  auto handle = interned_.get_or_insert(key, [&] { return task; });
  return *handle;
}

std::size_t RequestHandler::interned_tasks() { return interned_.size(); }

std::pair<Query, RequestHandler::ResponseMeta> RequestHandler::build_query(
    const ParsedLine& parsed) {
  const Fields& fields = parsed.fields;
  check_depth_cap(fields, config_.max_task_depth);
  ResponseMeta meta;
  meta.id = string_field(fields, "id");
  std::shared_ptr<const model::Model> model = model_field(fields);
  if (model != nullptr) meta.model = model->name();
  Query query;
  query.options = parse_query_options(fields, config_.default_max_level);
  if (parsed.op == "solve") {
    std::shared_ptr<task::Task> task = intern_task(fields);
    meta.label = task->name();
    query.request = SolveRequest{std::move(task), std::move(model)};
  } else if (parsed.op == "convergence") {
    const int procs = int_field(fields, "procs");
    const int depth = int_field(fields, "depth");
    auto agreement = std::make_shared<task::SimplexAgreementTask>(
        procs, topo::iterated_sds(topo::base_simplex(procs), depth));
    meta.label = agreement->name();
    query.request = ConvergenceRequest{std::move(agreement), std::move(model)};
  } else if (parsed.op == "emulate") {
    if (model != nullptr) {
      // The §4 emulation runs a concrete adversary, not a run-set query;
      // restricting it by model is not meaningful.
      throw std::invalid_argument("op \"emulate\" does not take a model");
    }
    EmulateRequest emu;
    emu.procs = int_field(fields, "procs");
    emu.shots = int_field(fields, "shots", 1);
    meta.label = "emulate(procs=" + std::to_string(emu.procs) +
                 ",shots=" + std::to_string(emu.shots) + ")";
    meta.is_emulate = true;
    query.request = emu;
  } else {  // "check" (parse() rejected every other op)
    const std::string target = string_field(fields, "target", "sds");
    CheckRequest check;
    if (target == "sds") {
      check.target = CheckRequest::Target::kSds;
    } else if (target == "emulation") {
      check.target = CheckRequest::Target::kEmulation;
    } else if (target == "linearizability") {
      check.target = CheckRequest::Target::kLinearizability;
    } else {
      throw std::invalid_argument("unknown check target \"" + target + "\"");
    }
    check.procs = int_field(fields, "procs", 2);
    check.rounds = int_field(fields, "rounds", 1);
    check.crashes = int_field(fields, "crashes", 0);
    check.shots = int_field(fields, "shots", 1);
    check.symmetry = bool_field(fields, "symmetry", false);
    if (model != nullptr && check.target != CheckRequest::Target::kSds) {
      throw std::invalid_argument("check target \"" + target +
                                  "\" does not take a model");
    }
    check.model = std::move(model);
    meta.label = "check(" + target + ",procs=" + std::to_string(check.procs) +
                 ",rounds=" + std::to_string(check.rounds) +
                 ",crashes=" + std::to_string(check.crashes) + ")";
    meta.is_check = true;
    query.request = check;
  }
  return {std::move(query), std::move(meta)};
}

std::optional<RequestHandler::Submitted> RequestHandler::submit(
    const ParsedLine& parsed, Rendered* error) {
  try {
    auto [query, meta] = build_query(parsed);
    Submitted submitted;
    submitted.meta = std::move(meta);
    submitted.ticket = service_.submit(std::move(query));
    return submitted;
  } catch (const std::exception& e) {
    *error = error_record(string_field(parsed.fields, "id"), parsed.line_no,
                          e.what());
    return std::nullopt;
  }
}

bool RequestHandler::submit_async(const ParsedLine& parsed,
                                  std::function<void(Rendered&&)> done,
                                  Rendered* error) {
  try {
    auto [query, meta] = build_query(parsed);
    service_.submit(std::move(query),
                    [this, meta = std::move(meta),
                     done = std::move(done)](const QueryResult& result) {
                      done(render(meta, result));
                    });
    return true;
  } catch (const std::exception& e) {
    *error = error_record(string_field(parsed.fields, "id"), parsed.line_no,
                          e.what());
    return false;
  }
}

RequestHandler::Rendered RequestHandler::render(
    const ResponseMeta& meta, const QueryResult& result) const {
  JsonWriter w;
  if (!meta.id.empty()) w.field("id", meta.id);
  w.field("task", meta.label);
  // Echoed only when a non-wait-free model was requested, so model-less
  // responses stay byte-for-byte what they were before wfc::model.
  if (!meta.model.empty()) w.field("model", meta.model);
  if (result.status != Status::kOk) {
    // Non-kOk terminal statuses use the lowercase taxonomy tokens
    // (status.hpp); retryable ones carry the service's backoff hint.
    w.field("status", to_json_token(result.status));
    if (result.retry_after_ms > 0) {
      w.field("retry_after_ms",
              static_cast<std::uint64_t>(result.retry_after_ms));
    }
    if (!result.error.empty()) w.field("error", result.error);
  } else {
    // "status" stays in the transport taxonomy ("ok") and the domain
    // outcome lives in "verdict".
    w.field("status", to_json_token(Status::kOk));
    if (meta.is_check) {
      w.field("verdict", result.check_ok ? "OK" : "VIOLATION");
      w.field("schedules", result.check_schedules)
          .field("histories", result.check_histories)
          .field("max_depth", result.check_max_depth);
      if (!result.check_violation.empty()) {
        w.field("violation", result.check_violation);
      }
    } else if (meta.is_emulate) {
      w.field("verdict", "OK")
          .field("rounds", result.emu_rounds)
          .field("iis_steps",
                 std::accumulate(result.emu_steps.begin(),
                                 result.emu_steps.end(), std::int64_t{0}));
    } else {
      w.field("verdict", task::to_cstring(result.solve.status));
      if (result.solve.status == task::Solvability::kSolvable) {
        w.field("level", result.solve.level);
      }
      w.field("nodes", result.solve.nodes_explored)
          .field("cache_hit", result.cache_hit);
    }
  }
  if (result.degraded) w.field("degraded", true);
  w.field("micros", result.micros);
  return {w.str(), result.status != Status::kOk};
}

RequestHandler::Rendered RequestHandler::control(const ParsedLine& parsed) {
  const std::string id = string_field(parsed.fields, "id");
  try {
    if (parsed.op == "stats") {
      return {service_.stats().to_string(), false};
    }
    if (parsed.op == "info") {
      // Backend identity for routers and operators: who am I, how long up,
      // how loaded, how warm.  Safe on every transport (no paths, no side
      // effects) and cheap enough for a health probe.
      const ServiceStats stats = service_.stats();
      JsonWriter w;
      if (!id.empty()) w.field("id", id);
      w.field("op", "info")
          .field("status", to_json_token(Status::kOk))
          .field("version", kVersion)
          .field("server_id", config_.server_id)
          .field("pid", static_cast<std::int64_t>(::getpid()))
          .field("uptime_ms",
                 static_cast<std::uint64_t>(
                     std::chrono::duration_cast<std::chrono::milliseconds>(
                         std::chrono::steady_clock::now() - started_)
                         .count()))
          .field("workers", service_.workers())
          .field("queue_depth",
                 static_cast<std::uint64_t>(service_.queue_depth()))
          .field("queries", stats.queries)
          .field("cache_entries", stats.cache.entries)
          .field("cache_resident_vertices", stats.cache.resident_vertices)
          .field("memo_hits", stats.result_hits)
          .field("interned_tasks",
                 static_cast<std::uint64_t>(interned_tasks()));
      return {w.str(), false};
    }
    if (parsed.op == "store") {
      return store_control(parsed, id);
    }
    if (parsed.op == "metrics") {
      if (!service_.observer().enabled()) {
        throw std::invalid_argument(
            "metrics: the observability layer is disabled");
      }
      if (const std::string path = string_field(parsed.fields, "path");
          !path.empty()) {
        if (!config_.allow_control_paths) {
          throw std::invalid_argument(
              "metrics: \"path\" is not allowed on this transport");
        }
        std::ofstream file(path);
        if (!file) {
          throw std::invalid_argument("metrics: cannot open \"" + path +
                                      "\"");
        }
        service_.observer().write_prometheus(file);
      }
      return {metrics_line(id, service_), false};
    }
    // parsed.op == "trace"
    if (!service_.observer().enabled()) {
      throw std::invalid_argument(
          "trace: the observability layer is disabled");
    }
    const std::string path = string_field(parsed.fields, "path");
    if (path.empty()) {
      throw std::invalid_argument("trace: missing field \"path\"");
    }
    if (!config_.allow_control_paths) {
      throw std::invalid_argument(
          "trace: \"path\" is not allowed on this transport");
    }
    std::ofstream file(path);
    if (!file) {
      throw std::invalid_argument("trace: cannot open \"" + path + "\"");
    }
    service_.observer().write_chrome_trace(file);
    const obs::TraceSink* sink = service_.observer().trace();
    JsonWriter w;
    if (!id.empty()) w.field("id", id);
    w.field("op", "trace")
        .field("status", to_json_token(Status::kOk))
        .field("path", path)
        .field("spans", sink != nullptr ? sink->recorded() : 0)
        .field("dropped", sink != nullptr ? sink->dropped() : 0);
    return {w.str(), false};
  } catch (const std::exception& e) {
    return error_record(id, parsed.line_no, e.what());
  }
}

RequestHandler::Rendered RequestHandler::store_control(const ParsedLine& parsed,
                                                       const std::string& id) {
  SdsCache& cache = service_.cache();
  const std::string action = string_field(parsed.fields, "action", "stats");

  JsonWriter w;
  if (!id.empty()) w.field("id", id);
  w.field("op", "store").field("action", action);

  // Shared tail: the gauges operators (and the store-smoke CI job) read.
  // chain_builds == cache misses + extensions is THE warm-start number: it
  // stays 0 across a restart served entirely from the store.
  const auto append_stats = [&] {
    const CacheStats cs = cache.stats();
    const StoreStats ss = cache.store_stats();
    w.field("enabled", ss.enabled)
        .field("readonly", ss.readonly)
        .field("lookups", ss.lookups)
        .field("store_hits", ss.hits)
        .field("store_misses", ss.misses)
        .field("fallbacks", ss.fallbacks)
        .field("publishes", ss.publishes)
        .field("publish_skipped", ss.publish_skipped)
        .field("files", ss.files)
        .field("file_bytes", ss.file_bytes)
        .field("mapped_bytes", ss.mapped_bytes)
        .field("cache_store_hits", cs.store_hits)
        .field("chain_builds", cs.chain_builds())
        .field("pinned", cs.pinned);
  };

  if (action == "stats") {
    w.field("status", to_json_token(Status::kOk));
    append_stats();
    return {w.str(), false};
  }
  if (action == "warm") {
    const std::uint64_t admitted = cache.warm();
    w.field("status", to_json_token(Status::kOk)).field("admitted", admitted);
    append_stats();
    return {w.str(), false};
  }
  if (action == "shed") {
    // frac in percent (flat-JSON fields are integers); default half.
    const int percent = int_field(parsed.fields, "percent", 50);
    if (percent < 0 || percent > 100) {
      throw std::invalid_argument("store shed: \"percent\" not in [0, 100]");
    }
    const std::uint64_t evicted =
        cache.shed(static_cast<double>(percent) / 100.0);
    w.field("status", to_json_token(Status::kOk)).field("evicted", evicted);
    append_stats();
    return {w.str(), false};
  }
  if (action == "pin" || action == "unpin") {
    const std::string hex = string_field(parsed.fields, "fingerprint");
    if (hex.empty()) {
      throw std::invalid_argument("store " + action +
                                  ": missing field \"fingerprint\"");
    }
    char* end = nullptr;
    errno = 0;
    const std::uint64_t fp = std::strtoull(hex.c_str(), &end, 16);
    if (errno != 0 || end == hex.c_str() || *end != '\0') {
      throw std::invalid_argument("store " + action +
                                  ": \"fingerprint\" is not a hex id: " + hex);
    }
    const bool ok = action == "pin" ? cache.pin(fp) : cache.unpin(fp);
    w.field("status", to_json_token(Status::kOk))
        .field("fingerprint", hex)
        .field(action == "pin" ? "pinned" : "unpinned", ok);
    return {w.str(), false};
  }
  if (action == "publish") {
    // Path-bearing: publish writes files under the store directory, so it
    // follows the metrics/trace "path" rule -- operator transports only.
    if (!config_.allow_control_paths) {
      throw std::invalid_argument(
          "store publish: not allowed on this transport");
    }
    const std::uint64_t written = cache.publish_all();
    w.field("status", to_json_token(Status::kOk)).field("written", written);
    append_stats();
    return {w.str(), false};
  }
  throw std::invalid_argument("unknown store action \"" + action + "\"");
}

}  // namespace wfc::svc
