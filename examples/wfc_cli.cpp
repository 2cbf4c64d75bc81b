// wfc_cli -- decide wait-free solvability from the command line.
//
// Usage:
//   wfc_cli consensus <procs> <values> [max_level]
//   wfc_cli set-consensus <procs> <k> [max_level]
//   wfc_cli renaming <procs> <names> [max_level]
//   wfc_cli approx <procs> <grid> [max_level]
//   wfc_cli simplex-agreement <procs> <target_depth> [max_level]
//   wfc_cli resilient-consensus <procs> <t> [max_level]
//   wfc_cli resilient-set-consensus <procs> <k>:<t> [max_level]   (e.g. 2:1)
//   wfc_cli check <target> <procs> <rounds> [crashes]
//
// Global options (before the subcommand):
//   --retries N        retry queries whose terminal status is retryable
//                      (overloaded / resource_exhausted) up to N times,
//                      sleeping the service's retry_after_ms hint scaled by
//                      exponential backoff with jitter between attempts.
//   --connect H:P      run the query against a remote wfc_serve --listen
//                      server instead of an in-process service.  The task,
//                      check, and metrics subcommands translate to one
//                      JSONL request; `pipe` forwards stdin lines verbatim
//                      and prints responses as they arrive (out of order --
//                      match on the "id" echo).
//
// Prints the characterization verdict, and for solvable tasks also runs the
// synthesized protocol once on real threads as a liveness check.  The
// resilient-* forms answer the t-resilient question for colorless tasks via
// the BG reduction.  `check` runs the wfc::chk model checker (target: sds,
// emulation, or linearizability) over every bounded schedule.  The
// JSON-lines query server is wfc_serve; its {"op":"metrics","path":F} and
// {"op":"trace","path":F} lines write the Prometheus exposition and the
// Chrome trace.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <thread>

#include "check/conformance.hpp"
#include "check/sds_check.hpp"
#include "common/rng.hpp"
#include "core/wfc.hpp"
#include "net/client.hpp"
#include "service/jsonl.hpp"
#include "service/query_service.hpp"
#include "service/status.hpp"

namespace {

using namespace wfc;

int usage() {
  std::fprintf(stderr,
               "usage: wfc_cli [--retries N] [--connect H:P] <task> "
               "<args...> [max_level]\n"
               "  consensus <procs> <values>\n"
               "  set-consensus <procs> <k>\n"
               "  renaming <procs> <names>\n"
               "  approx <procs> <grid>\n"
               "  simplex-agreement <procs> <target_depth>\n"
               "  check <sds|emulation|linearizability> <procs> <rounds> "
               "[crashes]\n"
               "With --connect: task subcommands, check, metrics, and info "
               "send one\nJSONL request to a wfc_serve --listen server; "
               "`pipe` forwards stdin\nlines.  Against a wfc_router:\n"
               "  cluster [stats]               routing/hedge counters\n"
               "  cluster drain <shard>         stop routing new keys to it\n"
               "  cluster add <shard> <H:P>     join a shard to the ring\n"
               "  cluster remove <shard>        hard-detach a shard\n"
               "Chain-store control plane (server or router):\n"
               "  store [stats]                 store/cache gauges\n"
               "  store warm                    admit every stored chain\n"
               "  store shed [percent]          drop ~percent of residency\n"
               "  store pin <fingerprint>       pin a tower against "
               "eviction\n"
               "  store unpin <fingerprint>     release the pin\n"
               "  store publish                 flush resident chains to "
               "disk\n");
  return 2;
}

/// `wfc_cli --connect`: translate the subcommand into one JSONL request
/// line, round-trip it over TCP, and print the raw result envelope.  The
/// exit code follows the transport "status" field: 0 for ok, 1 otherwise.
int connect_command(const std::string& endpoint, int argc, char** argv) {
  net::Client client(net::ClientConfig{net::parse_endpoint(endpoint)});
  const std::string name = argc > 1 ? argv[1] : "";

  if (name == "pipe") {
    // Forward stdin verbatim; print responses as they arrive.  Half-close
    // after the last line so the server answers everything, then EOFs.
    std::string line;
    while (std::getline(std::cin, line)) client.send_line(line);
    client.shutdown_write();
    while (std::optional<std::string> response = client.recv_line()) {
      std::printf("%s\n", response->c_str());
    }
    return 0;
  }

  std::string request;
  if (name == "metrics") {
    request = R"({"id":"cli","op":"metrics"})";
  } else if (name == "info") {
    request = R"({"id":"cli","op":"info"})";
  } else if (name == "cluster") {
    // Router control plane (cluster/router.hpp): stats, drain, add, remove.
    const std::string verb = argc > 2 ? argv[2] : "stats";
    if (verb == "stats") {
      request = R"({"id":"cli","op":"cluster_stats"})";
    } else if (verb == "drain" && argc > 3) {
      request = std::string(R"({"id":"cli","op":"cluster_drain","shard":")") +
                argv[3] + R"("})";
    } else if (verb == "remove" && argc > 3) {
      request = std::string(R"({"id":"cli","op":"cluster_remove","shard":")") +
                argv[3] + R"("})";
    } else if (verb == "add" && argc > 4) {
      const net::Endpoint addr = net::parse_endpoint(argv[4]);
      request = std::string(R"({"id":"cli","op":"cluster_add","shard":")") +
                argv[3] + R"(","host":")" + addr.host + R"(","port":)" +
                std::to_string(addr.port) + "}";
    } else {
      return usage();
    }
  } else if (name == "store") {
    // Unified store op family (service/handler.hpp; a wfc_router fans the
    // same line out to every shard and aggregates).
    const std::string verb = argc > 2 ? argv[2] : "stats";
    if (verb == "stats" || verb == "warm" || verb == "publish") {
      request = std::string(R"({"id":"cli","op":"store","action":")") + verb +
                R"("})";
    } else if (verb == "shed") {
      request = std::string(R"({"id":"cli","op":"store","action":"shed")");
      if (argc > 3) {
        request +=
            R"(,"percent":)" + std::to_string(std::atoi(argv[3]));
      }
      request += "}";
    } else if ((verb == "pin" || verb == "unpin") && argc > 3) {
      request = std::string(R"({"id":"cli","op":"store","action":")") + verb +
                R"(","fingerprint":")" + argv[3] + R"("})";
    } else {
      return usage();
    }
  } else if (name == "check" && argc >= 5) {
    request = std::string(R"({"id":"cli","op":"check","target":")") +
              argv[2] + R"(","procs":)" + std::to_string(std::atoi(argv[3])) +
              R"(,"rounds":)" + std::to_string(std::atoi(argv[4]));
    if (argc > 5) {
      request += R"(,"crashes":)" + std::to_string(std::atoi(argv[5]));
    }
    request += "}";
  } else if (argc >= 4) {
    // Task families: the per-family parameter key matches the corpus shape
    // (see examples/queries.jsonl and service/handler.hpp).
    std::string param;
    if (name == "consensus") param = "values";
    if (name == "set-consensus") param = "k";
    if (name == "renaming") param = "names";
    if (name == "approx") param = "grid";
    if (name == "simplex-agreement") param = "depth";
    if (param.empty()) return usage();
    request = std::string(R"({"id":"cli","op":"solve","task":")") + name +
              R"(","procs":)" + std::to_string(std::atoi(argv[2])) + ",\"" +
              param + "\":" + std::to_string(std::atoi(argv[3]));
    if (argc > 4) {
      request += R"(,"max_level":)" + std::to_string(std::atoi(argv[4]));
    }
    request += "}";
  } else {
    return usage();
  }

  const std::string response = client.roundtrip(request);
  std::printf("%s\n", response.c_str());
  try {
    const auto fields = svc::parse_flat_json(response);
    const auto it = fields.find("status");
    return it != fields.end() && it->second == "ok" ? 0 : 1;
  } catch (const std::exception&) {
    return 1;
  }
}

/// Submits `query` up to 1 + retries times, backing off between attempts on
/// retryable statuses (overloaded / resource_exhausted): the service's
/// retry_after_ms hint (or 50ms) doubles per attempt, capped at 5s, with
/// uniform jitter in [0.5, 1.5) to decorrelate retrying clients.
svc::QueryResult submit_with_retries(svc::QueryService& service,
                                     const svc::Query& query, int retries) {
  Rng rng(test_seed(0x5eedull));
  svc::QueryResult result;
  for (int attempt = 0;; ++attempt) {
    result = service.submit(query).result.get();
    if (!svc::is_retryable(result.status) || attempt >= retries) return result;
    std::uint64_t base_ms =
        result.retry_after_ms > 0 ? result.retry_after_ms : 50;
    base_ms = std::min<std::uint64_t>(base_ms << attempt, 5'000);
    const auto sleep_ms =
        static_cast<std::uint64_t>(static_cast<double>(base_ms) *
                                   (0.5 + rng.unit()));
    std::fprintf(stderr,
                 "wfc_cli: %s, retrying in %llu ms (attempt %d/%d)\n",
                 svc::to_cstring(result.status),
                 static_cast<unsigned long long>(sleep_ms), attempt + 1,
                 retries);
    std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms));
  }
}

/// `wfc_cli check`: run one wfc::chk query through the service layer and
/// print the verdict plus the service's CheckStats line.
int check_command(const std::string& target, int procs, int rounds,
                  int crashes, int retries) {
  svc::CheckRequest check;
  if (target == "sds") {
    check.target = svc::CheckRequest::Target::kSds;
  } else if (target == "emulation") {
    check.target = svc::CheckRequest::Target::kEmulation;
  } else if (target == "linearizability") {
    check.target = svc::CheckRequest::Target::kLinearizability;
  } else {
    return usage();
  }
  check.procs = procs;
  check.rounds = rounds;
  check.crashes = crashes;
  svc::Query query = svc::Query::check(check);

  svc::QueryService service;
  svc::QueryResult result = submit_with_retries(service, query, retries);
  if (result.status != svc::Status::kOk) {
    std::fprintf(stderr, "check failed (%s): %s\n",
                 svc::to_cstring(result.status), result.error.c_str());
    return 2;
  }
  std::printf("check %s procs=%d rounds=%d crashes=%d: %s\n", target.c_str(),
              procs, rounds, crashes,
              result.check_ok ? "OK" : "VIOLATION");
  std::printf("  schedules=%llu histories=%llu max_depth=%llu (%llu us)\n",
              static_cast<unsigned long long>(result.check_schedules),
              static_cast<unsigned long long>(result.check_histories),
              static_cast<unsigned long long>(result.check_max_depth),
              static_cast<unsigned long long>(result.micros));
  if (!result.check_violation.empty()) {
    std::printf("  violation: %s\n", result.check_violation.c_str());
  }
  std::printf("  %s\n", service.stats().to_string().c_str());
  return result.check_ok ? 0 : 1;
}

std::unique_ptr<task::Task> make_task(const std::string& name, int a, int b) {
  if (name == "consensus") return std::make_unique<task::ConsensusTask>(a, b);
  if (name == "set-consensus") {
    return std::make_unique<task::KSetConsensusTask>(a, b);
  }
  if (name == "renaming") return std::make_unique<task::RenamingTask>(a, b);
  if (name == "approx") {
    return std::make_unique<task::ApproxAgreementTask>(a, b);
  }
  if (name == "simplex-agreement") {
    return std::make_unique<task::SimplexAgreementTask>(
        a, topo::iterated_sds(topo::base_simplex(a), b));
  }
  return nullptr;
}

}  // namespace

int resilient_command(const std::string& name, int procs, const char* arg,
                      int max_level) {
  using namespace wfc::task;
  ColorlessSpec spec;
  int t = 0;
  if (name == "resilient-consensus") {
    spec = colorless_consensus(2);
    t = std::atoi(arg);
  } else {
    const std::string kt = arg;
    const auto colon = kt.find(':');
    if (colon == std::string::npos) return usage();
    const int k = std::atoi(kt.substr(0, colon).c_str());
    t = std::atoi(kt.substr(colon + 1).c_str());
    spec = colorless_set_consensus(k, procs);
  }
  ResilienceVerdict v = decide_t_resilient(spec, procs, t, max_level);
  std::printf("%s with %d processors tolerating %d failures: %s",
              spec.name.c_str(), procs, t, to_cstring(v.status));
  if (v.status == Solvability::kSolvable) {
    std::printf(" (wait-free witness at level %d for %d processors)",
                v.wait_free_level, t + 1);
  }
  std::printf("\n");
  return 0;
}

int main(int argc, char** argv) {
  int retries = 0;
  std::string connect;
  while (argc >= 3) {
    if (std::string(argv[1]) == "--retries") {
      retries = std::atoi(argv[2]);
      if (retries < 0) return usage();
    } else if (std::string(argv[1]) == "--connect") {
      connect = argv[2];
      if (connect.empty()) return usage();
    } else {
      break;
    }
    argv += 2;
    argc -= 2;
  }
  if (!connect.empty()) {
    try {
      return connect_command(connect, argc, argv);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "wfc_cli: %s\n", e.what());
      return 1;
    }
  }
  if (argc >= 5 && std::string(argv[1]) == "check") {
    return check_command(argv[2], std::atoi(argv[3]), std::atoi(argv[4]),
                         argc > 5 ? std::atoi(argv[5]) : 0, retries);
  }
  if (argc < 4) return usage();
  const std::string name = argv[1];
  const int a = std::atoi(argv[2]);
  const int b = std::atoi(argv[3]);
  const int max_level = argc > 4 ? std::atoi(argv[4]) : 2;

  if (name.rfind("resilient-", 0) == 0) {
    return resilient_command(name, a, argv[3], max_level);
  }

  std::unique_ptr<task::Task> t;
  try {
    t = make_task(name, a, b);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "invalid parameters: %s\n", e.what());
    return 2;
  }
  if (!t) return usage();

  CharacterizeOptions opts;
  opts.max_level = max_level;
  CharacterizationReport rep = characterize(*t, opts);
  std::printf("%s\n", rep.summary(t->name()).c_str());

  if (rep.status == task::Solvability::kSolvable) {
    task::SolveResult solved = task::solve(*t, max_level);
    task::DecisionProtocol protocol(*t, std::move(solved));
    const topo::Simplex& facet = t->input().facets().front();
    task::RunOutcome out = protocol.run_threads(facet);
    std::printf("live run on %zu threads: ", facet.size());
    for (std::size_t i = 0; i < out.decisions.size(); ++i) {
      std::printf("%s%s", i ? ", " : "",
                  t->output().vertex(out.decisions[i]).key.c_str());
    }
    std::printf("  [%s]\n", out.valid ? "valid" : "INVALID");
    return out.valid ? 0 : 1;
  }
  return 0;
}
