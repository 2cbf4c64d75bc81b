// wfc_serve -- JSON-lines query server over the wfc::svc subsystem.
//
// Two transports share one protocol (service/handler.hpp):
//
//   * stdin/stdout (default): reads one query object per stdin line,
//     executes them concurrently on a worker pool with a shared SDS-chain
//     cache, and prints one JSON result line per query (in input order).
//   * TCP (--listen host:port): serves the same newline-framed protocol
//     over plaintext TCP via the wfc::net epoll server.  Responses echo the
//     client-supplied "id" and may complete out of order; pipeline freely.
//     SIGTERM / SIGINT drain gracefully: stop accepting, answer and flush
//     everything inflight, then exit.
//
// Usage: wfc_serve [--workers N] [--max-level B] [--mem-cache-entries N]
//                  [--mem-cache-vertices N] [--store-dir PATH]
//                  [--store-readonly] [--store-max-bytes N] [--quiet]
//                  [--no-obs] [--listen host:port] [--port-file PATH]
//                  [--io-threads N] [--idle-timeout-ms N]
//                  [--max-line-bytes N] [--shard-id S]
//
// Results use the v2 envelope ("status" = transport taxonomy, domain
// verdict in "verdict").  --no-obs leaves the observability layer off (the
// metrics and trace ops then answer invalid_argument).
//
// --listen ":0" binds an ephemeral port; --port-file writes the bound port
// as a decimal line once the server is accepting (CI's free-port flow).
//
// Example (stdin transport, two lines: a consensus query, then stats):
//   printf ... | wfc_serve --workers 4
// Example (TCP):
//   wfc_serve --listen 127.0.0.1:7411 &
//   wfc_loadgen --connect 127.0.0.1:7411 --corpus examples/queries.jsonl
#include <signal.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>

#include "net/server.hpp"
#include "service/frontend.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: wfc_serve [--workers N] [--max-level B]\n"
               "                 [--mem-cache-entries N] "
               "[--mem-cache-vertices N]\n"
               "                 [--store-dir PATH] [--store-readonly]\n"
               "                 [--store-max-bytes N]\n"
               "                 [--quiet] [--no-obs]\n"
               "                 [--listen host:port] [--port-file PATH]\n"
               "                 [--io-threads N] [--idle-timeout-ms N]\n"
               "                 [--max-line-bytes N] [--shard-id S]\n"
               "Speaks the JSON-lines protocol of service/handler.hpp on\n"
               "stdin/stdout, or over TCP with --listen.\n"
               "  --listen ADDR  serve plaintext TCP (\":0\" = ephemeral)\n"
               "  --port-file P  write the bound port to P once listening\n"
               "  --store-dir P  persistent content-addressed chain store;\n"
               "                 restarts (and co-located shards) start warm\n"
               "  --store-readonly     never publish to the store\n"
               "  --store-max-bytes N  on-disk budget (0 = unlimited)\n"
               "  --no-obs       disable tracing/metrics collection\n"
               "  --shard-id S   identity echoed by {\"op\":\"info\"} "
               "(cluster shards)\n");
  return 2;
}

/// TCP mode: serve until SIGTERM/SIGINT, then drain gracefully.  Signals
/// are blocked in every thread (the mask is inherited by the service and io
/// threads spawned below) and collected here with sigwait, so the drain
/// runs on the main thread with no async-signal-safety constraints.
int serve_tcp(const wfc::svc::ServeConfig& config,
              const std::string& listen_spec, const std::string& port_file,
              const std::string& shard_id, int io_threads,
              int idle_timeout_ms) {
  sigset_t mask;
  sigemptyset(&mask);
  sigaddset(&mask, SIGTERM);
  sigaddset(&mask, SIGINT);
  if (pthread_sigmask(SIG_BLOCK, &mask, nullptr) != 0) {
    std::fprintf(stderr, "wfc_serve: pthread_sigmask failed\n");
    return 1;
  }

  wfc::svc::QueryService::Options service_options = config.service;
  if (config.observability) service_options.obs.enabled = true;
  wfc::svc::QueryService service(std::move(service_options));

  wfc::net::ServerConfig server_config;
  server_config.listen = wfc::net::parse_endpoint(listen_spec);
  if (io_threads > 0) server_config.io_threads = io_threads;
  if (idle_timeout_ms > 0) {
    server_config.idle_timeout = std::chrono::milliseconds(idle_timeout_ms);
  }
  server_config.handler.default_max_level = config.default_max_level;
  server_config.handler.max_line_bytes = config.max_line_bytes;
  server_config.handler.server_id = shard_id;

  wfc::net::Server server(service, server_config);
  server.start();
  std::fprintf(stderr, "wfc_serve: listening on %s port %u\n",
               server_config.listen.host.c_str(), server.port());
  if (!port_file.empty()) {
    std::ofstream out(port_file);
    if (!out) {
      std::fprintf(stderr, "wfc_serve: cannot write port file \"%s\"\n",
                   port_file.c_str());
      return 1;
    }
    out << server.port() << "\n";
  }

  int sig = 0;
  while (sigwait(&mask, &sig) != 0) {
  }
  std::fprintf(stderr, "wfc_serve: %s, draining\n", strsignal(sig));
  server.drain();
  const wfc::net::Server::Stats wire = server.stats();
  if (config.stats_at_eof) {
    std::fprintf(stderr,
                 "wfc_serve: wire accepted=%llu closed=%llu dropped=%llu "
                 "requests=%llu responses=%llu\n",
                 static_cast<unsigned long long>(wire.accepted),
                 static_cast<unsigned long long>(wire.closed),
                 static_cast<unsigned long long>(wire.dropped),
                 static_cast<unsigned long long>(wire.requests),
                 static_cast<unsigned long long>(wire.responses));
    std::fprintf(stderr, "wfc_serve: %s\n",
                 service.stats().to_string().c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  wfc::svc::ServeConfig config;
  std::string listen_spec;
  std::string port_file;
  std::string shard_id;
  int io_threads = 0;
  int idle_timeout_ms = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next_int = [&](int& out) {
      if (i + 1 >= argc) return false;
      out = std::atoi(argv[++i]);
      return out > 0;
    };
    auto next_str = [&](std::string& out) {
      if (i + 1 >= argc) return false;
      out = argv[++i];
      return !out.empty();
    };
    int value = 0;
    if (arg == "--workers" && next_int(value)) {
      config.service.workers = value;
    } else if (arg == "--max-level" && next_int(value)) {
      config.default_max_level = value;
    } else if (arg == "--mem-cache-entries" && next_int(value)) {
      config.service.cache.max_entries = static_cast<std::size_t>(value);
    } else if (arg == "--mem-cache-vertices" && next_int(value)) {
      config.service.cache.max_resident_vertices =
          static_cast<std::size_t>(value);
    } else if (arg == "--store-dir" &&
               next_str(config.service.cache.store.dir)) {
    } else if (arg == "--store-readonly") {
      config.service.cache.store.readonly = true;
    } else if (arg == "--store-max-bytes") {
      if (i + 1 >= argc) return usage();
      config.service.cache.store.max_bytes =
          std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--max-line-bytes" && next_int(value)) {
      config.max_line_bytes = static_cast<std::size_t>(value);
    } else if (arg == "--quiet") {
      config.stats_at_eof = false;
    } else if (arg == "--no-obs") {
      config.observability = false;
    } else if (arg == "--listen" && next_str(listen_spec)) {
    } else if (arg == "--port-file" && next_str(port_file)) {
    } else if (arg == "--shard-id" && next_str(shard_id)) {
    } else if (arg == "--io-threads" && next_int(io_threads)) {
    } else if (arg == "--idle-timeout-ms" && next_int(idle_timeout_ms)) {
    } else {
      return usage();
    }
  }
  if (!listen_spec.empty()) {
    try {
      return serve_tcp(config, listen_spec, port_file, shard_id, io_threads,
                       idle_timeout_ms);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "wfc_serve: %s\n", e.what());
      return 1;
    }
  }
  const int errors =
      wfc::svc::run_jsonl_server(std::cin, std::cout, std::cerr, config);
  return errors == 0 ? 0 : 1;
}
