// The serving stack, stood up inside this process from the library's
// public classes:
//
//   direct:  svc::QueryService behind net::Server (one shard)
//   routed:  cluster::Router behind net::Server, in front of two shards
//
// Each shard is configured as wfc_serve ships (ServeConfig defaults,
// observability on), except for the worker and io-thread counts the
// workload sets so that busy threads fit the host's cores.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cluster/router.hpp"
#include "net/server.hpp"
#include "service/query_service.hpp"
#include "workloads.hpp"

namespace perfbench {

struct Shard {
  std::unique_ptr<wfc::svc::QueryService> service;
  std::unique_ptr<wfc::net::Server> server;
};

/// Service options as wfc_serve ships them, with the workload's worker
/// count, an optional chain-store directory, and observability on or off.
wfc::svc::QueryService::Options serve_options(const Workload& w,
                                              const std::string& store_dir,
                                              bool obs);

class Topology {
 public:
  /// Builds and starts the stack; `store_dir` (may be empty) is the
  /// shard's chain store.
  Topology(const Workload& w, const std::string& store_dir);
  /// Stops the front server, the router, then each shard's server before
  /// its service; every thread the stack started has joined on return.
  ~Topology();
  Topology(const Topology&) = delete;
  Topology& operator=(const Topology&) = delete;

  /// The port clients connect to (the router's front for routed).
  [[nodiscard]] std::uint16_t port() const;
  [[nodiscard]] std::vector<Shard>& shards() { return shards_; }
  [[nodiscard]] wfc::cluster::Router* router() { return router_.get(); }

  /// The counters the shape checks read (queries, result hits, cache and
  /// store counters), summed over shards.
  [[nodiscard]] wfc::svc::ServiceStats service_stats() const;

 private:
  std::vector<Shard> shards_;
  std::unique_ptr<wfc::cluster::Router> router_;
  std::unique_ptr<wfc::net::Server> front_;
};

}  // namespace perfbench
