#include "topology.hpp"

#include <chrono>
#include <stdexcept>
#include <thread>

#include "service/frontend.hpp"

namespace perfbench {

using namespace wfc;

svc::QueryService::Options serve_options(const Workload& w,
                                         const std::string& store_dir,
                                         bool obs) {
  svc::ServeConfig serve;  // wfc_serve's defaults
  svc::QueryService::Options o = serve.service;
  o.workers = w.workers;
  o.cache.store.dir = store_dir;
  o.obs.enabled = obs && serve.observability;
  return o;
}

namespace {

Shard make_shard(const Workload& w, const std::string& store_dir,
                 const std::string& id) {
  svc::ServeConfig serve;
  Shard s;
  s.service = std::make_unique<svc::QueryService>(
      serve_options(w, store_dir, /*obs=*/true));
  net::ServerConfig cfg;
  cfg.listen = net::parse_endpoint("127.0.0.1:0");
  cfg.io_threads = w.io_threads;
  cfg.handler.default_max_level = serve.default_max_level;
  cfg.handler.max_line_bytes = serve.max_line_bytes;
  cfg.handler.server_id = id;
  s.server = std::make_unique<net::Server>(*s.service, cfg);
  s.server->start();
  return s;
}

}  // namespace

Topology::Topology(const Workload& w, const std::string& store_dir) {
  if (w.kind != Kind::kRouted) {
    shards_.push_back(make_shard(w, store_dir, ""));
    return;
  }
  cluster::RouterConfig rc;
  for (const char* id : {"s1", "s2"}) {
    shards_.push_back(make_shard(w, store_dir, id));
    rc.shards.push_back(cluster::ShardSpec{
        id, net::Endpoint{"127.0.0.1", shards_.back().server->port()}});
  }
  // wfc_router's shipped settings, with one pooled connection (one reader
  // thread) per shard to stay inside the thread budget.
  rc.conns_per_shard = 1;
  rc.probe_interval = std::chrono::milliseconds(1'000);
  rc.obs.enabled = true;
  router_ = std::make_unique<cluster::Router>(rc);
  router_->start();
  // The router connects to its shards in the background and answers
  // solves "overloaded: no shard available" until it holds a connection to
  // one; the cluster is set up once it holds one to every shard.
  const auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  for (const cluster::ShardSpec& shard : rc.shards) {
    while (router_->shard_up_conns(shard.id) < rc.conns_per_shard) {
      if (std::chrono::steady_clock::now() > give_up) {
        throw std::runtime_error("router never connected to shard " + shard.id);
      }
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  }
  net::ServerConfig fc;
  fc.listen = net::parse_endpoint("127.0.0.1:0");
  fc.io_threads = 1;
  front_ = std::make_unique<net::Server>(*router_, fc);
  front_->start();
}

Topology::~Topology() {
  if (front_) front_->stop();
  if (router_) router_->stop();
  front_.reset();
  router_.reset();
  for (Shard& s : shards_) {
    s.server->stop();
    s.server.reset();
    s.service.reset();
  }
}

std::uint16_t Topology::port() const {
  return front_ ? front_->port() : shards_.front().server->port();
}

svc::ServiceStats Topology::service_stats() const {
  svc::ServiceStats sum;
  for (const Shard& s : shards_) {
    const svc::ServiceStats st = s.service->stats();
    sum.queries += st.queries;
    sum.result_hits += st.result_hits;
    sum.cache.hits += st.cache.hits;
    sum.cache.misses += st.cache.misses;
    sum.cache.extensions += st.cache.extensions;
    sum.store.fallbacks += st.store.fallbacks;
  }
  return sum;
}

}  // namespace perfbench
