// Traced run: the per-layer metrics of BENCHMARK.json.
//
// Every number here is taken from OUTSIDE the layer, by timing a call into
// that layer's public function; nothing inside src/ records a span.  The
// run has four parts:
//
//   1. Live stack.  The workload's topology, a cold sweep of its distinct
//      requests (chain builds), then a short TCP closed + open loop that
//      yields the hit ratios, router counters, and the driver's own
//      lateness.
//   2. Wire probes.  net::Client::roundtrip of memo-hit lines, 1 in flight;
//      routed also against a shard directly (cluster.hop_us).
//   3. Replay.  A sample of the workload's request lines runs through the
//      handler as one call (parse + submit + get + render: the monolithic
//      in-process time) and again decomposed into the layers' own calls,
//      each wrapped in a span.  trace.coverage = sum of layer self times /
//      monolithic time; trace.overhead_pct = decomposed replay with span
//      recording on vs off.
//   4. Layer probes over the workload's distinct instances: task
//      construction, memo hits (obs on vs off), SdsCache hits (1 and 4
//      threads), AC-3 root refutations vs branching, model restriction,
//      chain build, store publish / load / materialize, and an in-process
//      open loop for queue wait and execution time.
#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <thread>

#include "bench.hpp"
#include "model/restrict.hpp"
#include "net/client.hpp"
#include "service/handler.hpp"
#include "service/jsonl.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "store/chain_store.hpp"
#include "topology.hpp"
#include "topology/hash.hpp"

namespace perfbench {

using namespace wfc;

namespace {

double us_since(std::int64_t t0) {
  return static_cast<double>(now_ns() - t0) / 1e3;
}

/// One distinct request of the workload, built the way the handler builds
/// it.
struct Instance {
  std::uint32_t tmpl = 0;
  std::string key;
  svc::Fields fields;
  std::shared_ptr<task::Task> task;
  std::shared_ptr<const model::Model> model;  // null for wait_free
  int max_level = 2;
  std::uint64_t fingerprint = 0;  // of the input complex
};

std::vector<Instance> make_instances(const Workload& w) {
  std::vector<Instance> out;
  for (std::uint32_t i = 0; i < w.templates.size(); ++i) {
    Instance in;
    in.tmpl = i;
    in.key = w.templates[i];
    in.fields = svc::parse_flat_json(in.key);
    in.task = svc::make_canonical_task(in.fields);
    if (auto it = in.fields.find("model"); it != in.fields.end()) {
      auto m = model::Model::parse(it->second);
      if (!m->is_wait_free()) in.model = std::move(m);
    }
    in.max_level = std::stoi(in.fields.at("max_level"));
    in.fingerprint = topo::complex_fingerprint(in.task->input());
    out.push_back(std::move(in));
  }
  return out;
}

svc::Query query_of(const Instance& in, std::uint64_t budget) {
  svc::QueryOptions opts;
  opts.max_level = in.max_level;
  opts.node_budget = budget;
  return svc::Query(svc::SolveRequest{in.task, in.model}, opts);
}

std::uint64_t default_budget() { return svc::QueryOptions{}.node_budget; }

/// The Prop 3.1 level loop the service runs for a solve (task::solve),
/// unrolled so each level's search is its own call: chains come from
/// `cache` and model-restricted levels from its derived-tower cache, each
/// wrapped in a span.
task::SolveResult solve_levels(const Instance& in, svc::SdsCache& cache,
                               Tracer& tr, std::uint64_t req,
                               std::uint64_t budget) {
  task::SolveOptions opts;
  opts.node_budget = budget;
  opts.chain_provider = [&](const topo::ChromaticComplex& input, int depth) {
    auto s = tr.span("service.cache_hit", req);
    return cache.chain_for(input, depth);
  };
  if (in.model) {
    opts.restrictor = [&](const proto::SdsChain& chain, int level)
        -> std::optional<task::LevelRestriction> {
      auto s = tr.span("model.derived_hit", req);
      const std::uint64_t key =
          model::mix_fingerprint(in.fingerprint, in.model->tag());
      bool built = false;
      auto tower = cache.derived_chain_for(
          key, in.model->tag(), level,
          [&](std::shared_ptr<const proto::SdsChain> prior, int depth) {
            return model::restricted_tower(chain, depth, *in.model, prior);
          },
          &built);
      return task::LevelRestriction{tower->arena(level), nullptr};
    };
  }
  std::uint64_t nodes = 0;
  for (int b = 0; b <= in.max_level; ++b) {
    task::SolveResult r;
    {
      auto s = tr.span("tasks.solve_level", req);
      r = task::solve_at_level(*in.task, b, opts);
    }
    nodes += r.nodes_explored;
    if (r.status != task::Solvability::kUnsolvable) {
      r.nodes_explored = nodes;
      return r;
    }
  }
  task::SolveResult out;
  out.status = task::Solvability::kUnsolvable;
  out.nodes_explored = nodes;
  return out;
}

svc::RequestHandler::ResponseMeta meta_of(const Instance& in,
                                          const svc::Fields& fields) {
  svc::RequestHandler::ResponseMeta meta;
  if (auto it = fields.find("id"); it != fields.end()) meta.id = it->second;
  meta.label = in.task->name();
  if (in.model) meta.model = in.model->name();
  return meta;
}

/// A request line as the generator sends it (no trailing newline).
struct Line {
  std::string text;
  std::uint32_t tmpl = 0;
};

std::vector<Line> sample_lines(Traffic& traffic, std::size_t n) {
  std::vector<Line> out;
  for (std::size_t i = 0; i < n; ++i) {
    const Traffic::Next next = traffic.next();
    std::string s;
    traffic.append_line(next, s);
    s.pop_back();
    out.push_back(Line{std::move(s), next.tmpl});
  }
  return out;
}

struct Replay {
  double mono_us = 0.0;        // summed monolithic request time
  double attributed_us = 0.0;  // summed layer self time (traced passes)
  std::vector<double> traced_pass_us;
  std::vector<double> plain_pass_us;
};

/// Monolithic in-process request: everything a transport asks of the
/// handler for one line.  Returns the QueryResult for queue/exec figures.
svc::QueryResult monolithic(svc::RequestHandler& handler, const Line& line,
                            const Traffic& traffic, RunResult& res,
                            double* us) {
  const std::int64_t t0 = now_ns();
  const auto parsed = handler.parse(line.text, 1);
  svc::RequestHandler::Rendered err;
  auto sub = handler.submit(parsed, &err);
  svc::QueryResult r;
  std::string rendered = err.line;
  if (sub) {
    r = sub->ticket.result.get();
    rendered = handler.render(sub->meta, r).line;
  }
  *us += us_since(t0);
  ++res.tally.attempted;
  if (!traffic.check(line.tmpl, parse_answer(rendered))) {
    res.tally.fail(1, "wrong in-process answer: " + rendered);
  }
  return r;
}

/// Decomposed request: parse, the
/// service call (a memo hit) or the unrolled level loop (a full search),
/// render.
void decomposed_warm(svc::RequestHandler& handler, svc::QueryService& service,
                     const Instance& in, const Line& line, std::uint64_t req,
                     bool search, const Traffic& traffic, Tracer& tr,
                     RunResult& res) {
  auto root = tr.span("request", req);
  svc::RequestHandler::ParsedLine parsed;
  {
    auto s = tr.span("service.parse", req);
    parsed = handler.parse(line.text, 1);
  }
  svc::QueryResult r;
  if (search) {
    r.solve = solve_levels(in, service.cache(), tr, req, default_budget());
    r.cache_hit = true;
  } else {
    auto s = tr.span("service.memo_hit", req);
    r = service.submit(query_of(in, default_budget())).result.get();
  }
  std::string rendered;
  {
    auto s = tr.span("service.render", req);
    rendered = handler.render(meta_of(in, parsed.fields), r).line;
  }
  ++res.tally.attempted;
  if (!traffic.check(line.tmpl, parse_answer(rendered))) {
    res.tally.fail(1, "wrong decomposed answer: " + rendered);
  }
}

/// Median per-call time of `fn` over `reps` rounds of every instance.
template <typename F>
double median_us(const std::vector<const Instance*>& ins, int reps, F&& fn) {
  std::vector<double> v;
  for (int r = 0; r < reps; ++r) {
    for (const Instance* in : ins) {
      const std::int64_t t0 = now_ns();
      fn(*in);
      v.push_back(us_since(t0));
    }
  }
  return median(v);
}

/// In-process open loop against `service` at `rate`: queue wait (p99) and
/// execution time (median) as the service reports them per query.
void service_open_loop(svc::QueryService& service,
                       const std::vector<Instance>& instances,
                       Traffic& traffic, bool distinct_budget, double rate,
                       double seconds, std::vector<double>* queue_us,
                       std::vector<double>* exec_us, RunResult& res) {
  const auto n = static_cast<std::uint64_t>(rate * seconds);
  std::mutex mu;
  std::condition_variable cv;
  std::uint64_t done = 0;
  const std::int64_t t0 = now_ns();
  for (std::uint64_t k = 0; k < n; ++k) {
    const auto due = t0 + static_cast<std::int64_t>(1e9 * k / rate);
    while (now_ns() < due) {
    }
    const Traffic::Next next = traffic.next();
    const Instance& in = instances[next.tmpl];
    const std::uint64_t budget =
        distinct_budget ? (std::uint64_t{1} << 40) + next.seq
                        : default_budget();
    ++res.tally.attempted;
    service.submit(query_of(in, budget), [&](const svc::QueryResult& r) {
      std::lock_guard<std::mutex> lock(mu);
      if (r.status != svc::Status::kOk) {
        res.tally.fail(1, "in-process query failed: " + r.error);
      }
      queue_us->push_back(static_cast<double>(r.queue_micros));
      exec_us->push_back(static_cast<double>(r.micros - r.queue_micros));
      ++done;
      cv.notify_all();
    });
  }
  std::unique_lock<std::mutex> lock(mu);
  if (!cv.wait_for(lock, std::chrono::seconds(30), [&] { return done == n; })) {
    res.tally.fail(n - done, "in-process queries never completed");
  }
}

}  // namespace

RunResult run_traced(RunContext& ctx) {
  RunResult res;
  const Workload& w = ctx.workload;
  const double s = ctx.seconds;
  Traffic traffic(w, ctx.seed, ctx.golden);
  const std::vector<Instance> instances = make_instances(w);
  std::vector<const Instance*> all;
  std::vector<const Instance*> modeled;
  for (const Instance& in : instances) {
    all.push_back(&in);
    if (in.model) modeled.push_back(&in);
  }
  std::uint64_t fallbacks = 0;

  // -- 1. Live stack --------------------------------------------------------
  auto topo = std::make_unique<Topology>(w, "");
  const std::vector<std::uint32_t> order = traffic.sweep_order();
  run_serial(topo->port(), traffic, order, &res.tally);
  const svc::ServiceStats swept = topo->service_stats();
  const double chain_builds = static_cast<double>(swept.cache.chain_builds());
  run_closed(topo->port(), traffic, kConnections, w.window, 0.05 * s);
  const svc::ServiceStats before = topo->service_stats();
  const OpenResult open =
      run_open(topo->port(), traffic, kConnections, w.open_rate, 0.15 * s);
  const svc::ServiceStats after = topo->service_stats();
  res.tally.merge(open.tally);
  const double late_p99_ms = open.late_p99_ms;
  const auto backlog_end = static_cast<double>(open.backlog_end);
  const double memo_ratio = ratio(after.result_hits - before.result_hits,
                                  after.queries - before.queries);
  const std::uint64_t hits = after.cache.hits - before.cache.hits;
  const double cache_ratio =
      ratio(hits, hits + after.cache.misses - before.cache.misses);
  require_shape(w, memo_ratio, cache_ratio, res);

  // -- 2. Wire probes -------------------------------------------------------
  auto roundtrip_us = [&](std::uint16_t port) {
    net::Client client(net::ClientConfig{.server = {"127.0.0.1", port}});
    std::vector<std::string> lines;
    for (const Instance* in : all) {
      lines.push_back("{\"id\":\"t" + std::to_string(in->tmpl) + "\"," +
                      in->key.substr(1));
      (void)client.roundtrip(lines.back());  // warm: the first may solve
    }
    std::vector<double> v;
    const int reps = std::max(4, 4000 / static_cast<int>(lines.size()));
    for (int r = 0; r < reps; ++r) {
      for (std::size_t i = 0; i < lines.size(); ++i) {
        const std::int64_t t0 = now_ns();
        const std::string answer = client.roundtrip(lines[i]);
        v.push_back(us_since(t0));
        ++res.tally.attempted;
        if (!traffic.check(all[i]->tmpl, parse_answer(answer))) {
          res.tally.fail(1, "wrong roundtrip answer: " + answer);
        }
      }
    }
    return median(v);
  };
  const double net_roundtrip_us = roundtrip_us(topo->port());
  double hop_us = 0.0;
  double wasted_frac = 0.0;
  double shard_skew = 1.0;
  if (auto* router = topo->router()) {
    // Routed traffic only: read before the direct roundtrips below.
    const auto rs = router->stats();
    wasted_frac = ratio(rs.hedges + rs.redispatches, rs.requests);
    res.require(wasted_frac == 0.0,
                "router hedged or re-dispatched (wasted_frac > 0)");
    std::uint64_t lo = UINT64_MAX, hi = 0;
    for (Shard& sh : topo->shards()) {
      const std::uint64_t n = sh.server->stats().requests;
      lo = std::min(lo, n);
      hi = std::max(hi, n);
    }
    shard_skew = lo == 0 ? static_cast<double>(hi) : ratio(hi, lo);
    hop_us = net_roundtrip_us -
             roundtrip_us(topo->shards().front().server->port());
  }

  // -- 3. Replay ------------------------------------------------------------
  svc::QueryService& service = *topo->shards().front().service;
  svc::RequestHandler handler(service, svc::HandlerConfig{});
  std::vector<double> queue_us, exec_us;
  Tracer traced(true);
  Tracer plain(false);
  Replay rp;
  // Whole cycles of the seeded stream, so every pass sends the same mix;
  // each pass draws fresh requests (fresh budgets on solve_warm, which
  // must keep missing the memo).
  const std::size_t sample =
      w.kind == Kind::kSolveWarm ? 3 * instances.size() : 4000;
  // Warm the handler's interned tasks and the memo.
  for (const Line& l : sample_lines(traffic, sample)) {
    double ignored = 0.0;
    monolithic(handler, l, traffic, res, &ignored);
    decomposed_warm(handler, service, instances[l.tmpl], l, 0,
                    w.kind == Kind::kSolveWarm, traffic, plain, res);
  }
  const int passes = 3;
  std::uint64_t req = 0;
  for (int p = 0; p < passes; ++p) {
    const std::vector<Line> lines = sample_lines(traffic, sample);
    // Monolithic pass.
    for (const Line& l : lines) monolithic(handler, l, traffic, res, &rp.mono_us);
    // Decomposed passes over the same requests, recording on and off.
    for (Tracer* tr : {&traced, &plain}) {
      const std::int64_t t0 = now_ns();
      for (const Line& l : lines) {
        decomposed_warm(handler, service, instances[l.tmpl], l, ++req,
                        w.kind == Kind::kSolveWarm, traffic, *tr, res);
      }
      (tr == &traced ? rp.traced_pass_us : rp.plain_pass_us)
          .push_back(us_since(t0));
    }
  }
  rp.attributed_us = traced.attributed_us();
  const auto self = traced.self_us();
  auto self_median = [&](const char* name) {
    auto it = self.find(name);
    return it == self.end() ? 0.0 : median(it->second);
  };

  // -- 4. Layer probes ------------------------------------------------------
  const int reps = 5;
  const double task_build_us = median_us(all, reps, [&](const Instance& in) {
    (void)svc::make_canonical_task(in.fields);
  });

  // Memo hits, obs on (the shipped service) vs off, interleaved.
  svc::QueryService obs_off(serve_options(w, "", false));
  std::vector<double> hit_on, hit_off;
  std::uint64_t memo_misses = 0;
  for (const Instance* in : all) {
    service.submit(query_of(*in, default_budget())).result.get();
    obs_off.submit(query_of(*in, default_budget())).result.get();
  }
  for (int r = 0; r < 200; ++r) {
    for (const Instance* in : all) {
      for (svc::QueryService* svc_ptr : {&service, &obs_off}) {
        const std::int64_t t0 = now_ns();
        const svc::QueryResult q =
            svc_ptr->submit(query_of(*in, default_budget())).result.get();
        (svc_ptr == &service ? hit_on : hit_off).push_back(us_since(t0));
        if (!q.memoized) ++memo_misses;
      }
    }
  }
  res.require(memo_misses == 0, "memo probe missed the memo");
  const double memo_hit_us = median(hit_on);
  const double obs_overhead_pct = (memo_hit_us / median(hit_off) - 1.0) * 100;

  // SdsCache hits: one thread, then four on one fingerprint.
  svc::SdsCache& cache = service.cache();
  const double cache_hit_us = median_us(all, 200, [&](const Instance& in) {
    (void)cache.chain_for(in.task->input(), in.max_level);
  });
  std::vector<double> contended;
  {
    const Instance& in = *all.front();
    std::mutex mu;
    std::atomic<bool> go{false};
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
      threads.emplace_back([&] {
        std::vector<double> mine;
        while (!go.load()) {
        }
        for (int b = 0; b < 200; ++b) {
          const std::int64_t t0 = now_ns();
          for (int i = 0; i < 64; ++i) {
            (void)cache.chain_for(in.task->input(), in.max_level);
          }
          mine.push_back(us_since(t0) / 64);
        }
        std::lock_guard<std::mutex> lock(mu);
        contended.insert(contended.end(), mine.begin(), mine.end());
      });
    }
    go = true;
    for (auto& t : threads) t.join();
  }

  // Prop 3.1 search on warm chains, per instance.
  Tracer none(false);
  std::vector<double> root_us, branch_us;
  double nodes = 0.0, branch_nodes = 0.0, branch_total_us = 0.0;
  for (const Instance* in : all) {
    std::vector<double> v;
    std::uint64_t n = 0;
    for (int r = 0; r < reps; ++r) {
      const std::int64_t t0 = now_ns();
      n = solve_levels(*in, cache, none, 0, default_budget()).nodes_explored;
      v.push_back(us_since(t0));
    }
    const double m = median(v);
    nodes += static_cast<double>(n);
    if (n == 0) {
      root_us.push_back(m);
    } else {
      branch_us.push_back(m);
      branch_nodes += static_cast<double>(n);
      branch_total_us += m;
    }
  }

  // Model restriction: the pruning itself and the warm derived-tower hit.
  std::vector<double> restrict_us, derived_us;
  for (int r = 0; r < reps; ++r) {
    for (const Instance* in : modeled) {
      auto chain = cache.chain_for(in->task->input(), in->max_level);
      for (int level = 0; level <= in->max_level; ++level) {
        const std::int64_t t0 = now_ns();
        (void)model::restrict_level(*chain, level, *in->model);
        restrict_us.push_back(us_since(t0));
      }
      const std::uint64_t key =
          model::mix_fingerprint(in->fingerprint, in->model->tag());
      bool built = false;
      const std::int64_t t0 = now_ns();
      (void)cache.derived_chain_for(
          key, in->model->tag(), in->max_level,
          [&](std::shared_ptr<const proto::SdsChain> prior, int depth) {
            return model::restricted_tower(*chain, depth, *in->model, prior);
          },
          &built);
      derived_us.push_back(us_since(t0));
    }
  }

  // Chain build, store publish / load, and first materialization, over the
  // workload's distinct input complexes.
  std::map<std::uint64_t, const Instance*> inputs;
  for (const Instance* in : all) {
    const Instance*& slot = inputs[in->fingerprint];
    if (slot == nullptr || slot->max_level < in->max_level) slot = in;
  }
  std::vector<double> build_us, publish_us, load_us, materialize_us;
  for (int r = 0; r < 3; ++r) {
    const std::string dir = fresh_dir(ctx, "trace-probe-store");
    store::ChainStore writer(store::ChainStore::Options{.dir = dir});
    for (const auto& [fp, in] : inputs) {
      std::int64_t t0 = now_ns();
      proto::SdsChain chain(in->task->input(), in->max_level);
      build_us.push_back(us_since(t0));
      t0 = now_ns();
      writer.publish(fp, chain);
      publish_us.push_back(us_since(t0));
    }
    store::ChainStore reader(store::ChainStore::Options{.dir = dir});
    for (const auto& [fp, in] : inputs) {
      std::int64_t t0 = now_ns();
      auto loaded = reader.load(fp);
      load_us.push_back(us_since(t0));
      if (loaded == nullptr) {
        res.tally.fail(1, "published chain did not load");
        continue;
      }
      t0 = now_ns();
      (void)loaded->level(in->max_level);
      materialize_us.push_back(us_since(t0));
    }
    fallbacks += writer.stats().fallbacks + reader.stats().fallbacks;
  }
  res.require(fallbacks == 0, "chain store fell back (store.fallbacks != 0)");

  // Queue wait and execution time under the workload's open-loop rate.
  service_open_loop(service, instances, traffic, w.distinct_budget,
                    w.open_rate, 0.1 * s, &queue_us, &exec_us, res);
  std::sort(queue_us.begin(), queue_us.end());

  // Spans, written once the run is over.
  {
    std::ofstream out(std::filesystem::path(ctx.work_dir) /
                      ("trace-" + w.name + "-" + std::to_string(ctx.seed) +
                       ".jsonl"));
    traced.write_jsonl(out);
  }
  topo.reset();
  std::filesystem::remove_all(fresh_dir(ctx, "trace-probe-store"));

  res.add("net.roundtrip_us", net_roundtrip_us, "us");
  res.add("net.overhead_us", net_roundtrip_us - memo_hit_us, "us");
  res.add("service.parse_us", self_median("service.parse"), "us");
  res.add("service.render_us", self_median("service.render"), "us");
  res.add("service.task_build_us", task_build_us, "us");
  res.add("service.memo_hit_us", memo_hit_us, "us");
  res.add("service.memo_hit_ratio", memo_ratio, "ratio");
  res.add("service.queue_wait_p99_us", tail_percentile(queue_us, 0.99), "us");
  res.add("service.exec_us", median(exec_us), "us");
  res.add("service.cache_hit_us", cache_hit_us, "us");
  res.add("service.cache_hit_contended_us", median(contended), "us");
  res.add("service.cache_hit_ratio", cache_ratio, "ratio");
  res.add("service.chain_builds", chain_builds, "count");
  res.add("protocol.chain_build_us", median(build_us), "us");
  res.add("protocol.materialize_us", median(materialize_us), "us");
  res.add("store.publish_us", median(publish_us), "us");
  res.add("store.load_us", median(load_us), "us");
  res.add("store.fallbacks", static_cast<double>(fallbacks), "count");
  res.add("tasks.root_refute_us", median(root_us), "us");
  res.add("tasks.branch_us", median(branch_us), "us");
  res.add("tasks.nodes", nodes, "count");
  res.add("tasks.nodes_per_s",
          branch_total_us > 0 ? branch_nodes / (branch_total_us / 1e6) : 0.0,
          "1/s");
  res.add("model.restrict_us", median(restrict_us), "us");
  res.add("model.derived_hit_us", median(derived_us), "us");
  res.add("cluster.hop_us", hop_us, "us");
  res.add("cluster.wasted_frac", wasted_frac, "ratio");
  res.add("cluster.shard_skew", shard_skew, "ratio");
  res.add("obs.overhead_pct", obs_overhead_pct, "%");
  res.add("driver.late_p99_ms", late_p99_ms, "ms");
  res.add("driver.backlog_end", backlog_end, "count");
  res.add("trace.coverage", rp.attributed_us / rp.mono_us, "ratio");
  res.add("trace.overhead_pct",
          (median(rp.traced_pass_us) / median(rp.plain_pass_us) - 1.0) * 100,
          "%");
  return res;
}

}  // namespace perfbench
