// Tests for the wfc::svc query service: thread pool, shared SDS-chain
// cache (hit/extension/eviction semantics, concurrent hammering),
// deadline/cancellation verdicts, determinism of pooled results against
// sequential solve, and the JSON-lines front-end.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "protocol/sds_chain.hpp"
#include "service/frontend.hpp"
#include "service/jsonl.hpp"
#include "service/query_service.hpp"
#include "service/sds_cache.hpp"
#include "service/thread_pool.hpp"
#include "tasks/canonical.hpp"
#include "tasks/solvability.hpp"
#include "topology/complex.hpp"
#include "topology/subdivision.hpp"

namespace wfc::svc {
namespace {

using task::Solvability;
using topo::base_simplex;

// ---------------------------------------------------------------------------
// ThreadPool.
// ---------------------------------------------------------------------------

TEST(ThreadPool, RunsEveryJob) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(4);
    EXPECT_EQ(pool.size(), 4);
    for (int i = 0; i < 200; ++i) {
      pool.submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
    }
  }  // destructor drains
  EXPECT_EQ(count.load(), 200);
}

TEST(ThreadPool, JobsRunConcurrently) {
  ThreadPool pool(2);
  std::atomic<int> in_flight{0};
  std::atomic<int> max_seen{0};
  std::atomic<int> done{0};
  for (int i = 0; i < 8; ++i) {
    pool.submit([&] {
      const int now = in_flight.fetch_add(1) + 1;
      int prev = max_seen.load();
      while (prev < now && !max_seen.compare_exchange_weak(prev, now)) {
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      in_flight.fetch_sub(1);
      done.fetch_add(1);
    });
  }
  while (done.load() < 8) std::this_thread::yield();
  EXPECT_GE(max_seen.load(), 2);
}

TEST(ThreadPool, RejectsEmptyJob) {
  ThreadPool pool(1);
  EXPECT_THROW(pool.submit(nullptr), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// SdsChain sharing (the tentpole's extension mechanism).
// ---------------------------------------------------------------------------

TEST(SdsChainSharing, ExtensionSharesPrefixLevels) {
  proto::SdsChain base(base_simplex(3), 1);
  proto::SdsChain deeper(base, 3);
  ASSERT_EQ(deeper.depth(), 3);
  // Shared levels are the same objects, not copies.
  EXPECT_EQ(&base.level(0), &deeper.level(0));
  EXPECT_EQ(&base.level(1), &deeper.level(1));
  // And the extension really is SDS^2, SDS^3.
  EXPECT_EQ(deeper.level(2).num_vertices(),
            topo::iterated_sds(base_simplex(3), 2).num_vertices());
}

TEST(SdsChainSharing, TruncationSharesLevels) {
  proto::SdsChain deep(base_simplex(3), 2);
  proto::SdsChain shallow(deep, 1);
  ASSERT_EQ(shallow.depth(), 1);
  EXPECT_EQ(&shallow.level(0), &deep.level(0));
  EXPECT_EQ(&shallow.level(1), &deep.level(1));
  EXPECT_EQ(&shallow.top(), &deep.level(1));
}

// ---------------------------------------------------------------------------
// SdsCache.
// ---------------------------------------------------------------------------

TEST(SdsCache, HitExtensionAndMissAccounting) {
  SdsCache cache;
  const topo::ChromaticComplex input = base_simplex(3);

  bool built = false;
  auto c1 = cache.chain_for(input, 1, &built);
  EXPECT_TRUE(built);
  auto c2 = cache.chain_for(input, 1, &built);
  EXPECT_FALSE(built);  // pure hit
  EXPECT_EQ(&c1->level(1), &c2->level(1));

  auto c3 = cache.chain_for(input, 2, &built);
  EXPECT_TRUE(built);  // extension
  EXPECT_EQ(&c3->level(1), &c1->level(1));  // prefix shared

  auto c4 = cache.chain_for(input, 0, &built);
  EXPECT_FALSE(built);  // shallower request on a deeper tower
  EXPECT_GE(c4->depth(), 0);

  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.extensions, 1u);
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_GT(stats.resident_vertices, 0u);
}

TEST(SdsCache, EvictsLeastRecentlyUsed) {
  SdsCache::Options options;
  options.max_entries = 2;
  SdsCache cache(options);
  cache.chain_for(base_simplex(2), 1);
  cache.chain_for(base_simplex(3), 1);
  cache.chain_for(base_simplex(2), 1);  // touch 2 -> LRU order: 2, 3
  cache.chain_for(base_simplex(4), 0);  // evicts base_simplex(3)
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.evictions, 1u);
  // Re-requesting the evicted input is a fresh miss.
  bool built = false;
  cache.chain_for(base_simplex(3), 1, &built);
  EXPECT_TRUE(built);
}

TEST(SdsCache, EvictsOnVertexBudget) {
  SdsCache::Options options;
  options.max_resident_vertices = 10;  // below one SDS tower of s^2
  SdsCache cache(options);
  cache.chain_for(base_simplex(3), 1);
  cache.chain_for(base_simplex(2), 1);
  EXPECT_GE(cache.stats().evictions, 1u);
}

TEST(SdsCache, ConcurrentHammeringSharesOneTower) {
  SdsCache cache;
  const topo::ChromaticComplex input = base_simplex(3);
  constexpr int kThreads = 8;
  constexpr int kIters = 25;

  std::vector<std::thread> threads;
  std::vector<std::vector<const topo::ChromaticComplex*>> tops(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        // Mix of depths (same input) and a second distinct input.
        const int depth = 1 + (i + t) % 2;
        auto chain = cache.chain_for(input, depth);
        tops[t].push_back(&chain->level(1));
        cache.chain_for(base_simplex(2), 1);
      }
    });
  }
  for (std::thread& th : threads) th.join();

  // Every thread saw the SAME level-1 complex object: built once, shared.
  std::set<const topo::ChromaticComplex*> distinct;
  for (const auto& seen : tops) distinct.insert(seen.begin(), seen.end());
  EXPECT_EQ(distinct.size(), 1u);

  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 2u);  // one per distinct input
  EXPECT_LE(stats.extensions, 2u);
  EXPECT_EQ(stats.hits + stats.misses + stats.extensions,
            static_cast<std::uint64_t>(2 * kThreads * kIters));
}

// ---------------------------------------------------------------------------
// Cancellation and deadlines in the solver.
// ---------------------------------------------------------------------------

/// Consensus with a sleep in Delta: a deterministic slow search (allows()
/// is consulted throughout domain construction and propagation).
class SlowConsensus final : public task::Task {
 public:
  SlowConsensus() : inner_(2, 2) {}
  [[nodiscard]] const topo::ChromaticComplex& input() const override {
    return inner_.input();
  }
  [[nodiscard]] const topo::ChromaticComplex& output() const override {
    return inner_.output();
  }
  [[nodiscard]] std::string name() const override { return "slow-consensus"; }
  [[nodiscard]] bool allows(const topo::Simplex& in,
                            const topo::Simplex& out) const override {
    std::this_thread::sleep_for(std::chrono::microseconds(50));
    return inner_.allows(in, out);
  }

 private:
  task::ConsensusTask inner_;
};

TEST(Cancellation, PreFlippedTokenCancelsImmediately) {
  task::ConsensusTask consensus(2, 2);
  std::atomic<bool> cancel{true};
  task::SolveOptions options;
  options.cancel = &cancel;
  const task::SolveResult r = task::solve(consensus, 2, options);
  EXPECT_EQ(r.status, Solvability::kCancelled);
  EXPECT_EQ(r.nodes_explored, 0u);
}

TEST(Cancellation, PastDeadlineCancels) {
  task::ConsensusTask consensus(2, 2);
  task::SolveOptions options;
  options.deadline = std::chrono::steady_clock::now() -
                     std::chrono::milliseconds(1);
  const task::SolveResult r = task::solve(consensus, 2, options);
  EXPECT_EQ(r.status, Solvability::kCancelled);
}

TEST(Cancellation, MidFlightTokenFlipStopsTheSearch) {
  // Level-2 refutation of (3,2)-set consensus is an exhaustive search that
  // takes tens of seconds uninterrupted; the token must stop it mid-flight
  // (it is checked at every backtracking node).
  task::KSetConsensusTask kset(3, 2);
  std::atomic<bool> cancel{false};
  task::SolveOptions options;
  options.cancel = &cancel;

  task::SolveResult result;
  std::thread solver([&] { result = task::solve(kset, 2, options); });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  cancel.store(true);
  solver.join();
  EXPECT_EQ(result.status, Solvability::kCancelled);
  EXPECT_GT(result.nodes_explored, 0u);
}

TEST(Cancellation, StoppedChainBuildLeavesTheCacheUnbuilt) {
  // SDS^2 of consensus(2, 64)'s input is a subdivision of 4,096 edges, far
  // more work than the search that follows it.  A token already flipped
  // stops the build at its first facet: the solve answers kCancelled, the
  // cache counts no build, and the next query builds the tower itself.
  SdsCache cache;
  const task::ConsensusTask consensus(2, 64);
  std::atomic<bool> cancel{true};
  task::SolveOptions options;
  options.cancel = &cancel;
  const topo::StopPredicate stop = task::build_stop(options);
  options.chain_provider = [&cache, &stop](const topo::ChromaticComplex& input,
                                           int depth) {
    bool built = false;
    return cache.chain_for(input, depth, &built, obs::TraceContext(), stop);
  };
  const task::SolveResult stopped = task::solve_at_level(consensus, 2, options);
  EXPECT_EQ(stopped.status, Solvability::kCancelled);
  EXPECT_EQ(stopped.nodes_explored, 0u);
  EXPECT_EQ(cache.stats().chain_builds(), 0u);
  EXPECT_EQ(cache.stats().resident_vertices, 0u);

  cancel.store(false);
  const task::SolveResult later = task::solve_at_level(consensus, 2, options);
  EXPECT_EQ(later.status, Solvability::kUnsolvable);
  EXPECT_EQ(cache.stats().chain_builds(), 1u);
  bool built = true;
  EXPECT_EQ(cache.chain_for(consensus.input(), 2, &built)->depth(), 2);
  EXPECT_FALSE(built);

  // Without a provider the solve's private build polls the same token.
  cancel.store(true);
  options.chain_provider = nullptr;
  EXPECT_EQ(task::solve_at_level(consensus, 2, options).status,
            Solvability::kCancelled);
}

TEST(Cancellation, ServiceTimeoutYieldsDeadlineExceeded) {
  QueryService service;
  QueryOptions options;
  options.timeout = std::chrono::milliseconds(0);
  auto ticket =
      service.submit(Query::solve(std::make_shared<SlowConsensus>(), options));
  const QueryResult r = ticket.result.get();
  EXPECT_EQ(r.status, Status::kDeadlineExceeded);
  EXPECT_EQ(r.solve.status, Solvability::kCancelled);
  EXPECT_EQ(service.stats().cancelled(), 1u);
  EXPECT_EQ(service.stats().count(Status::kDeadlineExceeded), 1u);
}

TEST(Cancellation, TicketTokenCancelsAQueuedQuery) {
  QueryService::Options options;
  options.workers = 1;
  QueryService service(options);
  // Occupy the single worker, then cancel a queued query before it runs.
  auto blocker = service.submit(Query::solve(std::make_shared<SlowConsensus>()));
  auto queued = service.submit(Query::solve(std::make_shared<SlowConsensus>()));
  queued.cancel->store(true);
  const QueryResult r = queued.result.get();
  EXPECT_EQ(r.status, Status::kCancelled);
  EXPECT_EQ(r.solve.status, Solvability::kCancelled);
  blocker.cancel->store(true);
  blocker.result.get();
}

TEST(Cancellation, CancelAllStopsEverything) {
  QueryService::Options options;
  options.workers = 2;
  QueryService service(options);
  std::vector<QueryTicket> tickets;
  for (int i = 0; i < 6; ++i) {
    tickets.push_back(service.submit(Query::solve(std::make_shared<SlowConsensus>())));
  }
  service.cancel_all();
  for (QueryTicket& t : tickets) {
    EXPECT_EQ(t.result.get().solve.status, Solvability::kCancelled);
  }
}

// ---------------------------------------------------------------------------
// Determinism: pooled results match sequential solve.
// ---------------------------------------------------------------------------

TEST(Determinism, PoolMatchesSequentialOnCanonicalSuite) {
  // Per-case levels keep each search cheap (kset(3,2) at level 2 is an
  // hours-of-CPU refutation; level 1 suffices to exercise a 3-proc search).
  // Factories build a FRESH instance per submission: the result memo (keyed
  // on object identity) never fires, so every query exercises the chain
  // cache plus a real search.
  using Factory = std::function<std::shared_ptr<task::Task>()>;
  std::vector<std::pair<Factory, int>> suite;
  suite.emplace_back([] { return std::make_shared<task::ConsensusTask>(2, 2); },
                     2);
  suite.emplace_back(
      [] { return std::make_shared<task::KSetConsensusTask>(3, 2); }, 1);
  suite.emplace_back([] { return std::make_shared<task::RenamingTask>(2, 2); },
                     2);
  suite.emplace_back(
      [] { return std::make_shared<task::ApproxAgreementTask>(2, 3); }, 2);
  suite.emplace_back(
      [] { return std::make_shared<task::IdentityTask>(base_simplex(3)); }, 1);

  std::vector<task::SolveResult> sequential;
  for (const auto& [make, max_level] : suite) {
    sequential.push_back(task::solve(*make(), max_level));
  }

  QueryService::Options options;
  options.workers = 4;
  QueryService service(options);
  // Submit the whole suite several times concurrently: results must be
  // bit-identical to the sequential run every time.
  std::vector<std::pair<std::size_t, QueryTicket>> tickets;
  for (int round = 0; round < 3; ++round) {
    for (std::size_t i = 0; i < suite.size(); ++i) {
      QueryOptions qopts;
      qopts.max_level = suite[i].second;
      tickets.emplace_back(i, service.submit(Query::solve(suite[i].first(), qopts)));
    }
  }
  for (auto& [i, ticket] : tickets) {
    const QueryResult r = ticket.result.get();
    ASSERT_TRUE(r.error.empty()) << r.error;
    EXPECT_EQ(r.solve.status, sequential[i].status);
    EXPECT_EQ(r.solve.level, sequential[i].level);
    EXPECT_EQ(r.solve.decision, sequential[i].decision);
    EXPECT_EQ(r.solve.nodes_explored, sequential[i].nodes_explored);
  }
  // The suite repeats over the same input complexes, so the chain cache
  // must be doing real sharing; no query was answered from the memo.
  const ServiceStats stats = service.stats();
  EXPECT_GT(stats.cache.hits, 0u);
  EXPECT_EQ(stats.result_hits, 0u);
  EXPECT_EQ(stats.errors(), 0u);
  EXPECT_TRUE(stats.reconciles());
}

TEST(Determinism, ResultMemoReplaysDefinitiveVerdicts) {
  QueryService::Options options;
  options.workers = 1;
  QueryService service(options);
  auto consensus = std::make_shared<task::ConsensusTask>(2, 2);

  const QueryResult first = service.submit(Query::solve(consensus)).result.get();
  ASSERT_TRUE(first.error.empty());
  EXPECT_FALSE(first.memoized);

  const QueryResult second = service.submit(Query::solve(consensus)).result.get();
  EXPECT_TRUE(second.memoized);
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(second.solve.status, first.solve.status);
  EXPECT_EQ(second.solve.level, first.solve.level);
  EXPECT_EQ(second.solve.decision, first.solve.decision);
  EXPECT_EQ(second.solve.nodes_explored, first.solve.nodes_explored);
  EXPECT_EQ(service.stats().result_hits, 1u);

  // A different max_level is a different question: no replay.
  QueryOptions qopts;
  qopts.max_level = 1;
  const QueryResult other = service.submit(Query::solve(consensus, qopts)).result.get();
  EXPECT_FALSE(other.memoized);

  // A fresh instance of the same task is a different key too (the memo is
  // identity-based precisely because Delta cannot be fingerprinted cheaply).
  const QueryResult fresh =
      service.submit(Query::solve(std::make_shared<task::ConsensusTask>(2, 2)))
          .result.get();
  EXPECT_FALSE(fresh.memoized);
  EXPECT_TRUE(fresh.cache_hit);  // ...but its chains all come from the cache
}

TEST(Determinism, ProviderChainIsTruncatedToWitnessLevel) {
  // A provider may hand back a deeper tower; the solvable result must still
  // carry a chain with depth == level (DecisionProtocol's invariant).
  SdsCache cache;
  task::ApproxAgreementTask approx(2, 3);  // solvable at level 1
  task::SolveOptions options;
  options.chain_provider = [&cache](const topo::ChromaticComplex& input,
                                    int depth) {
    return cache.chain_for(input, std::max(depth, 3));  // always deep
  };
  const task::SolveResult r = task::solve(approx, 2, options);
  ASSERT_EQ(r.status, Solvability::kSolvable);
  EXPECT_EQ(r.level, 1);
  ASSERT_NE(r.chain, nullptr);
  EXPECT_EQ(r.chain->depth(), 1);
  EXPECT_EQ(r.decision.size(), r.chain->top().num_vertices());
}

// ---------------------------------------------------------------------------
// JSON-lines front-end.
// ---------------------------------------------------------------------------

TEST(Jsonl, ParsesFlatObjects) {
  const auto fields = parse_flat_json(
      R"({"task":"consensus","procs":2,"deadline":1.5,"ok":true,"s":"a\"b"})");
  EXPECT_EQ(fields.at("task"), "consensus");
  EXPECT_EQ(fields.at("procs"), "2");
  EXPECT_EQ(fields.at("deadline"), "1.5");
  EXPECT_EQ(fields.at("ok"), "true");
  EXPECT_EQ(fields.at("s"), "a\"b");
  EXPECT_TRUE(parse_flat_json("{}").empty());
  EXPECT_TRUE(parse_flat_json("  { }  ").empty());
}

TEST(Jsonl, RejectsMalformedInput) {
  EXPECT_THROW(parse_flat_json(""), std::invalid_argument);
  EXPECT_THROW(parse_flat_json("{"), std::invalid_argument);
  EXPECT_THROW(parse_flat_json(R"({"a":1)"), std::invalid_argument);
  EXPECT_THROW(parse_flat_json(R"({"a":})"), std::invalid_argument);
  EXPECT_THROW(parse_flat_json(R"({"a":[1]})"), std::invalid_argument);
  EXPECT_THROW(parse_flat_json(R"({"a":1} x)"), std::invalid_argument);
  EXPECT_THROW(parse_flat_json(R"({"a":1e5})"), std::invalid_argument);
}

TEST(Jsonl, WriterEscapes) {
  const std::string line = JsonWriter()
                               .field("status", "SOLVABLE")
                               .field("level", 1)
                               .field("cache_hit", true)
                               .field("msg", "a\"b\nc")
                               .str();
  EXPECT_EQ(line,
            R"({"status":"SOLVABLE","level":1,"cache_hit":true,)"
            R"("msg":"a\"b\nc"})");
  // Round trip through the parser.
  const auto fields = parse_flat_json(line);
  EXPECT_EQ(fields.at("msg"), "a\"b\nc");
}

TEST(Frontend, MakeCanonicalTaskCoversEveryKind) {
  using Fields = std::map<std::string, std::string>;
  EXPECT_EQ(make_canonical_task(
                Fields{{"task", "consensus"}, {"procs", "2"}, {"values", "2"}})
                ->name(),
            "consensus(n=2,m=2)");
  EXPECT_NE(make_canonical_task(
                Fields{{"task", "set-consensus"}, {"procs", "3"}, {"k", "2"}}),
            nullptr);
  EXPECT_NE(make_canonical_task(
                Fields{{"task", "renaming"}, {"procs", "2"}, {"names", "2"}}),
            nullptr);
  EXPECT_NE(make_canonical_task(
                Fields{{"task", "approx"}, {"procs", "2"}, {"grid", "3"}}),
            nullptr);
  EXPECT_NE(make_canonical_task(Fields{{"task", "simplex-agreement"},
                                       {"procs", "2"},
                                       {"depth", "1"}}),
            nullptr);
  EXPECT_NE(make_canonical_task(Fields{{"task", "identity"}, {"procs", "3"}}),
            nullptr);
  EXPECT_THROW(make_canonical_task(Fields{{"task", "nope"}, {"procs", "2"}}),
               std::invalid_argument);
  EXPECT_THROW(make_canonical_task(Fields{{"task", "consensus"}}),
               std::invalid_argument);
}

TEST(Frontend, InternedTaskTableIsBounded) {
  QueryService::Options options;
  options.workers = 1;
  QueryService service(options);
  HandlerConfig config;
  config.max_interned_tasks = 8;
  RequestHandler handler(service, config);
  // 64 distinct task parameterizations.  "max_level":0 keeps each solve to
  // the level-0 search over I itself, so the test measures interning, not
  // solving ("budget" bounds search nodes, not the per-level table build).
  for (int i = 0; i < 64; ++i) {
    RequestHandler::ParsedLine parsed = handler.parse(
        R"({"op":"solve","task":"consensus","procs":2,"max_level":0,"values":)" +
            std::to_string(2 + i) + "}",
        i + 1);
    ASSERT_EQ(parsed.action, RequestHandler::Action::kSubmit);
    RequestHandler::Rendered error;
    std::optional<RequestHandler::Submitted> submitted =
        handler.submit(parsed, &error);
    ASSERT_TRUE(submitted.has_value()) << error.line;
    (void)submitted->ticket.result.get();
    EXPECT_LE(handler.interned_tasks(), 8u);
  }
  EXPECT_EQ(handler.interned_tasks(), 8u);
  // A repeated request re-interns to the SAME object (LRU hit), keeping
  // result-memo identity across lines.
  RequestHandler::ParsedLine again = handler.parse(
      R"({"op":"solve","task":"consensus","procs":2,"max_level":0,"values":65})",
      65);
  RequestHandler::Rendered error;
  std::optional<RequestHandler::Submitted> submitted =
      handler.submit(again, &error);
  ASSERT_TRUE(submitted.has_value()) << error.line;
  (void)submitted->ticket.result.get();
  EXPECT_EQ(handler.interned_tasks(), 8u);
}

TEST(Frontend, DepthFieldOverTheCapIsRejected) {
  QueryService::Options options;
  options.workers = 1;
  QueryService service(options);
  HandlerConfig config;
  config.max_task_depth = 3;
  RequestHandler handler(service, config);
  RequestHandler::ParsedLine deep = handler.parse(
      R"({"op":"solve","task":"simplex-agreement","procs":2,"depth":4})", 1);
  ASSERT_EQ(deep.action, RequestHandler::Action::kSubmit);
  RequestHandler::Rendered error;
  EXPECT_FALSE(handler.submit(deep, &error).has_value());
  EXPECT_NE(error.line.find("invalid_argument"), std::string::npos);
  EXPECT_NE(error.line.find("depth"), std::string::npos);
}

// ---------------------------------------------------------------------------
// kCheck queries (the wfc::chk model checker behind the service surface).
// ---------------------------------------------------------------------------

TEST(CheckQueries, SdsTargetReportsScheduleCounts) {
  QueryService::Options options;
  options.workers = 1;
  QueryService service(options);
  CheckRequest check;
  check.target = CheckRequest::Target::kSds;
  check.procs = 3;
  check.rounds = 1;
  const QueryResult r = service.submit(Query::check(check)).result.get();
  ASSERT_TRUE(r.error.empty()) << r.error;
  EXPECT_TRUE(r.is_check);
  EXPECT_TRUE(r.check_ok) << r.check_violation;
  EXPECT_EQ(r.check_schedules, 13u);  // Fubini(3)
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.check.runs, 1u);
  EXPECT_EQ(stats.check.schedules, 13u);
  EXPECT_EQ(stats.check.violations, 0u);
}

TEST(CheckQueries, EmulationTargetSurvivesCrashInjection) {
  QueryService service;
  CheckRequest check;
  check.target = CheckRequest::Target::kEmulation;
  check.procs = 2;
  check.rounds = 2;
  check.crashes = 1;
  check.shots = 1;
  const QueryResult r = service.submit(Query::check(check)).result.get();
  ASSERT_TRUE(r.error.empty()) << r.error;
  EXPECT_TRUE(r.check_ok) << r.check_violation;
  EXPECT_GT(r.check_histories, 0u);
  EXPECT_GT(r.check_max_depth, 0u);
}

TEST(CheckQueries, LinearizabilityTargetExploresInterleavings) {
  QueryService service;
  CheckRequest check;
  check.target = CheckRequest::Target::kLinearizability;
  check.procs = 2;
  check.rounds = 1;
  const QueryResult r = service.submit(Query::check(check)).result.get();
  ASSERT_TRUE(r.error.empty()) << r.error;
  EXPECT_TRUE(r.check_ok) << r.check_violation;
  EXPECT_GT(r.check_schedules, 1u);
  EXPECT_GT(r.check_max_depth, 0u);
  EXPECT_GT(service.stats().check.max_search_depth, 0u);
}

TEST(CheckQueries, BadParametersSurfaceAsErrors) {
  QueryService service;
  CheckRequest check;
  check.target = CheckRequest::Target::kLinearizability;
  check.procs = 7;  // out of the supported range
  const QueryResult r = service.submit(Query::check(check)).result.get();
  EXPECT_FALSE(r.error.empty());
  EXPECT_EQ(r.status, Status::kInvalidArgument);
  EXPECT_EQ(service.stats().errors(), 1u);
}

// ---------------------------------------------------------------------------
// Seeded randomized stress: a reproducible mixed workload.
// ---------------------------------------------------------------------------

TEST(RandomizedStress, MixedWorkloadIsDeterministicUnderSeed) {
  // The seed is logged (and overridable via WFC_TEST_SEED) so a failing mix
  // can be replayed exactly.
  Rng rng(logged_test_seed("service_test", 0x5EED));
  QueryService::Options options;
  options.workers = 2;
  QueryService service(options);

  std::vector<std::pair<Solvability, QueryTicket>> tickets;
  for (int i = 0; i < 12; ++i) {
    switch (rng.below(3)) {
      case 0:
        tickets.emplace_back(
            Solvability::kUnsolvable,
            service.submit(Query::solve(
                std::make_shared<task::ConsensusTask>(2, 2))));
        break;
      case 1:
        tickets.emplace_back(
            Solvability::kSolvable,
            service.submit(Query::solve(
                std::make_shared<task::ApproxAgreementTask>(
                    2, rng.between(2, 4)))));
        break;
      default: {
        CheckRequest check;
        check.target = CheckRequest::Target::kSds;
        check.procs = rng.between(2, 3);
        check.rounds = 1;
        check.crashes = rng.between(0, 1);
        tickets.emplace_back(Solvability::kSolvable,
                             service.submit(Query::check(check)));
        break;
      }
    }
  }
  for (auto& [expected, ticket] : tickets) {
    const QueryResult r = ticket.result.get();
    ASSERT_TRUE(r.error.empty()) << r.error;
    EXPECT_EQ(r.solve.status, expected);
    if (r.is_check) {
      EXPECT_TRUE(r.check_ok) << r.check_violation;
    }
  }
  EXPECT_EQ(service.stats().errors(), 0u);
}

TEST(Frontend, RejectsUnknownOpPerLine) {
  std::istringstream in(
      R"({"id":"good","task":"approx","procs":2,"grid":3})" "\n"
      R"({"id":"bad","op":"frobnicate","task":"consensus"})" "\n"
      R"({"op":"solve","id":"after","task":"approx","procs":2,"grid":3})"
      "\n");
  std::ostringstream out, err;
  ServeConfig config;
  config.service.workers = 1;
  config.stats_at_eof = false;
  const int errors = run_jsonl_server(in, out, err, config);
  EXPECT_EQ(errors, 1);

  std::vector<std::string> lines;
  std::istringstream result(out.str());
  for (std::string line; std::getline(result, line);) lines.push_back(line);
  ASSERT_EQ(lines.size(), 3u);
  // The unknown op is reported on its own line, in order, echoing the id
  // and op so the client can tell a typo from a missing field.
  EXPECT_NE(lines[1].find("\"id\":\"bad\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"op\":\"frobnicate\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"status\":\"invalid_argument\""),
            std::string::npos);
  EXPECT_NE(lines[1].find("\"line\":2"), std::string::npos);
  EXPECT_NE(lines[1].find("unknown op \\\"frobnicate\\\""),
            std::string::npos);
  // Lines before and after still execute normally.
  EXPECT_NE(lines[0].find("\"verdict\":\"SOLVABLE\""), std::string::npos);
  EXPECT_NE(lines[2].find("\"verdict\":\"SOLVABLE\""), std::string::npos);
}

TEST(Frontend, ServesCheckOps) {
  std::istringstream in(
      R"({"id":"c1","op":"check","target":"sds","procs":2,"rounds":2})" "\n"
      R"({"id":"c2","op":"check","target":"emulation","procs":2,"rounds":1,"crashes":1})"
      "\n"
      R"({"id":"c3","op":"check","target":"bogus"})" "\n"
      R"({"op":"stats"})" "\n");
  std::ostringstream out, err;
  ServeConfig config;
  config.service.workers = 1;
  config.stats_at_eof = false;
  const int errors = run_jsonl_server(in, out, err, config);
  EXPECT_EQ(errors, 1);  // the bogus target

  std::vector<std::string> lines;
  std::istringstream result(out.str());
  for (std::string line; std::getline(result, line);) lines.push_back(line);
  ASSERT_EQ(lines.size(), 4u);
  EXPECT_NE(lines[0].find("\"id\":\"c1\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"verdict\":\"OK\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"schedules\":9"), std::string::npos);  // 3^2
  EXPECT_NE(lines[1].find("\"id\":\"c2\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"verdict\":\"OK\""), std::string::npos);
  EXPECT_NE(lines[2].find("unknown check target"), std::string::npos);
  EXPECT_NE(lines[3].find("check runs=2"), std::string::npos);
}

TEST(Frontend, ServesABatchInOrder) {
  std::istringstream in(
      "# comment\n"
      "\n"
      R"({"id":"q1","task":"consensus","procs":2,"values":2})" "\n"
      R"({"id":"q2","task":"approx","procs":2,"grid":3})" "\n"
      R"({"id":"q3","task":"approx","procs":2,"grid":3})" "\n"
      R"({"nonsense":true})" "\n"
      R"({"op":"emulate","procs":2,"shots":1})" "\n"
      R"({"op":"stats"})" "\n");
  std::ostringstream out, err;
  ServeConfig config;
  config.service.workers = 2;
  config.stats_at_eof = false;
  const int errors = run_jsonl_server(in, out, err, config);
  EXPECT_EQ(errors, 1);

  std::vector<std::string> lines;
  std::istringstream result(out.str());
  for (std::string line; std::getline(result, line);) lines.push_back(line);
  ASSERT_EQ(lines.size(), 6u);

  EXPECT_NE(lines[0].find("\"id\":\"q1\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"verdict\":\"UNSOLVABLE\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"id\":\"q2\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"verdict\":\"SOLVABLE\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"level\":1"), std::string::npos);
  // q3 repeats q2: the shared cache makes it a pure hit.
  EXPECT_NE(lines[2].find("\"cache_hit\":true"), std::string::npos);
  // The malformed line answers with the taxonomy token and its 1-based
  // input line number (the batch has a comment and a blank line first).
  EXPECT_NE(lines[3].find("\"status\":\"invalid_argument\""),
            std::string::npos);
  EXPECT_NE(lines[3].find("\"line\":6"), std::string::npos);
  EXPECT_NE(lines[4].find("\"rounds\""), std::string::npos);
  EXPECT_NE(lines[5].find("cache hits="), std::string::npos);
}

}  // namespace
}  // namespace wfc::svc
