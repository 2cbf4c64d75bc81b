// topo::Arena -- the data-oriented SoA core behind the PR-9 solver and the
// persistent chain store.  Three contracts are pinned here:
//
//   1. Round-trip fidelity: Arena::build(K).materialize() reproduces K up
//      to canonical fingerprint (same vertices/colors/carriers/facets in
//      the same order), and view(bytes) over a materialized blob is
//      byte-identical to the builder's output.
//   2. Blob validation: view() rejects truncation, bad magic, version
//      skew, and corrupted CSR tables with std::invalid_argument instead
//      of serving out-of-bounds spans.
//   3. Engine equivalence: the arena search explores the IDENTICAL tree as
//      the legacy ChromaticComplex search -- same verdicts, same decision
//      maps, same nodes_explored, level by level, across the canonical
//      task families.  (Same discipline as chain_reuse_test: any
//      divergence in the exact node count means the rewrite changed the
//      search, not just its memory layout.)
//
// The arena engine builds only the Delta tables the search reads: domain
// rows once per (carrier class, color), pair rows on first read.  A
// counting Task decorator pins how many `allows` calls that costs, and
// that a cancelled search pays for none of it.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "model/model.hpp"
#include "model/solve.hpp"
#include "tasks/canonical.hpp"
#include "tasks/solvability.hpp"
#include "topology/arena.hpp"
#include "topology/complex.hpp"
#include "topology/hash.hpp"
#include "topology/subdivision.hpp"

namespace wfc::topo {
namespace {

ChromaticComplex sds_tower(int procs, int depth) {
  ChromaticComplex k = base_simplex(procs);
  for (int r = 0; r < depth; ++r) k = standard_chromatic_subdivision(k);
  return k;
}

TEST(Arena, RoundTripPreservesFingerprint) {
  for (int procs = 1; procs <= 3; ++procs) {
    for (int depth = 0; depth <= 2; ++depth) {
      if (procs == 3 && depth > 1) continue;  // keep the suite fast
      SCOPED_TRACE("procs=" + std::to_string(procs) +
                   " depth=" + std::to_string(depth));
      const ChromaticComplex k = sds_tower(procs, depth);
      const Arena a = Arena::build(k);
      ASSERT_TRUE(a.valid());
      EXPECT_EQ(a.num_vertices(), k.num_vertices());
      EXPECT_EQ(a.num_facets(), k.facets().size());
      const ChromaticComplex back = a.materialize();
      EXPECT_EQ(complex_fingerprint(back), complex_fingerprint(k));
    }
  }
}

TEST(Arena, PerVertexDataMatchesComplex) {
  const ChromaticComplex k = sds_tower(2, 2);
  const Arena a = Arena::build(k);
  for (VertexId v = 0; v < k.num_vertices(); ++v) {
    const VertexData& data = k.vertex(v);
    EXPECT_EQ(a.colors()[v], static_cast<std::uint8_t>(data.color));
    EXPECT_EQ(a.carrier_masks()[v], data.carrier.mask());
    EXPECT_EQ(a.key(v), data.key);
    const auto bc = a.base_carrier(v);
    ASSERT_EQ(bc.size(), data.base_carrier.size());
    for (std::size_t i = 0; i < bc.size(); ++i) {
      EXPECT_EQ(bc[i], data.base_carrier[i]);
    }
  }
  ASSERT_EQ(a.num_facets(), k.facets().size());
  for (std::uint32_t f = 0; f < a.num_facets(); ++f) {
    const auto fa = a.facet(f);
    const Simplex& fk = k.facets()[f];
    ASSERT_EQ(fa.size(), fk.size());
    for (std::size_t i = 0; i < fa.size(); ++i) EXPECT_EQ(fa[i], fk[i]);
  }
}

TEST(Arena, ViewOverMaterializedBlobIsIdentical) {
  const ChromaticComplex k = sds_tower(2, 1);
  const Arena a = Arena::build(k);
  const auto bytes = a.bytes();
  auto copy = std::make_shared<std::vector<std::byte>>(bytes.begin(),
                                                       bytes.end());
  const Arena v = Arena::view({copy->data(), copy->size()}, copy);
  ASSERT_TRUE(v.valid());
  EXPECT_EQ(v.num_vertices(), a.num_vertices());
  EXPECT_EQ(complex_fingerprint(v.materialize()), complex_fingerprint(k));
}

TEST(Arena, ViewRejectsMalformedBlobs) {
  const ChromaticComplex k = sds_tower(2, 1);
  const Arena a = Arena::build(k);
  const auto bytes = a.bytes();
  auto blob = std::make_shared<std::vector<std::byte>>(bytes.begin(),
                                                       bytes.end());

  // Truncation: every prefix strictly shorter than the blob must throw.
  for (std::size_t cut : {std::size_t{0}, std::size_t{8},
                          blob->size() / 2, blob->size() - 1}) {
    EXPECT_THROW(Arena::view({blob->data(), cut}, blob),
                 std::invalid_argument)
        << "cut=" << cut;
  }

  // Bad magic.
  {
    auto bad = std::make_shared<std::vector<std::byte>>(*blob);
    (*bad)[0] = std::byte{0xff};
    EXPECT_THROW(Arena::view({bad->data(), bad->size()}, bad),
                 std::invalid_argument);
  }
  // Version skew.
  {
    auto bad = std::make_shared<std::vector<std::byte>>(*blob);
    const std::uint32_t future = kArenaVersion + 1;
    std::memcpy(bad->data() + sizeof(std::uint32_t), &future,
                sizeof(future));
    EXPECT_THROW(Arena::view({bad->data(), bad->size()}, bad),
                 std::invalid_argument);
  }
  // Corrupted header counts (vertex count inflated past every table).
  {
    auto bad = std::make_shared<std::vector<std::byte>>(*blob);
    ArenaHeader h;
    std::memcpy(&h, bad->data(), sizeof(h));
    h.n_vertices *= 1000;
    std::memcpy(bad->data(), &h, sizeof(h));
    EXPECT_THROW(Arena::view({bad->data(), bad->size()}, bad),
                 std::invalid_argument);
  }
}

}  // namespace
}  // namespace wfc::topo

namespace wfc::task {
namespace {

struct Case {
  std::shared_ptr<Task> task;
  int max_level;
};

/// The canonical families plus every instance the solve_warm serving
/// workload sends (perfbench/cpp/workloads.cpp), each up to its level.
std::vector<Case> canonical_cases() {
  std::vector<Case> cases;
  for (int m = 2; m <= 12; ++m) {
    cases.push_back({std::make_shared<ConsensusTask>(2, m), 2});
  }
  cases.push_back({std::make_shared<ConsensusTask>(3, 2), 1});
  cases.push_back({std::make_shared<ConsensusTask>(3, 3), 1});
  cases.push_back({std::make_shared<KSetConsensusTask>(2, 1), 2});
  cases.push_back({std::make_shared<KSetConsensusTask>(3, 2), 1});
  cases.push_back({std::make_shared<KSetConsensusTask>(3, 3), 1});
  cases.push_back({std::make_shared<RenamingTask>(2, 2), 2});
  cases.push_back({std::make_shared<RenamingTask>(2, 3), 2});
  cases.push_back({std::make_shared<RenamingTask>(2, 5), 2});
  cases.push_back({std::make_shared<RenamingTask>(3, 4), 1});
  cases.push_back({std::make_shared<RenamingTask>(3, 6), 1});
  for (int g : {3, 4, 6, 8, 9, 12}) {
    cases.push_back({std::make_shared<ApproxAgreementTask>(2, g), 2});
  }
  cases.push_back({std::make_shared<ApproxAgreementTask>(3, 2), 1});
  cases.push_back({std::make_shared<ApproxAgreementTask>(3, 3), 2});
  cases.push_back({std::make_shared<ApproxAgreementTask>(3, 4), 2});
  cases.push_back({std::make_shared<IdentityTask>(topo::base_simplex(3)), 1});
  cases.push_back({std::make_shared<SimplexAgreementTask>(
                       2, topo::iterated_sds(topo::base_simplex(2), 2)),
                   2});
  return cases;
}

void expect_engines_agree(const Task& task, int level,
                          const SolveOptions& base) {
  SolveOptions arena_opts = base;
  arena_opts.engine = SolveEngine::kArena;
  SolveOptions legacy_opts = base;
  legacy_opts.engine = SolveEngine::kLegacy;
  const SolveResult a = solve_at_level(task, level, arena_opts);
  const SolveResult l = solve_at_level(task, level, legacy_opts);
  EXPECT_EQ(a.status, l.status);
  EXPECT_EQ(a.level, l.level);
  EXPECT_EQ(a.nodes_explored, l.nodes_explored)
      << "engines explored different trees";
  EXPECT_EQ(a.decision, l.decision);
}

TEST(ArenaSearch, MatchesLegacyEngineExactly) {
  for (const Case& c : canonical_cases()) {
    SCOPED_TRACE(c.task->name());
    for (int level = 0; level <= c.max_level; ++level) {
      SCOPED_TRACE("level=" + std::to_string(level));
      expect_engines_agree(*c.task, level, SolveOptions{});
    }
  }
  // Restricted levels renumber vertices and drop faces, so carrier classes
  // and pair rows are built over a different face table than the full level.
  SolveOptions restricted;
  restricted.restrictor =
      model::make_restrictor(model::Model::parse("t_resilient(1)"));
  const std::vector<Case> model_cases = {
      {std::make_shared<KSetConsensusTask>(3, 2), 1},
      {std::make_shared<RenamingTask>(3, 5), 1},
      {std::make_shared<ConsensusTask>(2, 3), 2},
  };
  for (const Case& c : model_cases) {
    SCOPED_TRACE(c.task->name() + " t_resilient(1)");
    for (int level = 0; level <= c.max_level; ++level) {
      SCOPED_TRACE("level=" + std::to_string(level));
      expect_engines_agree(*c.task, level, restricted);
    }
  }
}

/// Forwards to a task and counts its `allows` calls.
class CountingTask final : public Task {
 public:
  explicit CountingTask(const Task& inner) : inner_(&inner) {}
  const topo::ChromaticComplex& input() const override {
    return inner_->input();
  }
  const topo::ChromaticComplex& output() const override {
    return inner_->output();
  }
  std::string name() const override { return inner_->name(); }
  bool allows(const topo::Simplex& in,
              const topo::Simplex& out) const override {
    ++calls_;
    return inner_->allows(in, out);
  }
  std::uint64_t calls() const { return calls_; }

 private:
  const Task* inner_;
  mutable std::uint64_t calls_ = 0;
};

TEST(ArenaSearch, AllowsCallsFollowWhatTheSearchReads) {
  // consensus(2, m=12) at level 2.  I has 2m = 24 vertices and m^2 = 144
  // edges; SDS^2 subdivides each edge into 9, so the arena has
  // 24 + 8 * 144 = 1176 vertices and 9 * 144 = 1296 edge faces.
  //
  //   domains: one row per (carrier class, color), m calls each --
  //            24 vertex carriers x 1 color + 144 edge carriers x 2 colors
  //            = 312 rows, 312 * 12 = 3744 calls (one per vertex would be
  //            1176 * 12 = 14112);
  //   pairs:   rows are filled only when root AC-3 reads them, and it
  //            wipes out (no branching, zero nodes) once it has walked the
  //            m edge carriers {(0,x), (1,m-1)}: their domains hold values
  //            x and m-1, output vertex (p, v) is compatible only with
  //            (1-p, v), and the second row of a symmetric pair is read
  //            off the first, so a carrier costs one call per value --
  //            2 for each x != m-1 and 1 for x = m-1, = 2m - 1 = 23 calls
  //            (filling every row of every class would be
  //            144 * (24 + 12) = 5184 calls, diagonal included).
  const ConsensusTask consensus(2, 12);
  const CountingTask counting(consensus);
  const SolveResult r = solve_at_level(counting, 2);
  EXPECT_EQ(r.status, Solvability::kUnsolvable);
  EXPECT_EQ(r.nodes_explored, 0u);
  EXPECT_EQ(counting.calls(), 3744u + 23u);
}

TEST(ArenaSearch, CancelledSearchBuildsNoTables) {
  const ConsensusTask consensus(2, 12);
  const CountingTask counting(consensus);
  const std::atomic<bool> cancel{true};
  SolveOptions options;
  options.cancel = &cancel;
  const SolveResult r = solve_at_level(counting, 2, options);
  EXPECT_EQ(r.status, Solvability::kCancelled);
  EXPECT_EQ(r.nodes_explored, 0u);
  EXPECT_LE(counting.calls(), 4u);

  // A deadline already in the past is the same interrupt.
  const CountingTask late(consensus);
  SolveOptions expired;
  expired.deadline = std::chrono::steady_clock::now();
  const SolveResult d = solve_at_level(late, 2, expired);
  EXPECT_EQ(d.status, Solvability::kCancelled);
  EXPECT_EQ(d.nodes_explored, 0u);
  EXPECT_LE(late.calls(), 4u);
}

TEST(ArenaSearch, MatchesLegacyUnderBudgetExhaustion) {
  // Budgets that cut both searches off mid-tree: the kUnknown verdict AND
  // the exact node count at which it triggers must agree, so the two
  // engines visit the same nodes in the same order, not merely the same
  // number of them.  The instances are the deepest solve_warm searches.
  struct BudgetCase {
    std::shared_ptr<Task> task;
    int level;
    std::uint64_t full_nodes;  // the uncut search at this level alone
  };
  const std::vector<BudgetCase> cases = {
      {std::make_shared<KSetConsensusTask>(3, 2), 1, 1281},
      {std::make_shared<ApproxAgreementTask>(3, 3), 2, 678},
      {std::make_shared<ApproxAgreementTask>(3, 2), 1, 54},
  };
  for (const BudgetCase& c : cases) {
    SCOPED_TRACE(c.task->name() + " level=" + std::to_string(c.level));
    SolveOptions uncut;
    EXPECT_EQ(solve_at_level(*c.task, c.level, uncut).nodes_explored,
              c.full_nodes);
    for (const std::uint64_t budget : std::initializer_list<std::uint64_t>{
             1, 53, 100, 677, c.full_nodes - 1}) {
      if (budget >= c.full_nodes) continue;
      SCOPED_TRACE("budget=" + std::to_string(budget));
      SolveOptions cut;
      cut.node_budget = budget;
      const SolveResult a = solve_at_level(*c.task, c.level, cut);
      EXPECT_EQ(a.status, Solvability::kUnknown);
      expect_engines_agree(*c.task, c.level, cut);
    }
  }
  ConsensusTask consensus(2, 2);
  for (const std::uint64_t budget : {1ull, 7ull, 50ull}) {
    SCOPED_TRACE("consensus(2,2) budget=" + std::to_string(budget));
    SolveOptions arena_opts;
    arena_opts.engine = SolveEngine::kArena;
    arena_opts.node_budget = budget;
    SolveOptions legacy_opts;
    legacy_opts.engine = SolveEngine::kLegacy;
    legacy_opts.node_budget = budget;
    const SolveResult a = solve(consensus, 2, arena_opts);
    const SolveResult l = solve(consensus, 2, legacy_opts);
    EXPECT_EQ(a.status, l.status);
    EXPECT_EQ(a.nodes_explored, l.nodes_explored);
  }
}

/// A canonical task's complexes with a pseudo-random Delta: each
/// (input simplex, output simplex) pair is allowed with probability
/// `percent`.  Propagation then prunes unevenly and the search backtracks
/// through partly pruned domains, which the canonical tasks rarely do (their
/// solvable levels mostly finish without a backtrack).  That is where the
/// min-domain order has to track every removal and every undo.
class RandomDeltaTask final : public Task {
 public:
  RandomDeltaTask(std::shared_ptr<const Task> base, std::uint64_t seed,
                  int percent)
      : base_(std::move(base)), seed_(seed), percent_(percent) {}
  const topo::ChromaticComplex& input() const override {
    return base_->input();
  }
  const topo::ChromaticComplex& output() const override {
    return base_->output();
  }
  std::string name() const override { return "random-delta"; }
  bool allows(const topo::Simplex& in,
              const topo::Simplex& out) const override {
    std::uint64_t h = topo::kFnvOffset ^ seed_;
    for (topo::VertexId x : in) h = (h ^ x) * topo::kFnvPrime;
    h = (h ^ 0xff) * topo::kFnvPrime;
    for (topo::VertexId x : out) h = (h ^ x) * topo::kFnvPrime;
    h ^= h >> 29;
    h *= 0xbf58476d1ce4e5b9ull;
    h ^= h >> 32;
    return static_cast<int>(h % 100) < percent_;
  }

 private:
  std::shared_ptr<const Task> base_;
  std::uint64_t seed_;
  int percent_;
};

TEST(ArenaSearch, MatchesLegacyOnRandomDeltas) {
  const std::vector<std::shared_ptr<const Task>> bases = {
      std::make_shared<ApproxAgreementTask>(2, 4),
      std::make_shared<KSetConsensusTask>(3, 3),
  };
  SolveOptions cut;
  cut.node_budget = 3000;
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    for (const int percent : {60, 80, 90}) {
      const RandomDeltaTask task(bases[seed % bases.size()], seed, percent);
      for (int level = 1; level <= 2; ++level) {
        SCOPED_TRACE("seed=" + std::to_string(seed) +
                     " percent=" + std::to_string(percent) +
                     " level=" + std::to_string(level));
        expect_engines_agree(task, level, cut);
      }
    }
  }
}

/// An edge {a, b} plus an isolated vertex c of a's color, mapped onto the
/// output edge; c is allowed no output at all.  c has no edge constraint,
/// so root propagation never sees its empty domain: only the variable
/// order finds it, as the smallest domain (size 0), before any node.
class EmptyDomainTask final : public Task {
 public:
  EmptyDomainTask() : input_(2), output_(topo::base_simplex(2)) {
    const topo::VertexId a = input_.add_vertex(0, "a", ColorSet::single(0));
    const topo::VertexId b = input_.add_vertex(1, "b", ColorSet::single(1));
    c_ = input_.add_vertex(0, "c", ColorSet::single(0));
    input_.add_facet({a, b});
    input_.add_facet({c_});
  }
  const topo::ChromaticComplex& input() const override { return input_; }
  const topo::ChromaticComplex& output() const override { return output_; }
  std::string name() const override { return "empty-domain"; }
  bool allows(const topo::Simplex& in, const topo::Simplex&) const override {
    return !std::ranges::binary_search(in, c_);
  }

 private:
  topo::ChromaticComplex input_;
  topo::ChromaticComplex output_;
  topo::VertexId c_ = topo::kNoVertex;
};

TEST(ArenaSearch, EmptyInitialDomainIsPickedFirst) {
  const EmptyDomainTask task;
  for (int level = 0; level <= 1; ++level) {
    SCOPED_TRACE("level=" + std::to_string(level));
    const SolveResult r = solve_at_level(task, level);
    EXPECT_EQ(r.status, Solvability::kUnsolvable);
    EXPECT_EQ(r.nodes_explored, 0u);
    expect_engines_agree(task, level, SolveOptions{});
  }
}

}  // namespace
}  // namespace wfc::task
