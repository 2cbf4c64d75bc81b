// The Proposition 3.1 decision procedure: a bounded-input task T is
// wait-free solvable in the IIS model at level b iff there is a
// color-preserving simplicial map delta_b : SDS^b(I) -> O with
// delta_b(s) in Delta(carrier(s, I)) for EVERY simplex s.
//
// The search is exact backtracking over the vertices of SDS^b(I):
//   * candidates(v) = output vertices of v's color allowed for v's carrier;
//   * a constraint per face of SDS^b(I): the (partial) image must be a
//     simplex of O allowed for the face's carrier.  Because Delta is
//     face-closed (see task.hpp), partial-assignment pruning is sound, so
//     kUnsolvable answers are genuine impossibility proofs for that level.
//
// By the paper's main theorem (the §4 emulation plus [8]), "solvable at some
// level b" is equivalent to wait-free solvability in read/write shared
// memory, making this the effective (per-level) form of the
// characterization.  (Full solvability is undecidable for >= 3 processors
// [9]: the per-level search cannot be escaped, hence `max_level` and the
// node budget, and the kUnknown verdict.)
//
// Long-running searches degrade gracefully: SolveOptions carries an optional
// deadline and an atomic cancel token, both checked inside the backtracking
// loop, yielding kCancelled.  A ChainProvider lets callers (notably the
// service-layer SDS cache, src/service) supply memoized SDS^k chains instead
// of rebuilding the subdivision tower per query.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "protocol/sds_chain.hpp"
#include "tasks/task.hpp"
#include "topology/arena.hpp"
#include "topology/subdivision.hpp"

namespace wfc::task {

enum class Solvability {
  kSolvable,
  kUnsolvable,
  kUnknown,    // node budget exhausted before a definite answer
  kCancelled,  // deadline passed or cancel token flipped mid-search
};

/// Short uppercase rendering ("SOLVABLE", ...), for logs and front-ends.
[[nodiscard]] const char* to_cstring(Solvability s);

struct SolveResult {
  Solvability status = Solvability::kUnknown;
  int level = -1;  // the b at which a map was found (status == kSolvable)
  /// decision[v] = output vertex for vertex v of SDS^level(I).
  std::vector<topo::VertexId> decision;
  /// The chain I, SDS(I), ..., SDS^level(I); present when solvable so the
  /// decision can be executed (see decision_protocol.hpp).
  std::shared_ptr<const proto::SdsChain> chain;
  std::uint64_t nodes_explored = 0;
};

/// Supplies the chain I, SDS(I), ..., SDS^depth(I) for an input complex
/// (depth() may exceed the request).  SDS^k is a pure function of the input,
/// so providers may memoize across queries; see svc::SdsCache.  A provider
/// that builds should poll build_stop(options) and may throw
/// topo::BuildStopped, which solve() answers as kCancelled.
using ChainProvider =
    std::function<std::shared_ptr<const proto::SdsChain>(
        const topo::ChromaticComplex& input, int depth)>;

/// A per-level restriction of the search: the admissible subcomplex of
/// SDS^level(I) under some sub-IIS model (wfc::model derives these by
/// pruning the level's arena; solvability itself stays model-agnostic).
/// Vertex colors, carriers, and base carriers are those of the original
/// level, so Delta constraints transfer unchanged -- but vertex IDS are the
/// pruned complex's own, so a restricted SolveResult's decision indexes the
/// restriction, not SDS^level(I), and result.chain stays null.
struct LevelRestriction {
  /// What the kArena engine searches.  Zero facets = no admissible runs at
  /// this level: the level is unsolvable by definition (a simplicial map
  /// must exist on SOME admissible complex, and the search over an empty
  /// complex would be vacuously solvable).
  topo::Arena arena;
  /// Complex form for the kLegacy engine; may be null, in which case the
  /// arena is materialized on demand.
  std::shared_ptr<const topo::ChromaticComplex> complex;
};

/// Supplies the restriction for one level of the (full) chain, or nullopt
/// for "search the level unrestricted".  Must be pure per (chain, level).
using LevelRestrictor =
    std::function<std::optional<LevelRestriction>(
        const proto::SdsChain& chain, int level)>;

/// Which backtracking engine runs the Prop 3.1 search.  Both explore the
/// identical search tree (same variable/value order, same AC-3 fixpoints)
/// and return identical verdicts, decisions, and node counts; kArena walks
/// flat topo::Arena spans with bitmask domains and lazily filled pair
/// tables (tasks/arena_search.cpp), kLegacy walks the pointer-based
/// ChromaticComplex and is kept as the reference/baseline engine.
enum class SolveEngine {
  kArena,
  kLegacy,
};

struct SolveOptions {
  std::uint64_t node_budget = 50'000'000;  // backtracking nodes per level
  /// Absolute deadline; the search returns kCancelled once it passes.
  std::optional<std::chrono::steady_clock::time_point> deadline;
  /// Cooperative cancellation: flip to true (from any thread) and the
  /// search returns kCancelled at the next node.  Must outlive the call.
  const std::atomic<bool>* cancel = nullptr;
  /// Progress heartbeat: bumped (relaxed) at every search node so an
  /// external watchdog can tell a long search from a stuck worker.  Must
  /// outlive the call.
  std::atomic<std::uint64_t>* progress = nullptr;
  /// Observability checkpoints riding the heartbeat seam: when
  /// checkpoint_every > 0, on_checkpoint(nodes) is invoked every
  /// checkpoint_every explored nodes of a level's search (nodes counts from
  /// zero per level).  The callback runs on the search thread and must be
  /// cheap; the service records the samples as trace counter events.
  std::uint64_t checkpoint_every = 0;
  std::function<void(std::uint64_t nodes)> on_checkpoint;
  /// When set, solve/solve_at_level obtain SDS chains here instead of
  /// building privately (the provider may return an already-deeper chain).
  ChainProvider chain_provider;
  /// Search engine; kArena unless explicitly benchmarking the baseline.
  SolveEngine engine = SolveEngine::kArena;
  /// When set, each level's search runs over restrictor(chain, level)
  /// instead of the full level (see LevelRestriction).  Absent restrictor
  /// -- and a restrictor returning nullopt -- leaves the search bit-for-bit
  /// identical to an unrestricted solve.
  LevelRestrictor restrictor;
};

/// The stop predicate for chain builds on behalf of a solve under
/// `options`: fires once the cancel token flips or the deadline passes.
/// Empty (never polled) when `options` has neither.  Reads `options` by
/// reference, so it must not outlive them.
[[nodiscard]] topo::StopPredicate build_stop(const SolveOptions& options);

/// Decides level-b solvability exactly (within the node budget).
SolveResult solve_at_level(const Task& task, int level,
                           const SolveOptions& options = {});

/// Tries levels 0..max_level in order; returns the first solvable level, or
/// kUnsolvable if every level was exhaustively refuted, or kUnknown if some
/// level ran out of budget, or kCancelled on deadline/cancellation.  The
/// SDS chain grows once across levels (level b extends the level b-1 tower)
/// rather than being rebuilt from scratch per level.
SolveResult solve(const Task& task, int max_level,
                  const SolveOptions& options = {});

}  // namespace wfc::task
