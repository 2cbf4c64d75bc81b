// SdsChain: the tower I, SDS(I), SDS^2(I), ..., SDS^b(I) with vertex
// location for live executions.
//
// A processor running the full-information IIS protocol can always name its
// own vertex: at round r it holds a set of (color, vertex-at-level-r) pairs
// -- its immediate snapshot -- and its level-(r+1) vertex is the interned
// SDS vertex (own color, that set).  This is the operational content of
// Lemma 3.3: local states after r rounds ARE vertices of SDS^r(I).  The
// solvability checker compiles decision maps against the top level, and the
// runtime looks itself up here to decide.
//
// Levels are held through shared_ptr and immutable once built, so chains
// over the same input can SHARE them: SdsChain(prefix, depth) reuses every
// already-built level of `prefix` and only subdivides beyond its top (or
// merely re-points at a prefix of the levels when depth <= prefix.depth()).
// Iterated subdivision dominates every workload in this library; the
// service-layer cache (src/service) leans on this to compute SDS^k(I) once
// per input across queries and levels.
//
// A chain may also be BACKED: constructed over a ChainBacking that can hand
// out each level as a flat topo::Arena (in practice an mmap'ed region of
// the persistent chain store, shared read-only across processes).  Backed
// chains materialize ChromaticComplex levels lazily and only on demand --
// the arena-core solver (tasks/arena_search) runs straight off the mapped
// spans, so a warm restart never rebuilds or even copies the tower.
// `arena(r)` is the uniform accessor: zero-copy for backed chains, built
// once and cached for in-memory ones.
#pragma once

#include <memory>
#include <mutex>
#include <vector>

#include "topology/arena.hpp"
#include "topology/complex.hpp"
#include "topology/subdivision.hpp"

namespace wfc::proto {

/// Source of pre-serialized chain levels (store/chain_store.cpp implements
/// this over an mmap).  `arena(r)` must be cheap -- a view, not a build.
class ChainBacking {
 public:
  virtual ~ChainBacking() = default;
  [[nodiscard]] virtual int depth() const = 0;
  [[nodiscard]] virtual topo::Arena arena(int r) const = 0;
};

class SdsChain {
 public:
  /// Builds levels 0..depth eagerly; level r is SDS^r(input).  Each
  /// subdivision polls `stop` once per facet and throws topo::BuildStopped
  /// when it fires; no chain is constructed then.
  SdsChain(topo::ChromaticComplex input, int depth,
           const topo::StopPredicate& stop = {});

  /// Shares levels with `other`: levels 0..min(depth, other.depth()) are the
  /// same objects (no copy, no recomputation); levels beyond other.depth()
  /// are freshly subdivided, polling `stop` as above.  Both extension
  /// (depth > other.depth()) and truncation (depth < other.depth()) are
  /// O(shared levels) pointer copies.
  SdsChain(const SdsChain& other, int depth,
           const topo::StopPredicate& stop = {});

  /// Adopts pre-serialized levels; depth() == backing->depth().  Levels
  /// materialize lazily, arenas are zero-copy views into the backing.
  explicit SdsChain(std::shared_ptr<const ChainBacking> backing);

  [[nodiscard]] int depth() const noexcept { return depth_; }

  /// Level r complex; r = 0 is the input complex.  Backed chains
  /// materialize the level on first access (thread-safe, cached).
  [[nodiscard]] const topo::ChromaticComplex& level(int r) const;

  /// Top level, SDS^depth(input).
  [[nodiscard]] const topo::ChromaticComplex& top() const {
    return level(depth_);
  }

  /// Flat arena form of level r: a view into the backing for backed
  /// chains, else built on first access and cached.  The returned Arena is
  /// a cheap value copy and stays valid independent of this chain.
  [[nodiscard]] topo::Arena arena(int r) const;

  /// Vertex count of level r WITHOUT materializing it (reads the arena
  /// header for backed levels).  Lets the cache weigh lazily-backed chains
  /// without forcing the rebuild that laziness exists to avoid.
  [[nodiscard]] std::size_t level_vertex_count(int r) const;

  /// The vertex of level `r` (r >= 1) for a processor of color `c` whose
  /// round-(r-1) immediate snapshot contained exactly the level-(r-1)
  /// vertices `seen` (canonical simplex).  Throws std::logic_error if no
  /// such vertex exists -- i.e. if `seen` is not a legal view, which would
  /// contradict Lemma 3.2.
  [[nodiscard]] topo::VertexId locate(int r, Color c,
                                      const topo::Simplex& seen) const;

 private:
  // Both helpers require mu_ held (or exclusive access in a constructor);
  // slots are written once and never reassigned, so references handed out
  // under the lock stay valid after it is released.
  const topo::ChromaticComplex& ensure_level(int r) const;
  const topo::Arena& ensure_arena(int r) const;

  int depth_ = 0;
  std::shared_ptr<const ChainBacking> backing_;
  mutable std::mutex mu_;
  mutable std::vector<std::shared_ptr<const topo::ChromaticComplex>> levels_;
  mutable std::vector<std::shared_ptr<const topo::Arena>> arenas_;
};

}  // namespace wfc::proto
