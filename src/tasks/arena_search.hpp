// Arena-core Prop 3.1 search: the same exact backtracking + AC-3 decision
// procedure as the legacy Search in solvability.cpp, rebuilt over the flat
// topo::Arena form of SDS^b(I) so the inner loop is cache-linear:
//
//   * domains are per-vertex bitmask words (one bit per output vertex), so
//     AC-3 support checks are word-wide ANDs instead of nested scans;
//   * vertices and faces are grouped into carrier classes (one per
//     distinct base carrier, interned by hashing the arena's carrier span);
//     a domain row is computed once per (class, color) and copied to every
//     vertex that shares it;
//   * the edge-constraint `allows` oracle is cached per class in a
//     pair-allowed bitmatrix whose rows are filled on first read, so only
//     the rows of values AC-3 or branching actually test ever cost an
//     oracle call -- cheap for the search, and a cancelled or quickly
//     refuted level pays for almost none of the |classes| x |O|^2 table;
//   * output facet membership is a bitset per output vertex, so the
//     contains_simplex check on a fully-assigned face is a word-wide AND;
//   * face/constraint/neighbour tables are CSR spans over dense uint32 ids
//     with zero per-node allocation (trail and snapshots live in reused
//     flat buffers).
//
// Equivalence contract (tested in tests/arena_test.cpp): variable order
// (min live domain, ties to lowest id), value order (ascending output id),
// the AC-3 fixpoints, and the interrupt cadence are identical to the
// legacy engine, so verdict, decision map, and nodes_explored match
// bit-for-bit; only the per-node constant factor changes.
#pragma once

#include <cstdint>
#include <vector>

#include "tasks/solvability.hpp"
#include "topology/arena.hpp"

namespace wfc::task {

/// Runs the level search over `arena` (the flat form of SDS^b(I)) against
/// task.output().  On kSolvable, `decision[v]` is the output vertex for
/// arena vertex v.  `nodes` is the explored-node count (identical to the
/// legacy engine's).
[[nodiscard]] Solvability arena_search(const Task& task,
                                       const topo::Arena& arena,
                                       const SolveOptions& options,
                                       std::vector<topo::VertexId>& decision,
                                       std::uint64_t& nodes);

}  // namespace wfc::task
