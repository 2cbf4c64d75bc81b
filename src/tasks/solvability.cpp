#include "tasks/solvability.hpp"

#include <algorithm>
#include <map>

#include "common/assert.hpp"
#include "tasks/arena_search.hpp"

namespace wfc::task {

namespace {

using topo::ChromaticComplex;
using topo::kNoVertex;
using topo::Simplex;
using topo::VertexId;

/// How often (in explored nodes) the deadline clock is consulted; the cancel
/// token is a relaxed atomic load and is checked at every node.
constexpr std::uint64_t kDeadlineCheckMask = 0x3ff;

bool deadline_passed(const SolveOptions& options) {
  return options.deadline &&
         std::chrono::steady_clock::now() >= *options.deadline;
}

bool cancel_requested(const SolveOptions& options) {
  return (options.cancel &&
          options.cancel->load(std::memory_order_relaxed)) ||
         deadline_passed(options);
}

/// One Delta constraint: a face of SDS^b(I) with its carrier in I.
struct FaceConstraint {
  Simplex face;          // vertices of SDS^b(I)
  Simplex base_carrier;  // simplex of I
};

/// Backtracking with forward checking.  Domains are per-vertex candidate
/// lists; assigning v=w prunes neighbouring domains through the binary
/// (edge) constraints, and full face constraints are re-checked when their
/// last member is assigned.  Face-closure of Delta (task.hpp) makes both
/// prunings sound, so kUnsolvable is an exhaustive refutation.
class Search {
 public:
  Search(const Task& task, const ChromaticComplex& complex,
         const SolveOptions& options)
      : task_(&task),
        complex_(&complex),
        options_(&options),
        budget_(options.node_budget) {
    build_domains();
    build_constraints();
  }

  Solvability run(std::vector<VertexId>& out, std::uint64_t& nodes) {
    assignment_.assign(complex_->num_vertices(), kNoVertex);
    nodes_ = 0;
    if (cancel_requested(*options_)) {
      nodes = 0;
      return Solvability::kCancelled;
    }
    // Root arc consistency: prune before the first branch.
    std::vector<std::pair<VertexId, VertexId>> root_trail;
    if (!propagate(kNoVertex, root_trail)) {
      nodes = nodes_;
      return Solvability::kUnsolvable;
    }
    const Solvability result = assign(0);
    nodes = nodes_;
    if (result == Solvability::kSolvable) out = assignment_;
    return result;
  }

 private:
  void build_domains() {
    const ChromaticComplex& out = task_->output();
    domains_.resize(complex_->num_vertices());
    for (VertexId v = 0; v < complex_->num_vertices(); ++v) {
      const auto& data = complex_->vertex(v);
      for (VertexId w = 0; w < out.num_vertices(); ++w) {
        if (out.vertex(w).color != data.color) continue;
        if (!task_->allows(data.base_carrier, {w})) continue;
        domains_[v].push_back(w);
      }
    }
    // Output adjacency: compat_[w1][w2] iff {w1, w2} is a simplex of O.
    const std::size_t m = out.num_vertices();
    compat_.assign(m, std::vector<bool>(m, false));
    for (VertexId w = 0; w < m; ++w) compat_[w][w] = true;
    out.for_each_face([&](const Simplex& s) {
      for (VertexId a : s) {
        for (VertexId b : s) compat_[a][b] = true;
      }
    });
  }

  void build_constraints() {
    complex_->for_each_face([&](const Simplex& face) {
      if (face.size() < 2) return;  // singletons folded into the domains
      const std::size_t ci = constraints_.size();
      constraints_.push_back(
          FaceConstraint{face, complex_->base_carrier_of(face)});
      if (face.size() == 2) {
        pair_constraint_[{face[0], face[1]}] =
            static_cast<std::uint32_t>(ci);
      }
    });
    by_vertex_.resize(complex_->num_vertices());
    neighbours_.resize(complex_->num_vertices());
    for (std::size_t ci = 0; ci < constraints_.size(); ++ci) {
      for (VertexId v : constraints_[ci].face) {
        by_vertex_[v].push_back(static_cast<std::uint32_t>(ci));
      }
    }
    for (const auto& [pair, ci] : pair_constraint_) {
      neighbours_[pair.first].push_back({pair.second, ci});
      neighbours_[pair.second].push_back({pair.first, ci});
    }
  }

  /// Exact check of every face constraint whose members are all assigned
  /// and which contains v.
  bool faces_consistent(VertexId v) {
    for (std::uint32_t ci : by_vertex_[v]) {
      const FaceConstraint& fc = constraints_[ci];
      Simplex image;
      image.reserve(fc.face.size());
      bool all_assigned = true;
      for (VertexId u : fc.face) {
        if (assignment_[u] == kNoVertex) {
          all_assigned = false;
          break;
        }
        image.push_back(assignment_[u]);
      }
      if (!all_assigned) continue;
      image = topo::make_simplex(std::move(image));
      if (!task_->output().contains_simplex(image)) return false;
      if (!task_->allows(fc.base_carrier, image)) return false;
    }
    return true;
  }

  /// True iff the pair {a, b} is permitted by edge constraint `ci`.
  bool edge_ok(std::uint32_t ci, VertexId a, VertexId b) {
    if (!compat_[a][b]) return false;
    return task_->allows(constraints_[ci].base_carrier,
                         topo::make_simplex({a, b}));
  }

  /// AC-3 arc consistency over the binary (edge) constraints, seeded with
  /// the arcs pointing at `start` (or with every arc when start ==
  /// kNoVertex, i.e. the root call).  Removed values go on `trail` for
  /// undo.  Returns false on a domain wipe-out.
  ///
  /// Transitive propagation matters: tasks like approximate agreement pin
  /// distant vertices (the corners) and constrain neighbours by +-1; plain
  /// forward checking discovers the conflict only after walking the whole
  /// chain, AC-3 trims every domain to its feasible window up front.
  bool propagate(VertexId start,
                 std::vector<std::pair<VertexId, VertexId>>& trail) {
    // Work queue of (target u, constraint, source v): re-check u against v.
    std::vector<std::tuple<VertexId, std::uint32_t, VertexId>> queue;
    if (start == kNoVertex) {
      for (VertexId v = 0; v < complex_->num_vertices(); ++v) {
        for (const auto& [u, ci] : neighbours_[v]) queue.emplace_back(u, ci, v);
      }
    } else {
      for (const auto& [u, ci] : neighbours_[start]) {
        queue.emplace_back(u, ci, start);
      }
    }
    while (!queue.empty()) {
      const auto [u, ci, v] = queue.back();
      queue.pop_back();
      if (assignment_[u] != kNoVertex) continue;
      // v's live values: its assignment if set, else its domain.
      const VertexId v_assigned = assignment_[v];
      auto& dom = domains_[u];
      bool removed_any = false;
      for (std::size_t i = dom.size(); i-- > 0;) {
        const VertexId cand = dom[i];
        bool supported = false;
        if (v_assigned != kNoVertex) {
          supported = edge_ok(ci, cand, v_assigned);
        } else {
          for (VertexId wv : domains_[v]) {
            if (edge_ok(ci, cand, wv)) {
              supported = true;
              break;
            }
          }
        }
        if (!supported) {
          trail.emplace_back(u, cand);
          dom[i] = dom.back();
          dom.pop_back();
          removed_any = true;
        }
      }
      if (dom.empty()) return false;
      if (removed_any) {
        for (const auto& [x, cj] : neighbours_[u]) {
          if (x != v) queue.emplace_back(x, cj, u);
        }
      }
    }
    return true;
  }

  void undo(const std::vector<std::pair<VertexId, VertexId>>& trail) {
    for (const auto& [u, cand] : trail) domains_[u].push_back(cand);
  }

  /// Dynamic variable selection: the unassigned vertex with the smallest
  /// live domain (ties to lower id for determinism).
  VertexId pick_vertex() const {
    VertexId best = kNoVertex;
    std::size_t best_size = ~std::size_t{0};
    for (VertexId v = 0; v < complex_->num_vertices(); ++v) {
      if (assignment_[v] != kNoVertex) continue;
      if (domains_[v].size() < best_size) {
        best = v;
        best_size = domains_[v].size();
      }
    }
    return best;
  }

  /// kUnknown (budget) or kCancelled (token/deadline) if the search must
  /// stop at this node; kSolvable (meaning "keep going") otherwise.
  Solvability node_interrupt() {
    if (options_->progress != nullptr) {
      options_->progress->fetch_add(1, std::memory_order_relaxed);
    }
    if (++nodes_ > budget_) return Solvability::kUnknown;
    if (options_->checkpoint_every != 0 &&
        nodes_ % options_->checkpoint_every == 0 && options_->on_checkpoint) {
      options_->on_checkpoint(nodes_);
    }
    if (options_->cancel &&
        options_->cancel->load(std::memory_order_relaxed)) {
      return Solvability::kCancelled;
    }
    if ((nodes_ & kDeadlineCheckMask) == 0 && deadline_passed(*options_)) {
      return Solvability::kCancelled;
    }
    return Solvability::kSolvable;
  }

  Solvability assign(std::size_t depth) {
    const VertexId v = pick_vertex();
    if (v == kNoVertex) return Solvability::kSolvable;
    // Snapshot the domain: propagation from deeper levels mutates it (and
    // the swap-remove scrambles order, so restore the deterministic
    // natural value order -- it doubles as a good heuristic for tasks whose
    // outputs are ordered, e.g. grids).
    std::vector<VertexId> options(domains_[v].begin(), domains_[v].end());
    std::sort(options.begin(), options.end());
    for (VertexId w : options) {
      const Solvability interrupt = node_interrupt();
      if (interrupt != Solvability::kSolvable) return interrupt;
      assignment_[v] = w;
      std::vector<std::pair<VertexId, VertexId>> trail;
      if (faces_consistent(v) && propagate(v, trail)) {
        const Solvability sub = assign(depth + 1);
        if (sub != Solvability::kUnsolvable) {
          undo(trail);
          if (sub == Solvability::kSolvable) assignment_[v] = w;
          return sub;
        }
      }
      undo(trail);
      assignment_[v] = kNoVertex;
    }
    return Solvability::kUnsolvable;
  }

  const Task* task_;
  const ChromaticComplex* complex_;
  const SolveOptions* options_;
  std::uint64_t budget_;
  std::uint64_t nodes_ = 0;

  std::vector<std::vector<VertexId>> domains_;
  std::vector<std::vector<bool>> compat_;
  std::vector<FaceConstraint> constraints_;
  std::map<std::pair<VertexId, VertexId>, std::uint32_t> pair_constraint_;
  std::vector<std::vector<std::uint32_t>> by_vertex_;
  std::vector<std::vector<std::pair<VertexId, std::uint32_t>>> neighbours_;
  std::vector<VertexId> assignment_;
};

/// Chain acquisition shared by solve and solve_at_level: consult the
/// provider when present, otherwise grow `own` (extending the existing
/// tower shares every already-built level; see SdsChain).
/// Returns null when a build was stopped by cancellation or the deadline.
std::shared_ptr<const proto::SdsChain> chain_for(
    const Task& task, int depth, const SolveOptions& options,
    std::shared_ptr<const proto::SdsChain>& own) {
  try {
    if (options.chain_provider) {
      std::shared_ptr<const proto::SdsChain> chain =
          options.chain_provider(task.input(), depth);
      WFC_CHECK(chain != nullptr && chain->depth() >= depth,
                "solve: chain provider returned a short chain");
      return chain;
    }
    if (!own) {
      own = std::make_shared<proto::SdsChain>(task.input(), depth,
                                              build_stop(options));
    } else if (own->depth() < depth) {
      own = std::make_shared<proto::SdsChain>(*own, depth,
                                              build_stop(options));
    }
    return own;
  } catch (const topo::BuildStopped&) {
    return nullptr;
  }
}

/// Runs the level-b search over `chain` (depth >= level) and assembles the
/// result; the stored chain is truncated to exactly `level` so that
/// DecisionProtocol's b == chain->depth() invariant holds.
SolveResult search_level(const Task& task, int level,
                         std::shared_ptr<const proto::SdsChain> chain,
                         const SolveOptions& options) {
  SolveResult result;
  if (chain == nullptr) {
    result.status = Solvability::kCancelled;
    return result;
  }
  std::optional<LevelRestriction> restriction;
  if (options.restrictor) restriction = options.restrictor(*chain, level);
  if (restriction.has_value()) {
    if (restriction->arena.num_facets() == 0) {
      // No admissible run reaches this level; the search over an empty
      // complex would be vacuously solvable, so short-circuit.
      result.status = Solvability::kUnsolvable;
      return result;
    }
    if (options.engine == SolveEngine::kArena) {
      result.status = arena_search(task, restriction->arena, options,
                                   result.decision, result.nodes_explored);
    } else {
      std::shared_ptr<const ChromaticComplex> complex = restriction->complex;
      if (complex == nullptr) {
        complex = std::make_shared<ChromaticComplex>(
            restriction->arena.materialize());
      }
      Search search(task, *complex, options);
      result.status = search.run(result.decision, result.nodes_explored);
    }
    if (result.status == Solvability::kSolvable) {
      // The decision indexes the PRUNED complex; the full chain would
      // misalign, so no chain travels with a restricted result.
      result.level = level;
    }
    return result;
  }
  if (options.engine == SolveEngine::kArena) {
    // The default engine: flat spans, bitmask domains (arena_search.cpp).
    // For store-backed chains arena(level) is a zero-copy view of the mmap.
    result.status = arena_search(task, chain->arena(level), options,
                                 result.decision, result.nodes_explored);
  } else {
    Search search(task, chain->level(level), options);
    result.status = search.run(result.decision, result.nodes_explored);
  }
  if (result.status == Solvability::kSolvable) {
    result.level = level;
    result.chain = chain->depth() == level
                       ? std::move(chain)
                       : std::make_shared<proto::SdsChain>(*chain, level);
  }
  return result;
}

}  // namespace

const char* to_cstring(Solvability s) {
  switch (s) {
    case Solvability::kSolvable: return "SOLVABLE";
    case Solvability::kUnsolvable: return "UNSOLVABLE";
    case Solvability::kUnknown: return "UNKNOWN";
    case Solvability::kCancelled: return "CANCELLED";
  }
  return "?";
}

topo::StopPredicate build_stop(const SolveOptions& options) {
  if (options.cancel == nullptr && !options.deadline) return {};
  return [&options] { return cancel_requested(options); };
}

SolveResult solve_at_level(const Task& task, int level,
                           const SolveOptions& options) {
  WFC_REQUIRE(level >= 0, "solve_at_level: negative level");
  std::shared_ptr<const proto::SdsChain> own;
  return search_level(task, level, chain_for(task, level, options, own),
                      options);
}

SolveResult solve(const Task& task, int max_level,
                  const SolveOptions& options) {
  WFC_REQUIRE(max_level >= 0, "solve: negative max_level");
  bool hit_budget = false;
  std::uint64_t total_nodes = 0;
  std::shared_ptr<const proto::SdsChain> own;
  for (int b = 0; b <= max_level; ++b) {
    if (cancel_requested(options)) {
      SolveResult out;
      out.status = Solvability::kCancelled;
      out.nodes_explored = total_nodes;
      return out;
    }
    SolveResult r =
        search_level(task, b, chain_for(task, b, options, own), options);
    total_nodes += r.nodes_explored;
    if (r.status == Solvability::kSolvable ||
        r.status == Solvability::kCancelled) {
      r.nodes_explored = total_nodes;
      return r;
    }
    if (r.status == Solvability::kUnknown) hit_budget = true;
  }
  SolveResult out;
  out.status = hit_budget ? Solvability::kUnknown : Solvability::kUnsolvable;
  out.nodes_explored = total_nodes;
  return out;
}

}  // namespace wfc::task
