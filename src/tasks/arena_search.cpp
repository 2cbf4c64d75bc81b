#include "tasks/arena_search.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <span>

#include "common/assert.hpp"

namespace wfc::task {

namespace {

using topo::ChromaticComplex;
using topo::kNoVertex;
using topo::Simplex;
using topo::VertexId;

// Mirrors the legacy engine (solvability.cpp) so the interrupt cadence --
// and therefore the node accounting -- is identical.
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

inline bool test_bit(const std::uint64_t* row, std::uint32_t i) {
  return (row[i >> 6] >> (i & 63)) & 1u;
}
inline void set_bit(std::uint64_t* row, std::uint32_t i) {
  row[i >> 6] |= std::uint64_t{1} << (i & 63);
}
inline void clear_bit(std::uint64_t* row, std::uint32_t i) {
  row[i >> 6] &= ~(std::uint64_t{1} << (i & 63));
}

class ArenaSearcher {
 public:
  ArenaSearcher(const Task& task, const topo::Arena& arena,
                const SolveOptions& options)
      : task_(&task),
        in_(&arena),
        out_(&task.output()),
        options_(&options),
        budget_(options.node_budget),
        n_(arena.num_vertices()),
        m_(static_cast<std::uint32_t>(task.output().num_vertices())),
        words_((m_ + 63) / 64),
        vwords_((static_cast<std::size_t>(n_) + 63) / 64) {
    build_output_tables();
    init_classes();
    if (!build_domains()) return;
    build_constraints();
    pair_base_.assign(cls_carrier_.size(), kNoRows);
    snapshots_.resize(static_cast<std::size_t>(n_) * words_);
    scratch_row_.resize(words_);
    scratch_facets_.resize(facet_words_);
  }

  Solvability run(std::vector<VertexId>& out, std::uint64_t& nodes) {
    assignment_.assign(n_, kNoVertex);
    nodes_ = 0;
    if (cancelled_ || cancel_requested(*options_)) {
      nodes = 0;
      return Solvability::kCancelled;
    }
    trail_.clear();
    build_buckets();
    if (!propagate(kNoVertex)) {
      nodes = nodes_;
      return Solvability::kUnsolvable;
    }
    const Solvability result = assign(0);
    nodes = nodes_;
    if (result == Solvability::kSolvable) out = assignment_;
    return result;
  }

 private:
  static constexpr std::uint32_t kNoClass = ~std::uint32_t{0};
  static constexpr std::size_t kNoRows = ~std::size_t{0};

  std::uint64_t* dom_row(VertexId v) {
    return domains_.data() + static_cast<std::size_t>(v) * words_;
  }

  std::uint64_t* bucket_row(std::uint32_t size) {
    return buckets_.data() + static_cast<std::size_t>(size) * vwords_;
  }
  const std::uint64_t* bucket_row(std::uint32_t size) const {
    return buckets_.data() + static_cast<std::size_t>(size) * vwords_;
  }
  void bucket_insert(VertexId v, std::uint32_t size) {
    set_bit(bucket_row(size), v);
    ++bucket_count_[size];
  }
  void bucket_erase(VertexId v, std::uint32_t size) {
    clear_bit(bucket_row(size), v);
    --bucket_count_[size];
  }

  /// Min-domain buckets: row s is a bitset over the vertices whose live
  /// domain holds s values, bucket_count_[s] its population.  Invariant:
  /// every unassigned vertex sits in exactly the bucket of its dom_count_,
  /// assigned vertices in none.  Domains only shrink from their initial
  /// size, so the largest initial domain bounds the table.
  void build_buckets() {
    std::uint32_t largest = 0;
    for (VertexId v = 0; v < n_; ++v) {
      largest = std::max(largest, dom_count_[v]);
    }
    buckets_.assign(static_cast<std::size_t>(largest + 1) * vwords_, 0);
    bucket_count_.assign(largest + 1, 0);
    for (VertexId v = 0; v < n_; ++v) bucket_insert(v, dom_count_[v]);
  }

  /// pair row `a` of carrier class `cls`, bit b: {a, b} is a simplex of O
  /// AND allows(carrier(cls), {a, b}).  Filled on first read: the search
  /// only ever reads rows of values still in some domain, so most of the
  /// |classes| x |O| rows are never built.  Each class owns a block of m
  /// rows plus one word-row of "filled" bits in pair_pool_.
  const std::uint64_t* pair_row(std::uint32_t cls, VertexId a) {
    std::size_t base = pair_base_[cls];
    if (base == kNoRows) {
      base = pair_pool_.size();
      pair_base_[cls] = base;
      pair_pool_.resize(base + static_cast<std::size_t>(m_ + 1) * words_, 0);
    }
    std::uint64_t* rows = pair_pool_.data() + base;
    std::uint64_t* filled = rows + static_cast<std::size_t>(m_) * words_;
    std::uint64_t* row = rows + static_cast<std::size_t>(a) * words_;
    if (test_bit(filled, a)) return row;
    set_bit(filled, a);
    carrier_.assign(cls_carrier_[cls].begin(), cls_carrier_[cls].end());
    const std::uint64_t* compat_row =
        compat_.data() + static_cast<std::size_t>(a) * words_;
    for (std::size_t w = 0; w < words_; ++w) {
      std::uint64_t bits = compat_row[w];
      while (bits != 0) {
        const VertexId b = static_cast<VertexId>(w * 64) +
                           static_cast<VertexId>(std::countr_zero(bits));
        bits &= bits - 1;
        // The diagonal is never read: an edge's two ends differ in color,
        // and so do the output values they range over.
        if (b == a) continue;
        bool ok;
        if (test_bit(filled, b)) {
          // The relation is symmetric: row b already holds the answer.
          ok = test_bit(rows + static_cast<std::size_t>(b) * words_, a);
        } else {
          edge_.assign({std::min(a, b), std::max(a, b)});
          ok = task_->allows(carrier_, edge_);
        }
        if (ok) set_bit(row, b);
      }
    }
    return row;
  }

  void build_output_tables() {
    // compat_[a] bit b <=> {a, b} is a simplex of O: any pair inside a
    // facet.
    compat_.assign(static_cast<std::size_t>(m_) * words_, 0);
    out_colors_.resize(m_);
    for (VertexId w = 0; w < m_; ++w) out_colors_[w] = out_->vertex(w).color;
    const auto& facets = out_->facets();
    const std::uint32_t n_facets = static_cast<std::uint32_t>(facets.size());
    facet_words_ = (n_facets + 63) / 64 == 0 ? 1 : (n_facets + 63) / 64;
    facet_bits_.assign(static_cast<std::size_t>(m_) * facet_words_, 0);
    for (std::uint32_t fi = 0; fi < n_facets; ++fi) {
      for (VertexId a : facets[fi]) {
        set_bit(facet_bits_.data() + static_cast<std::size_t>(a) * facet_words_,
                fi);
        for (VertexId b : facets[fi]) {
          set_bit(compat_.data() + static_cast<std::size_t>(a) * words_, b);
        }
      }
    }

    // Output vertices by color (CSR): a domain row scans one color only.
    out_by_color_idx_.assign(kMaxColors + 1, 0);
    for (VertexId w = 0; w < m_; ++w) {
      ++out_by_color_idx_[out_colors_[w] + 1];
    }
    for (int c = 0; c < kMaxColors; ++c) {
      out_by_color_idx_[c + 1] += out_by_color_idx_[c];
    }
    out_by_color_pool_.resize(m_);
    std::vector<std::uint32_t> cursor(out_by_color_idx_.begin(),
                                      out_by_color_idx_.end() - 1);
    for (VertexId w = 0; w < m_; ++w) {
      out_by_color_pool_[cursor[out_colors_[w]]++] = w;
    }
  }

  /// Carrier classes: one id per distinct base carrier of a vertex or a
  /// face, interned by hashing the arena's carrier span (open addressing,
  /// collisions settled by comparing spans).  The spans point into the
  /// arena, so interning allocates nothing per vertex or face.
  void init_classes() {
    std::size_t slots = 64;
    const std::size_t keys =
        static_cast<std::size_t>(n_) + in_->num_faces();
    while (slots < 2 * keys) slots <<= 1;
    cls_slots_.assign(slots, kNoClass);
  }

  std::uint32_t intern_class(std::span<const VertexId> carrier) {
    std::uint64_t h = 0xcbf29ce484222325ull ^ carrier.size();
    for (VertexId x : carrier) h = (h ^ x) * 0x100000001b3ull;
    h ^= h >> 32;
    const std::size_t mask = cls_slots_.size() - 1;
    for (std::size_t i = h & mask;; i = (i + 1) & mask) {
      const std::uint32_t cls = cls_slots_[i];
      if (cls == kNoClass) {
        cls_slots_[i] = static_cast<std::uint32_t>(cls_carrier_.size());
        cls_carrier_.push_back(carrier);
        return cls_slots_[i];
      }
      if (std::ranges::equal(cls_carrier_[cls], carrier)) return cls;
    }
  }

  /// Domains: one row per (carrier class, color), computed when the pair
  /// first occurs and copied to every later vertex of that class and
  /// color.  Checks for cancellation once per new class; returns false
  /// (and sets cancelled_) when the search should not start.
  bool build_domains() {
    domains_.assign(static_cast<std::size_t>(n_) * words_, 0);
    dom_count_.assign(n_, 0);
    const auto colors = in_->colors();
    const std::size_t n_colors = static_cast<std::size_t>(in_->n_colors());
    // first[cls * n_colors + color]: the vertex whose row is the domain
    // of that (class, color), or kNoVertex before it first occurs.
    std::vector<VertexId> first;
    Simplex single(1);
    for (VertexId v = 0; v < n_; ++v) {
      const std::uint32_t cls = intern_class(in_->base_carrier(v));
      if (cls * n_colors >= first.size()) {
        if (cancel_requested(*options_)) {
          cancelled_ = true;
          return false;
        }
        first.resize((cls + 1) * n_colors, kNoVertex);
      }
      const std::size_t color = colors[v];
      VertexId& src = first[cls * n_colors + color];
      std::uint64_t* row = dom_row(v);
      if (src != kNoVertex) {
        std::copy(dom_row(src), dom_row(src) + words_, row);
        dom_count_[v] = dom_count_[src];
        continue;
      }
      src = v;
      carrier_.assign(cls_carrier_[cls].begin(), cls_carrier_[cls].end());
      for (std::uint32_t k = out_by_color_idx_[color];
           k < out_by_color_idx_[color + 1]; ++k) {
        single[0] = out_by_color_pool_[k];
        if (!task_->allows(carrier_, single)) continue;
        set_bit(row, single[0]);
        ++dom_count_[v];
      }
    }
    return true;
  }

  void build_constraints() {
    // Face carrier classes share the vertex classes' id space.  The arena
    // face table holds every deduplicated face of size >= 2 in the same
    // first-emission order the legacy engine enumerates, so constraint
    // indices line up with face indices.
    const std::uint32_t n_faces = in_->num_faces();
    face_cls_.resize(n_faces);
    for (std::uint32_t fi = 0; fi < n_faces; ++fi) {
      face_cls_[fi] = intern_class(in_->face_base_carrier(fi));
    }

    // by_vertex CSR: face ids containing v, ascending.
    std::vector<std::uint32_t> counts(n_ + 1, 0);
    for (std::uint32_t fi = 0; fi < n_faces; ++fi) {
      for (VertexId v : in_->face(fi)) ++counts[v + 1];
    }
    by_vertex_idx_.assign(counts.begin(), counts.end());
    for (std::size_t i = 1; i < by_vertex_idx_.size(); ++i) {
      by_vertex_idx_[i] += by_vertex_idx_[i - 1];
    }
    by_vertex_pool_.resize(by_vertex_idx_.back());
    {
      std::vector<std::uint32_t> cursor(by_vertex_idx_.begin(),
                                        by_vertex_idx_.end() - 1);
      for (std::uint32_t fi = 0; fi < n_faces; ++fi) {
        for (VertexId v : in_->face(fi)) by_vertex_pool_[cursor[v]++] = fi;
      }
    }

    // Neighbour CSR over the edge (size-2) constraints.
    std::vector<std::uint32_t> ncounts(n_ + 1, 0);
    for (std::uint32_t fi = 0; fi < n_faces; ++fi) {
      const auto f = in_->face(fi);
      if (f.size() != 2) continue;
      ++ncounts[f[0] + 1];
      ++ncounts[f[1] + 1];
    }
    nbr_idx_.assign(ncounts.begin(), ncounts.end());
    for (std::size_t i = 1; i < nbr_idx_.size(); ++i) {
      nbr_idx_[i] += nbr_idx_[i - 1];
    }
    nbr_pool_.resize(nbr_idx_.back());
    {
      std::vector<std::uint32_t> cursor(nbr_idx_.begin(), nbr_idx_.end() - 1);
      for (std::uint32_t fi = 0; fi < n_faces; ++fi) {
        const auto f = in_->face(fi);
        if (f.size() != 2) continue;
        nbr_pool_[cursor[f[0]]++] = Arc{f[1], face_cls_[fi]};
        nbr_pool_[cursor[f[1]]++] = Arc{f[0], face_cls_[fi]};
      }
    }
  }

  /// Exact check of every face constraint containing v whose members are
  /// all assigned: the image must be a simplex of O (facet-bitset AND)
  /// allowed for the face's carrier class.  Edges read the pair rows.
  bool faces_consistent(VertexId v) {
    const std::uint32_t begin = by_vertex_idx_[v];
    const std::uint32_t end = by_vertex_idx_[v + 1];
    for (std::uint32_t k = begin; k < end; ++k) {
      const std::uint32_t fi = by_vertex_pool_[k];
      const auto face = in_->face(fi);
      if (face.size() == 2) {
        const VertexId a = assignment_[face[0]];
        const VertexId b = assignment_[face[1]];
        if (a == kNoVertex || b == kNoVertex) continue;
        if (!test_bit(pair_row(face_cls_[fi], a), b)) return false;
        continue;
      }
      image_.clear();
      bool all_assigned = true;
      for (VertexId u : face) {
        if (assignment_[u] == kNoVertex) {
          all_assigned = false;
          break;
        }
        image_.push_back(assignment_[u]);
      }
      if (!all_assigned) continue;
      std::sort(image_.begin(), image_.end());
      image_.erase(std::unique(image_.begin(), image_.end()), image_.end());
      // contains_simplex: some output facet contains every image vertex.
      const std::uint64_t* first =
          facet_bits_.data() +
          static_cast<std::size_t>(image_[0]) * facet_words_;
      std::copy(first, first + facet_words_, scratch_facets_.begin());
      for (std::size_t i = 1; i < image_.size(); ++i) {
        const std::uint64_t* row =
            facet_bits_.data() +
            static_cast<std::size_t>(image_[i]) * facet_words_;
        for (std::size_t w = 0; w < facet_words_; ++w) {
          scratch_facets_[w] &= row[w];
        }
      }
      bool contained = false;
      for (std::size_t w = 0; w < facet_words_; ++w) {
        if (scratch_facets_[w] != 0) {
          contained = true;
          break;
        }
      }
      if (!contained) return false;
      const auto carrier = cls_carrier_[face_cls_[fi]];
      carrier_.assign(carrier.begin(), carrier.end());
      if (!task_->allows(carrier_, image_)) return false;
    }
    return true;
  }

  /// AC-3 over the edge constraints; bit-parallel support checks.  Same
  /// fixpoint (and wipe-out detection) as the legacy engine.
  bool propagate(VertexId start) {
    queue_.clear();
    if (start == kNoVertex) {
      for (VertexId v = 0; v < n_; ++v) {
        for (std::uint32_t k = nbr_idx_[v]; k < nbr_idx_[v + 1]; ++k) {
          queue_.push_back(Item{nbr_pool_[k].peer, nbr_pool_[k].cls, v});
        }
      }
    } else {
      for (std::uint32_t k = nbr_idx_[start]; k < nbr_idx_[start + 1]; ++k) {
        queue_.push_back(Item{nbr_pool_[k].peer, nbr_pool_[k].cls, start});
      }
    }
    while (!queue_.empty()) {
      const Item it = queue_.back();
      queue_.pop_back();
      const VertexId u = it.target;
      if (assignment_[u] != kNoVertex) continue;
      std::uint64_t* du = dom_row(u);
      std::copy(du, du + words_, scratch_row_.begin());
      const std::uint32_t size_before = dom_count_[u];
      const VertexId v_assigned = assignment_[it.source];
      const std::uint64_t* dv = dom_row(it.source);
      bool removed_any = false;
      for (std::size_t w = 0; w < words_; ++w) {
        std::uint64_t bits = scratch_row_[w];
        while (bits != 0) {
          const std::uint32_t cand =
              static_cast<std::uint32_t>(w * 64) +
              static_cast<std::uint32_t>(std::countr_zero(bits));
          bits &= bits - 1;
          bool supported;
          const std::uint64_t* prow = pair_row(it.cls, cand);
          if (v_assigned != kNoVertex) {
            supported = test_bit(prow, v_assigned);
          } else {
            supported = false;
            for (std::size_t x = 0; x < words_; ++x) {
              if (prow[x] & dv[x]) {
                supported = true;
                break;
              }
            }
          }
          if (!supported) {
            clear_bit(du, cand);
            --dom_count_[u];
            trail_.push_back(Removed{u, cand});
            removed_any = true;
          }
        }
      }
      if (removed_any) {
        bucket_erase(u, size_before);
        bucket_insert(u, dom_count_[u]);
      }
      if (dom_count_[u] == 0) return false;
      if (removed_any) {
        for (std::uint32_t k = nbr_idx_[u]; k < nbr_idx_[u + 1]; ++k) {
          if (nbr_pool_[k].peer != it.source) {
            queue_.push_back(Item{nbr_pool_[k].peer, nbr_pool_[k].cls, u});
          }
        }
      }
    }
    return true;
  }

  void undo(std::size_t mark) {
    while (trail_.size() > mark) {
      const Removed r = trail_.back();
      trail_.pop_back();
      set_bit(dom_row(r.vertex), r.value);
      // Only on the way out of a finished search (solved, budget, cancel)
      // is a restored vertex still assigned; it stays out of the buckets.
      if (assignment_[r.vertex] == kNoVertex) {
        bucket_erase(r.vertex, dom_count_[r.vertex]);
        bucket_insert(r.vertex, dom_count_[r.vertex] + 1);
      }
      ++dom_count_[r.vertex];
    }
  }

  /// The unassigned vertex with the smallest live domain, ties to the
  /// lowest id: the lowest set bit of the lowest non-empty bucket.
  VertexId pick_vertex() const {
    for (std::uint32_t s = 0; s < bucket_count_.size(); ++s) {
      if (bucket_count_[s] == 0) continue;
      const std::uint64_t* row = bucket_row(s);
      for (std::size_t w = 0; w < vwords_; ++w) {
        if (row[w] != 0) {
          return static_cast<VertexId>(w * 64) +
                 static_cast<VertexId>(std::countr_zero(row[w]));
        }
      }
    }
    return kNoVertex;
  }

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
    // v's live domain cannot change while this frame owns it (propagation
    // skips assigned vertices), so it leaves its bucket once, here.
    bucket_erase(v, dom_count_[v]);
    // Snapshot v's domain into this depth's slice: propagation from deeper
    // levels mutates the live row.  Bit order IS ascending output-id order,
    // matching the legacy engine's sorted snapshot.
    std::uint64_t* snap =
        snapshots_.data() + depth * static_cast<std::size_t>(words_);
    std::copy(dom_row(v), dom_row(v) + words_, snap);
    for (std::size_t w = 0; w < words_; ++w) {
      std::uint64_t bits = snap[w];
      while (bits != 0) {
        const std::uint32_t cand =
            static_cast<std::uint32_t>(w * 64) +
            static_cast<std::uint32_t>(std::countr_zero(bits));
        bits &= bits - 1;
        const Solvability interrupt = node_interrupt();
        if (interrupt != Solvability::kSolvable) return interrupt;
        assignment_[v] = cand;
        const std::size_t mark = trail_.size();
        if (faces_consistent(v) && propagate(v)) {
          const Solvability sub = assign(depth + 1);
          if (sub != Solvability::kUnsolvable) {
            undo(mark);
            if (sub == Solvability::kSolvable) assignment_[v] = cand;
            return sub;
          }
        }
        undo(mark);
        assignment_[v] = kNoVertex;
      }
    }
    bucket_insert(v, dom_count_[v]);
    return Solvability::kUnsolvable;
  }

  struct Arc {
    std::uint32_t peer;
    std::uint32_t cls;
  };
  struct Item {
    VertexId target;
    std::uint32_t cls;
    VertexId source;
  };
  struct Removed {
    VertexId vertex;
    std::uint32_t value;
  };

  const Task* task_;
  const topo::Arena* in_;
  const ChromaticComplex* out_;
  const SolveOptions* options_;
  std::uint64_t budget_;
  std::uint64_t nodes_ = 0;

  std::uint32_t n_;
  std::uint32_t m_;
  std::size_t words_;
  std::size_t vwords_;  // words of a bitset over arena vertices
  std::size_t facet_words_ = 1;

  bool cancelled_ = false;

  std::vector<Color> out_colors_;
  std::vector<std::uint32_t> out_by_color_idx_;
  std::vector<VertexId> out_by_color_pool_;
  std::vector<std::uint64_t> compat_;
  std::vector<std::uint64_t> facet_bits_;

  std::vector<std::uint64_t> domains_;
  std::vector<std::uint32_t> dom_count_;
  std::vector<VertexId> assignment_;
  std::vector<std::uint64_t> buckets_;
  std::vector<std::uint32_t> bucket_count_;

  std::vector<std::uint32_t> cls_slots_;
  std::vector<std::span<const VertexId>> cls_carrier_;
  std::vector<std::uint32_t> face_cls_;
  std::vector<std::uint32_t> by_vertex_idx_;
  std::vector<std::uint32_t> by_vertex_pool_;
  std::vector<std::uint32_t> nbr_idx_;
  std::vector<Arc> nbr_pool_;
  std::vector<std::size_t> pair_base_;
  std::vector<std::uint64_t> pair_pool_;

  std::vector<Item> queue_;
  std::vector<Removed> trail_;
  std::vector<std::uint64_t> snapshots_;
  std::vector<std::uint64_t> scratch_row_;
  std::vector<std::uint64_t> scratch_facets_;
  Simplex image_;
  Simplex carrier_;
  Simplex edge_;
};

}  // namespace

Solvability arena_search(const Task& task, const topo::Arena& arena,
                         const SolveOptions& options,
                         std::vector<VertexId>& decision,
                         std::uint64_t& nodes) {
  WFC_REQUIRE(arena.valid(), "arena_search: invalid arena");
  if (cancel_requested(options)) {
    nodes = 0;
    return Solvability::kCancelled;
  }
  ArenaSearcher searcher(task, arena, options);
  return searcher.run(decision, nodes);
}

}  // namespace wfc::task
