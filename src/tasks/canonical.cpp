#include "tasks/canonical.hpp"

#include <algorithm>
#include <set>

#include "common/assert.hpp"

namespace wfc::task {

namespace {

using topo::ChromaticComplex;
using topo::Simplex;
using topo::VertexId;

/// Enumerates all assignments value[0..n-1] in [0, m)^n.
template <typename Fn>
void for_each_assignment(int n, int m, Fn&& fn) {
  std::vector<int> a(static_cast<std::size_t>(n), 0);
  for (;;) {
    fn(a);
    int i = 0;
    while (i < n) {
      if (++a[static_cast<std::size_t>(i)] < m) break;
      a[static_cast<std::size_t>(i)] = 0;
      ++i;
    }
    if (i == n) return;
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// ConsensusTask
// ---------------------------------------------------------------------------

ConsensusTask::ConsensusTask(int n_procs, int n_values)
    : n_procs_(n_procs),
      n_values_(n_values),
      input_(n_procs),
      output_(n_procs) {
  WFC_REQUIRE(n_procs >= 1 && n_procs <= kMaxColors, "consensus: bad n_procs");
  WFC_REQUIRE(n_values >= 1, "consensus: need at least one value");

  // Vertices (p, v); input facets = all assignments; output facets =
  // constant assignments.
  std::vector<std::vector<VertexId>> in_v(static_cast<std::size_t>(n_procs));
  std::vector<std::vector<VertexId>> out_v(static_cast<std::size_t>(n_procs));
  for (Color p = 0; p < n_procs; ++p) {
    for (int v = 0; v < n_values; ++v) {
      const std::string key =
          "P" + std::to_string(p) + "=" + std::to_string(v);
      in_v[static_cast<std::size_t>(p)].push_back(
          input_.add_vertex(p, key, ColorSet::single(p)));
      in_value_.push_back(v);
      out_v[static_cast<std::size_t>(p)].push_back(
          output_.add_vertex(p, key, ColorSet::single(p)));
      out_value_.push_back(v);
    }
  }
  for_each_assignment(n_procs, n_values, [&](const std::vector<int>& a) {
    Simplex f;
    for (Color p = 0; p < n_procs; ++p) {
      f.push_back(in_v[static_cast<std::size_t>(p)]
                      [static_cast<std::size_t>(a[static_cast<std::size_t>(p)])]);
    }
    input_.add_facet(topo::make_simplex(std::move(f)));
  });
  for (int v = 0; v < n_values; ++v) {
    Simplex f;
    for (Color p = 0; p < n_procs; ++p) {
      f.push_back(out_v[static_cast<std::size_t>(p)][static_cast<std::size_t>(v)]);
    }
    output_.add_facet(topo::make_simplex(std::move(f)));
  }
}

std::string ConsensusTask::name() const {
  return "consensus(n=" + std::to_string(n_procs_) +
         ",m=" + std::to_string(n_values_) + ")";
}

bool ConsensusTask::allows(const Simplex& in, const Simplex& out) const {
  if (out.empty()) return true;
  const int decided = out_value_[out[0]];
  for (VertexId v : out) {
    if (out_value_[v] != decided) return false;  // agreement
  }
  for (VertexId v : in) {
    if (in_value_[v] == decided) return true;  // validity
  }
  return false;
}

// ---------------------------------------------------------------------------
// KSetConsensusTask
// ---------------------------------------------------------------------------

KSetConsensusTask::KSetConsensusTask(int n_procs, int k)
    : n_procs_(n_procs), k_(k), input_(n_procs), output_(n_procs) {
  WFC_REQUIRE(n_procs >= 1 && n_procs <= kMaxColors,
              "set consensus: bad n_procs");
  WFC_REQUIRE(k >= 1 && k <= n_procs, "set consensus: bad k");

  // Inputs: ids.  One vertex per processor.
  Simplex in_facet;
  for (Color p = 0; p < n_procs; ++p) {
    in_facet.push_back(
        input_.add_vertex(p, "P" + std::to_string(p), ColorSet::single(p)));
  }
  input_.add_facet(std::move(in_facet));

  // Outputs: (p, decided id j).
  std::vector<std::vector<VertexId>> out_v(static_cast<std::size_t>(n_procs));
  for (Color p = 0; p < n_procs; ++p) {
    for (int j = 0; j < n_procs; ++j) {
      out_v[static_cast<std::size_t>(p)].push_back(output_.add_vertex(
          p, "P" + std::to_string(p) + "->" + std::to_string(j),
          ColorSet::single(p)));
      out_id_.push_back(j);
    }
  }
  for_each_assignment(n_procs, n_procs, [&](const std::vector<int>& a) {
    std::set<int> distinct(a.begin(), a.end());
    if (static_cast<int>(distinct.size()) > k) return;
    Simplex f;
    for (Color p = 0; p < n_procs; ++p) {
      f.push_back(out_v[static_cast<std::size_t>(p)]
                      [static_cast<std::size_t>(a[static_cast<std::size_t>(p)])]);
    }
    output_.add_facet(topo::make_simplex(std::move(f)));
  });
}

std::string KSetConsensusTask::name() const {
  return "set-consensus(n=" + std::to_string(n_procs_) +
         ",k=" + std::to_string(k_) + ")";
}

bool KSetConsensusTask::allows(const Simplex& in, const Simplex& out) const {
  const ColorSet participating = input_.colors_of(in);  // ids == colors here
  ColorSet decided;
  for (VertexId v : out) {
    const int id = out_id_[v];
    if (!participating.contains(id)) return false;  // must adopt a participant
    decided = decided.with(id);
  }
  return decided.size() <= k_;
}

// ---------------------------------------------------------------------------
// RenamingTask
// ---------------------------------------------------------------------------

RenamingTask::RenamingTask(int n_procs, int n_names)
    : n_procs_(n_procs), n_names_(n_names), input_(n_procs), output_(n_procs) {
  WFC_REQUIRE(n_procs >= 1 && n_procs <= kMaxColors, "renaming: bad n_procs");
  WFC_REQUIRE(n_names >= n_procs, "renaming: name space too small to solve");

  Simplex in_facet;
  for (Color p = 0; p < n_procs; ++p) {
    in_facet.push_back(
        input_.add_vertex(p, "P" + std::to_string(p), ColorSet::single(p)));
  }
  input_.add_facet(std::move(in_facet));

  std::vector<std::vector<VertexId>> out_v(static_cast<std::size_t>(n_procs));
  for (Color p = 0; p < n_procs; ++p) {
    for (int name = 0; name < n_names; ++name) {
      out_v[static_cast<std::size_t>(p)].push_back(output_.add_vertex(
          p, "P" + std::to_string(p) + ":" + std::to_string(name),
          ColorSet::single(p)));
      out_name_.push_back(name);
    }
  }
  for_each_assignment(n_procs, n_names, [&](const std::vector<int>& a) {
    std::set<int> names(a.begin(), a.end());
    if (static_cast<int>(names.size()) != n_procs_) return;  // need injective
    Simplex f;
    for (Color p = 0; p < n_procs; ++p) {
      f.push_back(out_v[static_cast<std::size_t>(p)]
                      [static_cast<std::size_t>(a[static_cast<std::size_t>(p)])]);
    }
    output_.add_facet(topo::make_simplex(std::move(f)));
  });
}

std::string RenamingTask::name() const {
  return "renaming(n=" + std::to_string(n_procs_) +
         ",M=" + std::to_string(n_names_) + ")";
}

bool RenamingTask::allows(const Simplex& /*in*/, const Simplex& out) const {
  // |out| <= n_procs, so the pairwise scan beats building a set.
  for (std::size_t i = 0; i < out.size(); ++i) {
    for (std::size_t j = 0; j < i; ++j) {
      if (out_name_[out[i]] == out_name_[out[j]]) return false;
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// SimplexAgreementTask
// ---------------------------------------------------------------------------

SimplexAgreementTask::SimplexAgreementTask(int n_procs,
                                           topo::ChromaticComplex target)
    : n_procs_(n_procs), input_(n_procs), output_(std::move(target)) {
  WFC_REQUIRE(n_procs >= 1 && n_procs <= kMaxColors,
              "simplex agreement: bad n_procs");
  WFC_REQUIRE(output_.n_colors() == n_procs,
              "simplex agreement: target color count mismatch");
  WFC_REQUIRE(output_.dimension() + 1 == n_procs,
              "simplex agreement: target must subdivide s^{n_procs-1}");
  Simplex in_facet;
  for (Color p = 0; p < n_procs; ++p) {
    in_facet.push_back(
        input_.add_vertex(p, "P" + std::to_string(p), ColorSet::single(p)));
  }
  input_.add_facet(std::move(in_facet));
}

std::string SimplexAgreementTask::name() const {
  return "simplex-agreement(n=" + std::to_string(n_procs_) + ")";
}

bool SimplexAgreementTask::allows(const Simplex& in,
                                  const Simplex& out) const {
  // Outputs must form a simplex of A carried by the participants' face:
  // carrier(W, A) subset of the face spanned by participating corners.
  if (out.empty()) return true;
  if (!output_.contains_simplex(out)) return false;
  return output_.carrier_of(out).subset_of(input_.colors_of(in));
}

// ---------------------------------------------------------------------------
// ApproxAgreementTask
// ---------------------------------------------------------------------------

ApproxAgreementTask::ApproxAgreementTask(int n_procs, int grid)
    : n_procs_(n_procs), grid_(grid), input_(n_procs), output_(n_procs) {
  WFC_REQUIRE(n_procs >= 1 && n_procs <= kMaxColors,
              "approx agreement: bad n_procs");
  WFC_REQUIRE(grid >= 1, "approx agreement: grid must be >= 1");

  // Inputs: each processor holds an endpoint, 0 or m.
  std::vector<std::vector<VertexId>> in_v(static_cast<std::size_t>(n_procs));
  for (Color p = 0; p < n_procs; ++p) {
    for (int e = 0; e <= 1; ++e) {
      const int val = e == 0 ? 0 : grid;
      in_v[static_cast<std::size_t>(p)].push_back(input_.add_vertex(
          p, "P" + std::to_string(p) + "=" + std::to_string(val),
          ColorSet::single(p)));
      in_value_.push_back(val);
    }
  }
  for_each_assignment(n_procs, 2, [&](const std::vector<int>& a) {
    Simplex f;
    for (Color p = 0; p < n_procs; ++p) {
      f.push_back(in_v[static_cast<std::size_t>(p)]
                      [static_cast<std::size_t>(a[static_cast<std::size_t>(p)])]);
    }
    input_.add_facet(topo::make_simplex(std::move(f)));
  });

  // Outputs: grid values; a tuple is a simplex iff values pairwise within 1.
  std::vector<std::vector<VertexId>> out_v(static_cast<std::size_t>(n_procs));
  for (Color p = 0; p < n_procs; ++p) {
    for (int g = 0; g <= grid; ++g) {
      out_v[static_cast<std::size_t>(p)].push_back(output_.add_vertex(
          p, "P" + std::to_string(p) + "~" + std::to_string(g),
          ColorSet::single(p)));
      out_value_.push_back(g);
    }
  }
  for_each_assignment(n_procs, grid + 1, [&](const std::vector<int>& a) {
    int lo = a[0], hi = a[0];
    for (int x : a) {
      lo = std::min(lo, x);
      hi = std::max(hi, x);
    }
    if (hi - lo > 1) return;
    Simplex f;
    for (Color p = 0; p < n_procs; ++p) {
      f.push_back(out_v[static_cast<std::size_t>(p)]
                      [static_cast<std::size_t>(a[static_cast<std::size_t>(p)])]);
    }
    output_.add_facet(topo::make_simplex(std::move(f)));
  });
}

std::string ApproxAgreementTask::name() const {
  return "approx-agreement(n=" + std::to_string(n_procs_) +
         ",m=" + std::to_string(grid_) + ")";
}

bool ApproxAgreementTask::allows(const Simplex& in, const Simplex& out) const {
  int in_lo = grid_, in_hi = 0;
  for (VertexId v : in) {
    in_lo = std::min(in_lo, in_value_[v]);
    in_hi = std::max(in_hi, in_value_[v]);
  }
  int out_lo = grid_, out_hi = 0;
  for (VertexId v : out) {
    const int val = out_value_[v];
    if (val < in_lo || val > in_hi) return false;  // range validity
    out_lo = std::min(out_lo, val);
    out_hi = std::max(out_hi, val);
  }
  return out.empty() || out_hi - out_lo <= 1;  // epsilon agreement
}

// ---------------------------------------------------------------------------
// IdentityTask
// ---------------------------------------------------------------------------

IdentityTask::IdentityTask(topo::ChromaticComplex input)
    : input_(std::move(input)) {}

bool IdentityTask::allows(const Simplex& in, const Simplex& out) const {
  // Output vertices mirror input vertices: each decided value must be the
  // decider's own input, i.e. out subset in.
  return std::includes(in.begin(), in.end(), out.begin(), out.end());
}

}  // namespace wfc::task
