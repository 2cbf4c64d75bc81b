#include "topology/subdivision.hpp"

#include <algorithm>
#include <array>
#include <sstream>

#include "topology/ordered_partition.hpp"

namespace wfc::topo {

namespace {

/// Barycenter of the base-complex vertices listed in `verts` (coordinates
/// must be present and of equal length).
std::vector<double> barycenter(const ChromaticComplex& c,
                               std::span<const VertexId> verts) {
  WFC_CHECK(!verts.empty(), "barycenter of empty set");
  const std::size_t d = c.vertex(verts.front()).coords.size();
  std::vector<double> out(d, 0.0);
  for (VertexId v : verts) {
    const auto& coords = c.vertex(v).coords;
    WFC_CHECK(coords.size() == d, "barycenter: mixed coordinate dimensions");
    for (std::size_t i = 0; i < d; ++i) out[i] += coords[i];
  }
  for (double& x : out) x /= static_cast<double>(verts.size());
  return out;
}

bool has_embedding(const ChromaticComplex& c) {
  for (VertexId v = 0; v < c.num_vertices(); ++v) {
    if (c.vertex(v).coords.empty()) return false;
  }
  return c.num_vertices() > 0;
}

}  // namespace

std::uint64_t fubini(int k) {
  WFC_REQUIRE(k >= 0 && k <= 20, "fubini: k out of range");
  // a(k) = sum_{j=1..k} C(k, j) a(k-j), a(0) = 1.
  std::vector<std::uint64_t> a(static_cast<std::size_t>(k) + 1, 0);
  a[0] = 1;
  for (int m = 1; m <= k; ++m) {
    std::uint64_t binom = 1;  // C(m, j) built incrementally
    for (int j = 1; j <= m; ++j) {
      binom = binom * static_cast<std::uint64_t>(m - j + 1) /
              static_cast<std::uint64_t>(j);
      a[static_cast<std::size_t>(m)] +=
          binom * a[static_cast<std::size_t>(m - j)];
    }
  }
  return a[static_cast<std::size_t>(k)];
}

std::string sds_vertex_key(Color color, const Simplex& view) {
  std::ostringstream os;
  os << color << '@';
  for (std::size_t i = 0; i < view.size(); ++i) {
    if (i) os << ',';
    os << view[i];
  }
  return os.str();
}

ChromaticComplex standard_chromatic_subdivision(const ChromaticComplex& c,
                                                const StopPredicate& stop) {
  WFC_REQUIRE(c.num_facets() > 0, "SDS: empty complex");
  const bool geom = has_embedding(c);
  ChromaticComplex out(c.n_colors());

  // Interns the SDS vertex (color of base vertex `own`, view `sigma`).
  auto intern = [&](VertexId own, const Simplex& sigma) -> VertexId {
    const Color color = c.vertex(own).color;
    std::string key = sds_vertex_key(color, sigma);
    if (VertexId v = out.find_vertex(key); v != kNoVertex) return v;
    std::vector<double> coords;
    if (geom) {
      if (sigma.size() == 1) {
        coords = c.vertex(own).coords;
      } else {
        // Paper §3.6: midpoint of barycenter(sigma) and the barycenter of
        // the face of sigma opposite the vertex of this color.
        Simplex opposite;
        opposite.reserve(sigma.size() - 1);
        for (VertexId v : sigma) {
          if (v != own) opposite.push_back(v);
        }
        const std::vector<double> a = barycenter(c, sigma);
        const std::vector<double> b = barycenter(c, opposite);
        coords.resize(a.size());
        for (std::size_t i = 0; i < a.size(); ++i) {
          coords[i] = 0.5 * (a[i] + b[i]);
        }
      }
    }
    return out.add_vertex(color, std::move(key), c.carrier_of(sigma),
                          std::move(coords), c.base_carrier_of(sigma));
  };

  for (const Simplex& facet : c.facets()) {
    if (stop && stop()) throw BuildStopped();
    const int k = static_cast<int>(facet.size());
    for_each_ordered_partition(k, [&](const OrderedPartition& blocks) {
      Simplex sds_facet;
      sds_facet.reserve(facet.size());
      Simplex prefix;  // union of blocks so far, canonical
      for (const std::vector<int>& block : blocks) {
        for (int pos : block) prefix.push_back(facet[static_cast<std::size_t>(pos)]);
        std::sort(prefix.begin(), prefix.end());
        for (int pos : block) {
          sds_facet.push_back(intern(facet[static_cast<std::size_t>(pos)], prefix));
        }
      }
      out.add_facet(make_simplex(std::move(sds_facet)));
    });
  }
  return out;
}

ChromaticComplex iterated_sds(const ChromaticComplex& c, int k) {
  WFC_REQUIRE(k >= 0, "iterated_sds: negative level");
  if (k == 0) return c;
  ChromaticComplex cur = standard_chromatic_subdivision(c);
  for (int i = 1; i < k; ++i) cur = standard_chromatic_subdivision(cur);
  return cur;
}

ChromaticComplex barycentric_subdivision(const ChromaticComplex& c) {
  WFC_REQUIRE(c.num_facets() > 0, "Bsd: empty complex");
  WFC_REQUIRE(c.dimension() + 1 <= c.n_colors(),
              "Bsd: needs n_colors >= dim+1 for the dimension coloring");
  const bool geom = has_embedding(c);
  ChromaticComplex out(c.n_colors());

  auto intern = [&](const Simplex& sigma) -> VertexId {
    // Barycenter vertex of face sigma; colored by dim(sigma).
    std::string key = "b@" + to_string(sigma);
    if (VertexId v = out.find_vertex(key); v != kNoVertex) return v;
    std::vector<double> coords;
    if (geom) coords = barycenter(c, sigma);
    return out.add_vertex(static_cast<Color>(sigma.size() - 1), std::move(key),
                          c.carrier_of(sigma), std::move(coords),
                          c.base_carrier_of(sigma));
  };

  for (const Simplex& facet : c.facets()) {
    // Maximal flags of the face lattice of `facet` <-> permutations of its
    // vertices (prefix chains).
    std::vector<VertexId> perm(facet.begin(), facet.end());
    std::sort(perm.begin(), perm.end());
    do {
      Simplex flag_facet;
      Simplex prefix;
      for (VertexId v : perm) {
        prefix.push_back(v);
        Simplex canon = prefix;
        std::sort(canon.begin(), canon.end());
        flag_facet.push_back(intern(canon));
      }
      out.add_facet(make_simplex(std::move(flag_facet)));
    } while (std::next_permutation(perm.begin(), perm.end()));
  }
  return out;
}

ChromaticComplex iterated_bsd(const ChromaticComplex& c, int k) {
  WFC_REQUIRE(k >= 0, "iterated_bsd: negative level");
  if (k == 0) return c;
  ChromaticComplex cur = barycentric_subdivision(c);
  for (int i = 1; i < k; ++i) cur = barycentric_subdivision(cur);
  return cur;
}

}  // namespace wfc::topo
