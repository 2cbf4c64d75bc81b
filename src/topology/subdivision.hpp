// Standard chromatic subdivision (SDS) and barycentric subdivision (Bsd).
//
// SDS(s^n) is the one-shot immediate snapshot protocol complex (Lemma 3.2):
// a vertex is a pair (P_i, S_i) with P_i in S_i; a set of such pairs is a
// simplex iff the S_i satisfy the immediate-snapshot properties
//   (1) self-inclusion, (2) total order by containment, (3) immediacy.
// We generate its facets from ordered partitions: the facet for ordered
// partition (B_1, ..., B_m) of the participating vertices assigns to each
// vertex v in B_j the view S_v = B_1 u ... u B_j.
//
// The geometric embedding follows the paper's §3.6 construction: the vertex
// (i, sigma) is planted at the midpoint of the barycenter of sigma and the
// barycenter of the face of sigma opposite the vertex colored i (equivalently
// at e_i itself when sigma = {i}).
//
// Bsd is the classical barycentric subdivision used by the simplicial
// approximation machinery of §5; its vertices are barycenters of faces and
// its facets are maximal flags.  Bsd vertices are colored by face dimension,
// which makes Bsd(C) a valid ChromaticComplex but NOT color-compatible with
// C -- §5 only ever asks Bsd for carrier-preserving (non-chromatic) maps.
#pragma once

#include <functional>
#include <stdexcept>

#include "topology/complex.hpp"

namespace wfc::topo {

/// Polled by a subdivision build once per facet of the complex it
/// subdivides; returning true abandons the build with BuildStopped.  An
/// empty predicate never stops.  Callers derive it from a cancel token or a
/// deadline (task::build_stop).
using StopPredicate = std::function<bool()>;

/// Thrown by a build whose StopPredicate fired.  Nothing partial escapes:
/// the complex under construction is discarded.
class BuildStopped : public std::runtime_error {
 public:
  BuildStopped() : std::runtime_error("subdivision build stopped") {}
};

/// Standard chromatic subdivision of a pure chromatic complex with geometric
/// embedding (coordinates optional; propagated when present).
ChromaticComplex standard_chromatic_subdivision(const ChromaticComplex& c,
                                                const StopPredicate& stop = {});

/// SDS^k: k-fold iterated standard chromatic subdivision (Lemma 3.3).
/// k == 0 returns a copy of c.
ChromaticComplex iterated_sds(const ChromaticComplex& c, int k);

/// Classical barycentric subdivision.  Requires n_colors >= dimension+1.
ChromaticComplex barycentric_subdivision(const ChromaticComplex& c);

/// Bsd^k.
ChromaticComplex iterated_bsd(const ChromaticComplex& c, int k);

/// Key of the SDS(C) vertex with color `color` and view `view` (a canonical
/// simplex of C).  The protocol runtime uses this to map live executions to
/// vertices of the combinatorial complex.
std::string sds_vertex_key(Color color, const Simplex& view);

}  // namespace wfc::topo
